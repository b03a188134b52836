"""The mutant list of scripts/mutation_probe.py stays applicable."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "mutation_probe", _ROOT / "scripts" / "mutation_probe.py")
mutation_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_probe)


def test_the_list_is_short_and_named_once():
    names = [m.name for m in mutation_probe.MUTANTS]
    assert len(names) <= 8 and len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutation_probe.MUTANTS, ids=lambda m: m.name)
def test_each_original_occurs_once_and_its_tests_exist(mutant, tmp_path):
    text = (_ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.original) == 1
    assert mutant.mutated != mutant.original and mutant.tests
    for test in mutant.tests:
        assert (_ROOT / test.split("::")[0]).is_file(), test
    # applied to a copy, the mutant changes that one place and nothing else
    copy = tmp_path / mutant.path
    copy.parent.mkdir(parents=True)
    copy.write_text(text, encoding="utf-8")
    mutation_probe.apply(mutant, tmp_path)
    assert copy.read_text(encoding="utf-8") == text.replace(mutant.original, mutant.mutated)
