"""scripts/line_trace.py lists the statements of src/recdiff that a pytest run never ran."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("line_trace", _ROOT / "scripts" / "line_trace.py")
line_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_trace)


def test_a_statement_owns_its_lines_but_not_those_of_its_body():
    source = '"""doc"""\nimport os\n\n\ndef f(x):\n    """doc"""\n    if (x and\n            x > 1):\n' \
        '        return (1,\n                2)\n    try:\n        pass\n    except ValueError:\n' \
        '        raise\n'
    assert line_trace.statements(source) == [(7, {7, 8}), (9, {9, 10}), (12, {12}), (14, {14})]


def test_one_short_test_module_traced():
    # the ladder's tests climb it to the cap and refuse there, and count nothing
    done = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "line_trace.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_ladder.py"],
        cwd=_ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    sections = {}
    for line in done.stdout.splitlines():
        if line.startswith("src/recdiff/"):
            module = sections.setdefault(line.split(":")[0], [])
        elif line.startswith("  ") and sections:
            module.append(line.split(None, 1)[1])
    assert "src/recdiff/counting.py" in sections
    ladder = sections["src/recdiff/intervals.py"]
    assert "for bits in refinement_precisions(start):" not in ladder
    assert "raise PrecisionExhausted(message, bits=bits)" not in ladder
    total = sum(map(len, sections.values()))
    assert done.stdout.splitlines()[-1] == "%d statements of src/recdiff never ran" % total
