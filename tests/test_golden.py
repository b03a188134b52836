"""The benchmark's CLI script, run in-process, prints its golden outputs.

Each command of ``CLI_SCRIPT`` in ``perfbench/workloads.py`` goes through
``recdiff.cli.dispatch`` with ``--no-header``; its stdout must equal
``perfbench/golden/NN-<subcommand>.txt`` byte for byte, so a changed output
fails here and not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from recdiff.cli import dispatch

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)        # standard-library imports only


@pytest.mark.parametrize("index, command", list(enumerate(workloads.CLI_SCRIPT)),
                         ids=["%02d-%s" % (i, c.split()[0]) for i, c in enumerate(workloads.CLI_SCRIPT)])
def test_cli_output_matches_golden(index, command, capsys):
    assert dispatch(command.split() + ["--no-header"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == workloads._golden_path(index, command).read_bytes()
