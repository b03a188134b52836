#!/usr/bin/env python3
"""Line trace: the statements of ``src/recdiff`` that a pytest run never executes.

Usage:
    python3 scripts/line_trace.py [PYTEST ARGS ...]

pytest runs in this process, with the arguments given, under a line tracer
(``sys.settrace`` and ``threading.settrace``) that follows only the frames
of code in ``src/recdiff``.  Afterwards each module's statements that never
ran are printed: the AST ``stmt`` nodes other than definitions, imports,
docstrings and ``try``/``global`` headers, each by its first line.  A
statement counts as run when a line of its own (its lines less those of the
statements nested in it) ran.  The exit code is pytest's.

The library is imported from ``src`` by the run itself, after the tracer is
set, so module-level statements count.  Code that the tests run in a
subprocess (``python -m recdiff.cli``) is not traced.  The tracer makes the
run several times slower; the whole tier-1 suite takes minutes.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recdiff"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try))


def statements(source: str):
    """(first line, own lines) of each statement of ``source`` that the
    trace reports on."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) \
                or id(node) in docstrings:
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, (ast.stmt, ast.ExceptHandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node.lineno, own))
    return sorted(out, key=lambda item: item[0])


def never_run(path: Path, ran: set) -> list:
    """(line, source text) of the statements of ``path`` none of whose own
    lines is in ``ran``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    return [(first, lines[first - 1].strip()) for first, own in statements(source)
            if not own & ran]


def traced(run):
    """Call ``run()`` under the line tracer; (its result, {file: lines run})."""
    package, ran, wanted = str(PACKAGE), {}, {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = name.startswith(package)
            if keep:
                ran.setdefault(name, set())
        return local if keep else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = traced(lambda: pytest.main(args))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = never_run(path, ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print("%s: %d never ran" % (path.relative_to(ROOT), len(missed)))
            for line, text in missed:
                print("  %5d  %s" % (line, text))
    print("%d statements of src/recdiff never ran" % total, flush=True)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
