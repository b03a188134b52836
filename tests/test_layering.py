"""Module layering of the package: every relative import sits at module
level, the relative imports between modules form no cycle, and no module
imports numpy, which is no dependency, or sympy, a test-only one: the
third-party packages imported anywhere in the package are exactly the
runtime dependencies of ``pyproject.toml``, and neither numpy nor sympy
loads in a process that counts, small x or large.
Every function also reads each parameter it declares, and no module touches
the precision of mpmath's global context or finds roots in it."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "recdiff"


def relative_imports(tree):
    """(node, imported module names) for each relative import in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:          # from . import a, b
                yield node, [alias.name for alias in node.names]
            else:
                yield node, [node.module.split(".")[0]]


def module_level_nodes(node):
    """Every node that runs at import time: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from module_level_nodes(child)


def parsed_modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_relative_import_inside_a_function():
    nested = []
    for name, tree in parsed_modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += ["%s.py:%d" % (name, node.lineno)
                           for node, _ in relative_imports(func)]
    assert nested == []


def test_relative_imports_form_no_cycle():
    modules = parsed_modules()
    graph = {name: {target for _, targets in relative_imports(tree)
                    for target in targets if target in modules and target != name}
             for name, tree in modules.items()}
    state = {}                   # 1: on the current path, 2: done

    def visit(name, path):
        state[name] = 1
        for target in sorted(graph[name]):
            assert state.get(target) != 1, "import cycle: " + " -> ".join(path + [target])
            if target not in state:
                visit(target, path + [target])
        state[name] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_zpoly_imports_nothing_from_the_package():
    # the base layer under quadratic, _roots, spectral and heights: an import
    # upwards forms no cycle yet, so the cycle test alone would not see it
    assert [node.lineno for node, _ in relative_imports(parsed_modules()["_zpoly"])] == []


def module_level_imports(package):
    """'module.py:line' of every import of ``package`` that runs at import time."""
    eager = []
    for name, tree in parsed_modules().items():
        for node in module_level_nodes(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                targets = [node.module]
            else:
                continue
            if any(t.split(".")[0] == package for t in targets):
                eager.append("%s.py:%d" % (name, node.lineno))
    return eager


def test_sympy_is_not_imported_at_module_level():
    assert module_level_imports("sympy") == []


def test_numpy_is_not_imported_at_module_level():
    assert module_level_imports("numpy") == []


def test_no_function_imports_sympy():
    # 'module.function' of each function whose own body imports sympy
    importers = []
    for name, tree in parsed_modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in module_level_nodes(func):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    targets = [node.module]
                else:
                    continue
                if any(t.split(".")[0] == "sympy" for t in targets):
                    importers.append("%s.%s" % (name, func.name))
    assert importers == []


def test_imported_packages_are_the_runtime_dependencies():
    # top-level imports and imports inside functions alike; sympy, pytest
    # and hypothesis belong to the test extra
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for tree in parsed_modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"recdiff"}
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}

    assert third_party == names(project["dependencies"])
    assert {"pytest", "hypothesis", "sympy"} <= names(project["optional-dependencies"]["test"])


_STARTUP_PROBE = """
import sys
from recdiff.cli import dispatch
for argv in (["count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1e12"],
             ["collisions", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1e9"],
             ["scan", "--seq-u", "fib", "--seq-v", "pow2",
              "--x-grid", "1e3,1e6,1e9,1e12", "--output", "csv"]):
    code = dispatch(argv + ["--no-header"])
    loaded = {m.split(".")[0] for m in sys.modules} & {"numpy", "sympy"}
    print("loaded after", argv[0], code, sorted(loaded))
"""


def test_small_counts_load_neither_numpy_nor_sympy():
    # a fresh process, since this one may have both loaded by other tests:
    # counts, collisions and a scan of a degree-2 pair up to x = 10^12
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded after")]
    assert loaded == ["loaded after %s 0 []" % command
                      for command in ("count", "collisions", "scan")]


_DEEP_COUNT_PROBE = """
import sys
from recdiff.cli import dispatch
code = dispatch(["count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1e300", "--no-header"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "sympy")))
"""


def test_a_deep_count_loads_neither_numpy_nor_sympy():
    # a fresh process: fib/pow2 at x = 10^300 has T = 1,433,695 pairs, whose
    # repeated values the sweep finds from the terms alone
    proc = subprocess.run([sys.executable, "-c", _DEEP_COUNT_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


_NO_SYMPY_PROBE = """
import sys
from recdiff.cli import dispatch
from recdiff.recurrences import LinearRecurrence
from recdiff.spectral import analyze_sequence
job, *args = sys.argv[1:]
if job == "bounds":
    code = dispatch(["bounds", "--seq-u", "tribonacci", "--seq-v", "pow3", "--no-header"])
else:
    coeffs = tuple(map(int, args))
    analysis = analyze_sequence(LinearRecurrence(job, coeffs, (0,) * (len(coeffs) - 1) + (1,)))
    code = 0 if analysis.certificate is not None else 1
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


@pytest.mark.parametrize("job", [["tribonacci", "1", "1", "1"],
                                 ["tetranacci", "1", "1", "1", "1"],
                                 ["quad-quad", "0", "1", "2", "1"],
                                 ["bounds"]],
                         ids=["tribonacci", "tetranacci", "quad-quad", "bounds"])
def test_analyses_and_bounds_load_no_sympy(job):
    # a fresh process each; (0, 1, 2, 1) has the characteristic polynomial
    # x^4 - x^2 - 2x - 1 = (x^2 - x - 1)(x^2 + x + 1), and the bound chain of
    # tribonacci runs the cyclotomic test of a cubic
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY_PROBE] + job,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_every_parameter_is_read():
    unread = []
    for name, tree in parsed_modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            loaded = {node.id for node in ast.walk(func)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += ["%s.py:%d %s(%s)" % (name, func.lineno, func.name, p)
                       for p in params if p not in ("self", "cls") and p not in loaded]
    assert unread == []


GLOBAL_MP = ("mp", "mpmath.mp")             # mpmath's global context
ROOT_FINDERS = {"polyroots", "findroot"}
PRECISION_MANAGERS = {"workprec", "workdps", "extraprec", "extradps"}


def dotted(node):
    """'a.b.c' for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and base + "." + node.attr
    return None


def global_mp_uses(tree):
    """Line numbers that set the global precision, rebind ``mpmath.mp``, find
    roots or manage precision in the global context, or import those names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [dotted(t) or "" for t in targets]
            if any(n == "mpmath.mp" or (n.rpartition(".")[0] in GLOBAL_MP
                                        and n.rpartition(".")[2] in ("prec", "dps"))
                   for n in names):
                yield node.lineno
        elif isinstance(node, ast.Call):
            base, _, attr = (dotted(node.func) or "").rpartition(".")
            if base in GLOBAL_MP + ("mpmath",) and attr in ROOT_FINDERS | PRECISION_MANAGERS:
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            if any(a.name in {"mp"} | ROOT_FINDERS | PRECISION_MANAGERS for a in node.names):
                yield node.lineno


def test_global_mpmath_context_is_never_touched():
    sample = ast.parse("\n".join([
        "mp.prec = 100", "mpmath.mp.dps += 5", "mpmath.mp = None",
        "mpmath.polyroots([1, 0, -2])", "mp.findroot(f, 1)", "from mpmath import mp",
        "with mpmath.mp.workprec(80): pass",
        "ctx.prec = 64", "ctx.polyroots([1, 0, -2])", "mpmath.mpf(1)"]))
    assert sorted(global_mp_uses(sample)) == [1, 2, 3, 4, 5, 6, 7]
    touched = ["%s.py:%d" % (name, line) for name, tree in parsed_modules().items()
               for line in global_mp_uses(tree)]
    assert touched == []
