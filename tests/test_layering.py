"""Module layering of the package: every relative import sits at module
level, the relative imports between modules form no cycle, and sympy is
imported only inside functions, so that it loads only when needed.  Every
function also reads each parameter it declares."""

import ast
from pathlib import Path

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


def test_sympy_is_not_imported_at_module_level():
    eager = []
    for name, tree in parsed_modules().items():
        for node in module_level_nodes(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                targets = [node.module]
            else:
                continue
            if any(t.split(".")[0] == "sympy" for t in targets):
                eager.append("%s.py:%d" % (name, node.lineno))
    assert eager == []


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
