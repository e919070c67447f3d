"""The package's modules import one another in layers, with no cycle.

Each module's relative imports are read from its source, so a cycle shows
here even when Python resolves it at import time.
"""

import ast
import pathlib

import gssc

SRC = pathlib.Path(gssc.__file__).parent

# every module imports only modules before it here (and errors, _blas)
LAYERS = ("complexes", "coefficients", "gf2", "homology", "hodge", "learn",
          "baselines", "experiment", "cli")


def relative_imports(name):
    """The gssc modules that module `name` imports with `from . ...`."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def import_graph():
    return {path.stem: relative_imports(path.stem) for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"}


def find_cycle(graph):
    """One cycle of `graph` as a list of nodes that starts and ends alike, or None."""
    done, stack = set(), []

    def visit(node):
        if node in stack:
            return stack[stack.index(node):] + [node]
        if node in done:
            return None
        stack.append(node)
        for other in sorted(graph.get(node, ())):
            if cycle := visit(other):
                return cycle
        stack.pop()
        done.add(node)
        return None
    for node in sorted(graph):
        if cycle := visit(node):
            return cycle
    return None


def test_the_module_imports_have_no_cycle():
    assert find_cycle(import_graph()) is None


def test_the_cycle_finder_finds_a_two_module_cycle():
    assert find_cycle({"a": {"b"}, "b": {"a"}, "c": {"a"}}) == ["a", "b", "a"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def test_every_module_imports_only_earlier_layers():
    graph = import_graph()
    assert set(LAYERS) | {"errors", "_blas"} == set(graph)
    for i, name in enumerate(LAYERS):
        assert graph[name] <= set(LAYERS[:i]) | {"errors", "_blas"}, name


def test_exact_homology_imports_no_spectral_or_learning_code():
    assert relative_imports("homology") == {"gf2", "coefficients", "complexes", "errors"}


def test_the_exact_side_imports_no_scipy_or_float_layer_at_module_level():
    # an import inside a function body runs only when that function does
    banned = {"scipy", ".hodge", ".learn", ".baselines", ".experiment", "._blas"}
    offending = {}
    for name in ("complexes", "coefficients", "gf2", "homology", "errors", "cli"):
        found, todo = set(), list(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")).body)
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level
                found.update([prefix + node.module.split(".")[0]] if node.module
                             else (prefix + alias.name for alias in node.names))
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        if found & banned:
            offending[name] = sorted(found & banned)
    assert offending == {}
