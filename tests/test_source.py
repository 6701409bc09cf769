"""Checks on the package source itself."""
import ast
import pathlib
import re

import tvdn

SRC = pathlib.Path(tvdn.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]

# (file, function, parameter) kept although the function never reads it,
# with the reason
UNREAD_ALLOWED = {
    ("tvsolve.py", "tv_denoise", "cfg"):
        "perfbench/workloads.py passes it (ROADMAP item 2)",
    ("risk.py", "risk_curve", "cfg"):
        "perfbench/workloads.py passes it (ROADMAP item 2)",
}


def _unread_parameters(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        named = {n.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name)}
        for p in params:
            if p.arg not in named:
                yield path.name, node.name, p.arg


def test_every_parameter_is_read():
    # a parameter its function never names is an option that does nothing
    found = {u for path in sorted(SRC.glob("*.py"))
             for u in _unread_parameters(path)}
    assert found - set(UNREAD_ALLOWED) == set()
    assert set(UNREAD_ALLOWED) <= found, "an allowed parameter is gone"


def _names(tree):
    """(identifier, line) for every name the module's code uses: variables,
    attributes, imports, and the words of string constants other than
    docstrings, such as a benchmark wrapping a function by its name."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for word in node.name.split("."):
                yield word, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def _definitions(node, prefix=""):
    """(qualified name, node) for every function, class and method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _unnamed_definitions():
    files = sorted(SRC.glob("*.py")) + sorted((REPO / "perfbench").rglob(
        "*.py")) + sorted((REPO / "tests").rglob("*.py"))
    uses = {}
    for path in files:
        for word, line in _names(ast.parse(path.read_text())):
            uses.setdefault(word, []).append((path, line))
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text())):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by Python itself
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in uses.get(node.name, ())):
                yield path.name, qualname


def test_every_definition_is_named():
    # a function, class or method that no code in the package (outside its
    # own definition), the benchmark or the tests names is dead code
    assert list(_unnamed_definitions()) == []
