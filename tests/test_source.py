"""Checks on the package source itself."""
import ast
import pathlib

import tvdn

SRC = pathlib.Path(tvdn.__file__).parent

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
