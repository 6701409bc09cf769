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


def test_no_private_name_crosses_modules():
    # a module that imports another module's underscore name shares a
    # helper that belongs where it is used; importing a private module
    # (``from ._pool import parallel_map``) is fine
    found = [(path.name, node.module, alias.name)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


# calls that open or parse a file: open() in any form, json.load(s),
# np.load, pickle.load and pathlib's readers
_FILE_READS = {"open", "load", "loads", "read_text", "read_bytes"}


def _file_reads(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in _FILE_READS:
                yield path.name, name, node.lineno


def test_only_io_opens_files():
    # every file input goes through one of io's checked readers, which
    # refuse what they cannot read by name; no other module opens a file
    found = [r for path in sorted(SRC.glob("*.py")) for r in _file_reads(path)]
    assert {name for module, name, _ in found if module == "io.py"} \
        == {"open", "load"}, "the check no longer sees io's own readers"
    assert [r for r in found if r[0] != "io.py"] == []


_SOLVERS = {"FusionPath", "CutSolver"}


def _calls(names):
    """(module, innermost enclosing definition, name) for every call in the
    package of a function or class in names, by its bare name."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = list(_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in names:
                inside = [(d.lineno, q) for q, d in defs
                          if d.lineno <= node.lineno <= d.end_lineno]
                yield (path.name, max(inside)[1] if inside else None,
                       node.func.id)


def test_one_solver_choice():
    # tv_solver is where the package picks a lattice's solver; every grid
    # and every lambda goes through the solver it returns (a block of paths
    # comes from FusionPath.block, which is not a choice)
    assert set(_calls(_SOLVERS)) == {
        ("tvsolve.py", "tv_solver", "FusionPath"),
        ("tvsolve.py", "tv_solver", "CutSolver")}


def test_one_certificate_per_row_kernel():
    # each solver certifies its fits once per block, in its row kernel:
    # a block of grid values on a path, a warm-started chain on a lattice
    assert sorted(_calls({"_certified"})) == [
        ("tvsolve.py", "CutSolver._rows", "_certified"),
        ("tvsolve.py", "FusionPath._rows", "_certified")]


def test_one_solve():
    # both TV solvers inherit one solve, the one-value block of their row
    # kernel; the spectral Laplacian's solve is a linear solve, not a fit
    found = sorted((path.name, q) for path in sorted(SRC.glob("*.py"))
                   for q, _ in _definitions(ast.parse(path.read_text()))
                   if q.split(".")[-1] == "solve")
    assert found == [("grid.py", "SpectralLaplacian.solve"),
                     ("tvsolve.py", "_Solver.solve")]
