"""Reachability gate: every function in `src/matsuo` runs under some CLI command.

A fixed ladder of commands runs in-process under `sys.setprofile`, which sees
the code object of every Python call.  An AST walk of the package then names
each function definition whose code never ran.  A function that no command
reaches is dead API: delete it, or reach it from a command, or give it an
entry with a reason in ALLOWED.

A second AST gate fails on any name a test or package module imports and
never uses; a package module uses each name its `__all__` lists.
"""

import ast
import contextlib
import io
import os
import sys
from fnmatch import fnmatchcase

import matsuo
from matsuo.cli import EXIT_OK, main

SRC = os.path.dirname(os.path.realpath(matsuo.__file__))
TESTS = os.path.dirname(os.path.realpath(__file__))

# each command is small; together they touch every path that has a command
LADDER = [
    ["build", "S4", "--products"],  # the product table export
    ["derive", "3W:A1", "--field", "Q(sqrt:3)"],  # QuadraticExtension.format
    ["classify-lines", "3W:A3"],  # line_orbit_class on an 18-point (AffA3) component
    ["classify-lines", "M3:3"],
    # F13 has sqrt(-1), so section runs the character check
    ["verify", "all", "--group", "W:A2", "--type", "A2", "--trials", "1", "--field", "F13"],
    # over Q(sqrt:3), equivalence takes the modular route over Q and its lift
    ["verify", "all", "--group", "S3", "--type", "A2", "--trials", "1", "--field", "Q(sqrt:3)"],
]

# qualified name pattern -> why it may stay without a command reaching it
ALLOWED = {
    "Eigendecomp.dims": "the public example in README",
    "ZeroSumJordan.*": "the matrix model of M(S_n), for a `verify component` suite",
    "symmetric_model_iso": "the matrix model of M(S_n), for a `verify component` suite",
    "LinearEndo.commutator": "the Lie bracket on Der, for a `verify component` suite",
}


def _definitions() -> dict:
    """(file, first line) -> qualified name of every function in the package.

    The first line is the code object's: that of the first decorator, if any.
    """
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[(path, first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, prefix)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                walk(ast.parse(fh.read(), path), path, "")
    return defs


def _allowed(qualname: str) -> bool:
    last = qualname.rsplit(".", 1)[-1]
    if last.startswith("__") and last.endswith("__") and last != "__init__":
        return True  # dunders are called by the language, often from C
    return any(fnmatchcase(qualname, pattern) for pattern in ALLOWED)


def _run_ladder() -> set:
    """(file, first line) of every Python function called while the ladder ran."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in LADDER:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code == EXIT_OK, argv
    finally:
        sys.setprofile(old)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_function_is_reached_by_a_command():
    defs = _definitions()
    reached = _run_ladder()
    dead = sorted(
        f"{os.path.basename(path)}: {name}"
        for (path, line), name in defs.items()
        if (path, line) not in reached and not _allowed(name)
    )
    assert not dead, "functions no command reaches:\n" + "\n".join(dead)


def _unused_imports(path: str) -> list[str]:
    """Names a module imports at any depth and never reads nor lists in `__all__`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if "__all__" in [getattr(t, "id", None) for t in node.targets]:
                used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unused_in(directory: str) -> dict:
    return {
        name: found
        for name in sorted(os.listdir(directory))
        if name.endswith(".py") and (found := _unused_imports(os.path.join(directory, name)))
    }


def test_test_modules_use_every_name_they_import():
    unused = _unused_in(TESTS)
    assert not unused, f"imported and never used: {unused}"


def test_package_modules_use_every_name_they_import():
    unused = _unused_in(SRC)
    assert not unused, f"imported and never used: {unused}"


def test_allow_list_names_existing_functions():
    names = set(_definitions().values())
    stale = [p for p in ALLOWED if not any(fnmatchcase(n, p) for n in names)]
    assert not stale, f"allow-list entries that match no function: {stale}"
