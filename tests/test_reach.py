"""Reachability gate: every function in `src/matsuo` runs under some CLI command.

A fixed ladder of commands runs in-process under `sys.setprofile`, which sees
the code object of every Python call.  An AST walk of the package then names
each function definition whose code never ran.  A function that no command
reaches is dead API: delete it, or reach it from a command, or give it an
entry in ALLOWED that names the file outside the package that reads it.

A second AST gate fails on any name a test or package module imports and
never uses; a package module uses each name its `__all__` lists.  A third
fails on a field of a package `NamedTuple` that no package module reads, and
a fourth on a defaulted parameter that no package call passes.
"""

import ast
import contextlib
import io
import math
import os
import re
import sys
from collections import defaultdict
from fnmatch import fnmatchcase

import matsuo
from matsuo.cli import EXIT_OK, main

SRC = os.path.dirname(os.path.realpath(matsuo.__file__))
TESTS = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(TESTS)
README = os.path.join(ROOT, "README.md")

# each command is small; together they touch every path that has a command
LADDER = [
    ["build", "S4", "--products"],  # the product table export
    # the rows solved over Q, the basis coerced into Q(sqrt 3); QuadraticExtension.format
    ["derive", "3W:A1", "--field", "Q(sqrt:3)"],
    ["classify-lines", "3W:A3"],  # line_orbit_class on an 18-point (AffA3) component
    ["classify-lines", "M3:3"],
    # F13 has sqrt(-1), so section runs the character check
    ["verify", "all", "--group", "W:A2", "--type", "A2", "--trials", "1", "--field", "F13"],
    # over Q(sqrt:3), equivalence takes the modular route over Q and its lift
    ["verify", "all", "--group", "S3", "--type", "A2", "--trials", "1", "--field", "Q(sqrt:3)"],
]

# qualified name pattern -> the file outside the package that reads it, so it may
# stay without a command reaching it
ALLOWED = {
    "sqrt_in_field": "bench/traced.py",  # the package asks `Field.sqrt_raw`
}

# `NamedTuple` field -> the file outside the package that reads it
FIELDS_READ_OUTSIDE = {
    "FieldElement.raw": "bench/traced.py",
}

# `function.parameter` -> the file outside the package that passes it
PASSED_OUTSIDE = {
    "main.argv": "bench/child.py",
}


def _package_trees() -> dict:
    """path -> parsed module, for every module of the package."""
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                trees[path] = ast.parse(fh.read(), path)
    return trees


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

    for path, tree in _package_trees().items():
        walk(tree, path, "")
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


def _namedtuple_fields(trees) -> list[str]:
    """`Class.field` for every field of every `NamedTuple` class in `trees`."""
    return [
        f"{node.name}.{item.target.id}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    ]


def test_every_namedtuple_field_is_read():
    """Each field of a package `NamedTuple` is read as an attribute by some package
    module, or FIELDS_READ_OUTSIDE names the file outside the package that reads it.
    Reads are matched by attribute name alone, so the gate is coarse: a field passes
    if any attribute of the same name is read, on any object."""
    trees = _package_trees().values()
    fields = _namedtuple_fields(trees)
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in read]
    missing = sorted(set(unread) - set(FIELDS_READ_OUTSIDE))
    assert not missing, f"NamedTuple fields nothing reads: {missing}"
    stale = sorted(set(FIELDS_READ_OUTSIDE) - set(unread))
    assert not stale, f"entries that name no field, or one the package reads: {stale}"
    for field, reader in FIELDS_READ_OUTSIDE.items():
        with open(os.path.join(ROOT, reader)) as fh:
            assert "." + field.rsplit(".", 1)[1] in fh.read(), f"{reader} never reads {field}"


def _defaulted_parameters(trees) -> dict:
    """`qualified name.parameter` -> (callee name, index among the positional arguments
    of a call, or None if keyword-only) for each parameter of a package function that has
    a default.  A call names a method without its `self` or `cls`, and `__init__` by its class."""
    found = {}

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args, name = child.args, child.name
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                callee, qualname = cls if name == "__init__" else name, prefix + name
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(args.defaults):
                        found[f"{qualname}.{arg.arg}"] = (callee, i)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{qualname}.{arg.arg}"] = (callee, None)
                walk(child, f"{qualname}.<locals>.", None)
            else:
                walk(child, prefix, cls)

    for tree in trees:
        walk(tree, "", None)
    return found


def _calls(trees) -> dict:
    """callee name -> (positional argument count, keyword names) of each call in `trees`;
    a starred argument counts as every position, and `**` as the keyword None."""
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls[name].append((math.inf if starred else len(node.args), keywords))
    return calls


def _passes(calls, qualname, callee, index) -> bool:
    """Whether some call of `callee` passes the parameter `qualname` names."""
    param = qualname.rsplit(".", 1)[1]
    return any(
        None in keywords or param in keywords or index is not None and index < count
        for count, keywords in calls[callee]
    )


def test_every_defaulted_parameter_is_passed():
    """Each parameter with a default is passed by some call in the package, by keyword
    or by position, or PASSED_OUTSIDE names the file outside the package whose calls
    pass it.  Calls are matched by callee name alone, so the gate is coarse: a parameter
    passes if any call of a function or method of the same name passes it."""
    trees = _package_trees().values()
    params, calls = _defaulted_parameters(trees), _calls(trees)
    unpassed = [q for q, (callee, index) in params.items() if not _passes(calls, q, callee, index)]
    missing = sorted(set(unpassed) - set(PASSED_OUTSIDE))
    assert not missing, f"defaulted parameters no package call passes: {missing}"
    stale = sorted(set(PASSED_OUTSIDE) - set(unpassed))
    assert not stale, f"entries that name no parameter, or one the package passes: {stale}"
    for qualname, caller in PASSED_OUTSIDE.items():
        with open(os.path.join(ROOT, caller)) as fh:
            outside = _calls([ast.parse(fh.read(), caller)])
        assert _passes(outside, qualname, *params[qualname]), f"{caller} never passes {qualname}"


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


def test_bench_modules_use_every_name_they_import():
    unused = _unused_in(os.path.join(ROOT, "bench"))
    assert not unused, f"imported and never used: {unused}"


def test_allow_list_names_existing_functions():
    """Each entry matches a function, and the file it names reads that function."""
    names = set(_definitions().values())
    stale = [p for p in ALLOWED if not any(fnmatchcase(n, p) for n in names)]
    assert not stale, f"allow-list entries that match no function: {stale}"
    unread = []
    for pattern, reader in ALLOWED.items():
        with open(os.path.join(ROOT, reader)) as fh:
            if pattern.rsplit(".", 1)[-1] not in fh.read():
                unread.append(f"{pattern} ({reader})")
    assert not unread, f"allow-list entries their named reader never mentions: {unread}"


def test_readme_example_prints_what_its_comments_say(capsys):
    """The README's Python example prints on each `print` line the value its comment gives."""
    with open(README) as fh:
        (example,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    lines = [line for line in example.splitlines() if line.startswith("print(")]
    exec(compile(example, README, "exec"), {})
    assert capsys.readouterr().out.splitlines() == [line.split("# ", 1)[1] for line in lines]
