"""Every public top-level name of ``src/gatemem`` is reached by the
program: by code in the package other than its own definition, by the
benchmark's ``perfbench/*.py`` or by the README's "Library" block.  A
name that only tests reach belongs in ``tests/``.

Code references are identifiers and attribute names, and string
constants that spell a name (``perfbench/tracer.py`` wraps functions by
name); import lines do not count, so a re-export no caller reads fails.
"""

import ast
from pathlib import Path

import gatemem

from test_readme import _library_block

PACKAGE = Path(gatemem.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Public names no caller reaches yet, with the reason each stays.
EXEMPT = {
    "statistical_floor": "the detection floor of a noise-only calibration builds on it",
    "records_from_channel": "records of ideal experiments on device channels build on it",
}


def _references(node) -> set[str]:
    """Identifiers ``node`` uses, outside import statements."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                and child.value.isidentifier():
            names.add(child.value)
    return names


def _is_command(node) -> bool:
    """A function the click group ``main`` registers (``@main.command()``)."""
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr == "command" for dec in node.decorator_list)


def _public_definitions(tree) -> dict:
    """Public top-level functions, classes and constants of a module,
    each with its defining statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not _is_command(node):
                defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    return {name: node for name, node in defined.items()
            if not name.startswith("_") and name != "main"}


def test_every_public_name_is_reached_by_the_program():
    statements = []  # (file, top-level statement) of every program file
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]:
        statements += [(path, node) for node in ast.parse(path.read_text(), str(path)).body]
    statements += [("README", node) for node in ast.parse(_library_block()).body]
    uses = [(path, node.lineno, _references(node)) for path, node in statements
            if not isinstance(node, (ast.Import, ast.ImportFrom))]

    unreached = []  # (name, module.name)
    for path in sorted(PACKAGE.glob("*.py")):
        for name, own in _public_definitions(ast.parse(path.read_text())).items():
            if not any(name in names for where, line, names in uses
                       if (where, line) != (path, own.lineno)):
                unreached.append((name, f"{path.stem}.{name}"))
    assert [where for name, where in unreached if name not in EXEMPT] == [], \
        "public names only tests reach"
    # an exemption goes once a caller reaches its name
    assert set(EXEMPT) <= {name for name, _ in unreached}
