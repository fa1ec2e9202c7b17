"""The library surface stays reachable.

Every public top-level function or class of ``src/qprep`` and ``bench``
must be named (as an ``ast.Name`` or ``ast.Attribute``) somewhere in those
files outside its own definition.  A name that only tests reach is dead
weight: delete it, or move it to ``tests/oracles.py`` if a test compares
against it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/qprep/*.py"), *ROOT.glob("bench/*.py")])

UNREACHED_ON_PURPOSE = {
    # The dense reference the state tests compare conversions against.
    "sos_to_statevector",
}


def _is_pytest_test(path, node):
    return path.name.startswith("test_") and node.name.startswith("test_")


def public_definitions_and_uses():
    """({name: [(path, first line, last line)]}, {name: [(path, line)]})."""
    defined, used = {}, {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and not _is_pytest_test(path, node)):
                defined.setdefault(node.name, []).append(
                    (path, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append((path, node.lineno))
    return defined, used


def _named_outside(spans, uses):
    return any(not any(path == d_path and lo <= line <= hi
                       for d_path, lo, hi in spans)
               for path, line in uses)


def test_every_public_name_is_reached():
    defined, used = public_definitions_and_uses()
    unreached = sorted(
        "%s (%s:%d)" % (name, spans[0][0].relative_to(ROOT), spans[0][1])
        for name, spans in defined.items()
        if name not in UNREACHED_ON_PURPOSE
        and not _named_outside(spans, used.get(name, [])))
    assert not unreached, (
        "public names that no command, check or bench file reaches: "
        + ", ".join(unreached))


def test_exceptions_are_still_defined_and_unreached():
    defined, used = public_definitions_and_uses()
    for name in UNREACHED_ON_PURPOSE:
        assert name in defined, f"{name} is gone; drop its exception"
        assert not _named_outside(defined[name], used.get(name, [])), (
            f"{name} is reached now; drop its exception")
