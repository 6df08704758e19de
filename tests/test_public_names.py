"""Every public top-level function and class of g2gaudin is reached by the
program, its benchmark or its tools, not by the tests alone: a reference
that only a test reads belongs in tests/oracles.py."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "g2gaudin")
READERS = ("src", "perfbench", "tools")
DOTTED = re.compile(r"\w+(\.\w+)+")


def _sources():
    for top in READERS:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _names(node):
    """The identifiers node names: Names, Attributes, imported names and
    the parts of dotted string constants such as "exact.poly_det" (a
    docstring is prose, never a dotted name, so a mention there does not
    count)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and DOTTED.fullmatch(sub.value):
            yield from sub.value.split(".")


def unreached_public_names():
    """The public top-level functions and classes of g2gaudin that no source
    under src/, perfbench/ or tools/ names outside their own definition."""
    defined, named = [], set()
    for path, tree in _sources():
        in_package = os.path.dirname(path) == PACKAGE
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and in_package:
                own = stmt.name
                if not own.startswith("_"):
                    defined.append(own)
            named.update(n for n in _names(stmt) if n != own)
    return sorted(n for n in defined if n not in named)


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_public_names() == []
