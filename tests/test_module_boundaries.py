"""The modules of the package use only each other's public names.

A name with a leading underscore is private to its module; a sibling that
imports it couples itself to an implementation detail.
"""

import ast
from pathlib import Path

import octaboson

PACKAGE = Path(octaboson.__file__).resolve().parent


def private_sibling_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for each ``_``-prefixed name that the source
    imports from a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "octaboson":
            continue
        found += [(node.lineno, module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_guard_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from . import torus\n"
        "from .qkernels import ParamSet, _norm_full\n"
        "from octaboson.torus import _xi_grid\n"
        "from os import _exit\n"
    )
    assert private_sibling_imports(source) == [
        (3, ".qkernels", "_norm_full"),
        (4, "octaboson.torus", "_xi_grid"),
    ]


def test_no_module_imports_private_sibling_names():
    offenders = [
        f"{path.name}:{line} imports {name} from {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module, name in private_sibling_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
