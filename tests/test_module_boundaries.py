"""The modules of the package use only each other's public names.

A name with a leading underscore is private to its module; a sibling that
imports it couples itself to an implementation detail.
"""

import ast
import os
import subprocess
import sys
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


def module_level_numpy_imports(source: str) -> list[int]:
    """Lines of the imports of numpy that run when the module is imported:
    those outside every function body and every ``if TYPE_CHECKING:``."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(node.lineno)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return found


def test_guard_sees_module_level_numpy_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "else:\n"
        "    from numpy.linalg import norm\n"
        "class Grid:\n"
        "    import numpy.fft\n"
        "def table():\n"
        "    import numpy as np\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "import numbers\n"
    )
    assert module_level_numpy_imports(source) == [2, 6, 8, 12]


def test_no_module_imports_numpy_at_load():
    # numpy loads on the first use of the polynomial side; the operator
    # suites, which never use it, start without it
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in module_level_numpy_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


OPERATOR_SUITES_WITHOUT_NUMPY = """
import sys
import octaboson
assert "numpy" not in sys.modules, "import octaboson"
from octaboson import cli
argvs = [
    ["verify", suite, "--n", "3", "--maxPart", "3"]
    for suite in ("algebra", "adjoint", "degeneration")
] + [["verify", "scattering"]]
for argv in argvs:
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert cli.main(["poly", "--n", "2", "--lambda", "1,0"]) == 0
assert "numpy" in sys.modules, "poly"
"""


def test_operator_suites_run_without_numpy():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", OPERATOR_SUITES_WITHOUT_NUMPY],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
