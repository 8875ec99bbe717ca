"""The functions of ``src/octaboson`` that a fixed set of CLI runs and the
demos enter, as a JSON list of "module.qualname" names on stdout.

Run it in a fresh interpreter, with ``src`` on the path:

    PYTHONPATH=src python tests/reachability_census.py

``sys.setprofile`` is set before the package is imported, so functions run
at import count, and no cache of an earlier run hides a body.  The argv set
is every suite at n <= 2 at each profile, ``poly`` with
``--compare-macdonald``, CSV output, a written and an unwritable ``--out``,
and the usage, guard and budget refusals.
"""

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "octaboson") + os.sep

SUITES = ("orthogonality", "norms", "pieri", "algebra", "adjoint", "eigen", "degeneration", "scattering")


def argvs(tmp: str) -> list[tuple[list[str], dict]]:
    """(argv, environment overrides) of each run."""
    runs = []
    for profile in ("four", "three", "two"):
        for suite in SUITES:
            runs.append((["verify", suite, "--n", "2", "--maxPart", "2", "--profile", profile], {}))
    runs += [
        (["verify", "pieri", "--n", "0", "--maxPart", "0"], {}),
        (["verify", "eigen", "--n", "1", "--maxPart", "1", "--format", "csv"], {}),
        (["verify", "algebra", "--n", "1", "--relation", "com-d1", "--format", "csv"], {}),
        (["verify", "orthogonality", "--n", "1", "--maxPart", "1", "--format", "csv"], {}),
        (["poly", "--n", "2", "--lambda", "2,1", "--profile", "two", "--compare-macdonald"], {}),
        (["poly", "--n", "2", "--lambda", "1,0", "--format", "csv", "--out", f"{tmp}/poly.csv"], {}),
        (["poly", "--n", "1", "--lambda", "1", "--out", f"{tmp}/missing/poly.json"], {}),
        # usage: an unknown suite, a bad size, and --help
        (["verify", "nosuch"], {}),
        (["verify", "pieri", "--n", "-1"], {}),
        (["--help"], {}),
        # guard: outside the parameter domain, and t_1 t_2 = q^22 beyond the
        # construction's horizon
        (["poly", "--n", "1", "--q", "3/2"], {}),
        (["verify", "pieri", "--n", "2", "--maxPart", "20", "--profile", "two",
          "--q", "1/2", "--t1", "1/2048", "--t2", "1/2048"], {}),
        # budget: the seed block, a quadrature grid, and the operator suites
        (["poly", "--n", "2", "--lambda", "2,1"], {"OCTABOSON_BUDGET": "10"}),
        (["verify", "orthogonality", "--n", "2", "--maxPart", "2"], {"OCTABOSON_BUDGET": "10"}),
        (["verify", "algebra", "--n", "2", "--maxPart", "2"], {"OCTABOSON_BUDGET": "10"}),
        (["verify", "adjoint", "--n", "2", "--maxPart", "2"], {"OCTABOSON_BUDGET": "10"}),
        (["verify", "scattering", "--n", "2"], {"OCTABOSON_BUDGET": "10"}),
    ]
    return runs


def census() -> list[str]:
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            code = frame.f_code
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        from octaboson import cli

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv, env in argvs(tmp):
                with mock.patch.dict(os.environ, env), contextlib.suppress(SystemExit):  # --help
                    cli.main(argv)
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    return sorted(entered)


if __name__ == "__main__":
    print(json.dumps(census()))
