"""Capture the report goldens that ``test_golden_reports.py`` replays.

Run from the repository root, on the commit whose reports are the reference:

    PYTHONPATH=src python tests/capture_golden_reports.py

Only the argvs ``tests/golden_reports.json`` does not hold yet are run,
each through ``cli.main`` in one process; its exit code and stdout are
appended with the commit it was captured at.  The entries already there
and the file's own ``capturedAt`` are kept as they are; to capture an
entry again, delete it (or the file) first.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import subprocess

from octaboson import cli

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_reports.json")

#: A second parameter point per profile, besides each profile's defaults.
SECOND_POINT = {
    "four": ["--q", "1/3", "--t1", "1/2", "--t2", "1/5", "--t3=-2/7", "--t4", "3/8"],
    "three": ["--q", "1/3", "--t1", "1/2", "--t2", "1/5", "--t3=-2/7"],
    "two": ["--q", "1/3", "--t1", "1/2", "--t2", "1/5"],
}

#: Suites whose reports hold no floats; their CSV is compared byte for byte.
EXACT_SUITES = ("pieri", "algebra", "adjoint", "degeneration")
#: Suites with float CSV cells, compared cell by cell within a tolerance.
FLOAT_SUITES = ("orthogonality", "norms", "eigen", "scattering")

SUITE_ARGS = {
    "orthogonality": ["--n", "2", "--maxPart", "2", "--M", "32"],
    "norms": ["--n", "2", "--maxPart", "2", "--M", "32"],
    "pieri": ["--n", "2", "--maxPart", "2"],
    "algebra": ["--n", "2", "--maxPart", "1", "--relation", "com-d"],
    "adjoint": ["--n", "2", "--maxPart", "2"],
    "eigen": ["--n", "2", "--maxPart", "2"],
    "degeneration": ["--n", "2", "--maxPart", "2"],
    "scattering": ["--n", "2"],
}


def golden_argvs() -> list[list[str]]:
    argvs: list[list[str]] = []
    for profile in ("four", "three", "two"):
        for point in ([], SECOND_POINT[profile]):
            flags = ["--profile", profile, *point]
            argvs.append(["poly", "--n", "2", "--lambda", "2,1", *flags])
            if profile == "two":
                argvs.append(["poly", "--n", "2", "--lambda", "2,1", "--compare-macdonald", *flags])
            if point:
                # t_1 = 1/2 needs the finer grid to meet the n = 2 tolerance
                argvs.append(["verify", "orthogonality", "--n", "2", "--maxPart", "2", "--M", "64", *flags])
                argvs.append(["verify", "eigen", *SUITE_ARGS["eigen"], *flags])
                argvs.append(["verify", "degeneration", *SUITE_ARGS["degeneration"], *flags])
                continue
            for suite, args in SUITE_ARGS.items():
                argvs.append(["verify", suite, *args, *flags])
            for suite in EXACT_SUITES + FLOAT_SUITES:
                argvs.append(["verify", suite, *SUITE_ARGS[suite], *flags, "--format", "csv"])
            argvs.append(["poly", "--n", "2", "--lambda", "2,1", *flags, "--format", "csv"])
    # the empty partition through every route that builds or evaluates it
    argvs.append(["poly", "--n", "0"])
    argvs.append(["poly", "--n", "0", "--profile", "two", "--compare-macdonald"])
    argvs.append(["verify", "orthogonality", "--n", "0", "--maxPart", "2"])
    argvs.append(["verify", "eigen", "--n", "0", "--maxPart", "2"])
    # grids the sign fold of the weight treats apart: odd M (no middle
    # node), M below the exponent span (differences alias), n = 1 and 3,
    # and the M that choose_points picks
    orthogonality = ["verify", "orthogonality"]
    argvs.append([*orthogonality, "--n", "2", "--maxPart", "2", "--M", "5"])
    argvs.append([*orthogonality, "--n", "2", "--maxPart", "2", "--M", "7", "--format", "csv"])
    argvs.append([*orthogonality, "--n", "1", "--maxPart", "3", "--M", "8"])
    argvs.append([*orthogonality, "--n", "3", "--maxPart", "1", "--M", "6"])
    argvs.append([*orthogonality, "--n", "2", "--maxPart", "2"])
    # degeneration on a larger basis at each profile, on the empty and the
    # one-site basis, and at n = 4
    degeneration = ["verify", "degeneration"]
    for profile in ("four", "three", "two"):
        argvs.append([*degeneration, "--n", "3", "--maxPart", "3", "--profile", profile])
    argvs.append([*degeneration, "--n", "0", "--maxPart", "0"])
    argvs.append([*degeneration, "--n", "1", "--maxPart", "0"])
    argvs.append([*degeneration, "--n", "4", "--maxPart", "3"])
    argvs.append([*degeneration, "--n", "3", "--maxPart", "3", "--profile", "three", "--format", "csv"])
    # the operator suites' budget refusals, an unknown and a single-site
    # relation, and at a point degenerate beyond the construction guard the
    # genericity error, which comes before the unknown relation
    for suite in ("algebra", "adjoint", "degeneration"):
        argvs.append(["verify", suite, "--n", "4", "--maxPart", "40"])
    algebra = ["verify", "algebra"]
    argvs.append([*algebra, "--relation", "com-x"])
    argvs.append([*algebra, "--n", "2", "--maxPart", "2", "--relation", "com-b", "--format", "csv"])
    degenerate = ["--q", "1/2", "--t1", "1/1024", "--t2", "1/2048", "--t3", "1/3", "--t4", "1/5"]
    argvs.append([*algebra, "--relation", "com-x", "--n", "1", "--maxPart", "20", *degenerate])
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buffer.getvalue()


def main() -> None:
    sha = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    if GOLDEN_PATH.exists():
        goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    else:
        goldens = {"capturedAt": sha, "reports": []}
    held = [entry["argv"] for entry in goldens["reports"]]
    missing = [argv for argv in golden_argvs() if argv not in held]
    for argv in missing:
        code, out = run(argv)
        goldens["reports"].append({"argv": argv, "exit": code, "stdout": out, "capturedAt": sha})
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"{len(missing)} reports captured at {sha} into {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
