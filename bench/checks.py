"""Correctness checks on one op's result.

An op fails if the command exits with a code other than 0, if its report
does not say it passed, if a float field lies outside the report's own
tolerance, if a ``verify`` report echoes other parameters than it was given,
or, for an anchor op, if an exact field differs from the stored reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Result:
    """What one call of ``cli.main`` returned and printed."""

    code: int | None
    out: str
    err: str
    exception: str | None = None

    def report(self):
        try:
            return json.loads(self.out)
        except ValueError:
            return None


def exit_class(result: Result) -> str | None:
    """Failure class from the exit code, or None for exit 0.

    Exit 2 means either an internal failure, which prints error JSON, or an
    argparse usage error, which prints no JSON; the error ``type`` tells
    them apart.
    """
    if result.exception is not None:
        return "cli.exception"
    if result.code == 0:
        return None
    if result.code == 2:
        report = result.report()
        has_type = isinstance(report, dict) and "type" in report.get("error", {})
        return "cli.exit_2_internal" if has_type else "cli.exit_2_usage"
    return f"cli.exit_{result.code}"


def exact_fields(value, path: str = "") -> dict[str, object]:
    """Every field of a report except floats, keyed by its path.

    These are the rational strings, ints, bools and string residuals that
    must not move by a single digit between versions of the program.
    """
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            out.update(exact_fields(value[key], f"{path}.{key}"))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(exact_fields(item, f"{path}[{i}]"))
        return out
    if isinstance(value, float):
        return {}
    return {path: value}


def _passed(report: dict) -> bool:
    if "principalSpecialization" in report:  # poly
        return report["principalSpecialization"]["equal"] is True and report.get("equal", True) is True
    return report.get("pass") is True


def _within_tolerance(report: dict) -> bool:
    """Orthogonality values against their exact expectations, with the
    report's own tolerance (relative on the diagonal)."""
    tol = report.get("tolerance")
    for pair in report.get("pairs", ()):
        expected = float(Fraction(pair["expected"]))
        bound = tol * (1 + abs(expected)) if pair["lambda"] == pair["mu"] else tol
        value = pair["value"]
        if not (abs(value["re"] - expected) < bound and abs(value["im"]) < bound):
            return False
    return True


def _params_echo(point) -> dict:
    q, *ts = point
    return {"q": str(q), "t": [str(t) for t in ts]}


def check(result: Result, point, reference: dict | None = None) -> str | None:
    """Failure class of one op, or None if it is correct."""
    failure = exit_class(result)
    if failure is not None:
        return failure
    report = result.report()
    if not isinstance(report, dict):
        return "check.no_report"
    if not _passed(report):
        return "check.not_passed"
    if not _within_tolerance(report):
        return "check.tolerance"
    if "params" in report:
        echoed = {k: report["params"][k] for k in ("q", "t")}
        if echoed != _params_echo(point):
            return "check.params_echo"
    if reference is not None and exact_fields(report) != reference:
        return "check.anchor_mismatch"
    return None
