"""Command-line front end: build polynomials, run verification suites,
emit JSON/CSV reports.

Exit codes: 0 all checks passed (and --help); 1 failed check, parameter/guard
violation (an unwritable --out reported on stdout) or command-line usage error
(with machine-readable error JSON, type "usage" for the last); 2 internal
failure, either a constructed polynomial that is not monic or leaves its lower
set (the error JSON names lambda and the offending mu), or any other exception
(type "internal", naming the exception); 3 resource budget exceeded (for a
quadrature grid the error JSON names the M it needs, for a seed block the
terms its exponent box can hold).

Each suite but ``scattering`` (closed-form samples, drawn here) runs whole
in its module on tables its run owns: ``pieri`` in ``hallittlewood``,
``orthogonality`` and ``norms`` in ``torus``, the rest in ``qboson``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
import traceback
from fractions import Fraction

from . import budget, hallittlewood, qboson, torus
from .qkernels import DEFAULT_POINTS, ParamSet, quadratic_norm

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INTERNAL = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """The command line does not parse (unknown suite, bad flag or value)."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors by raising UsageError instead of exiting 2,
    the internal-failure code; subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_PARAM_FLAGS = ("--q", "--t1", "--t2", "--t3", "--t4")


def _parse_rational(text: str, flag: str) -> Fraction:
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"{flag} must be an exact rational like '1/2' or '-3'; got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator; got {text!r}") from None


def _build_params(args) -> ParamSet:
    default_q, default_ts = DEFAULT_POINTS[args.profile]
    q, *ts = (
        default if (raw := getattr(args, flag[2:])) is None else _parse_rational(raw, flag)
        for flag, default in zip(_PARAM_FLAGS, (default_q, *default_ts))
    )
    return ParamSet(q=q, ts=tuple(ts), profile=args.profile)


def _emit(payload: dict, args, rows: list[dict] | None = None) -> bool:
    """Write the report; CSV uses the flattened per-case rows.  False where
    --out cannot be written, with the error naming it on stdout instead."""
    if args.format == "csv" and rows is not None:
        buffer = io.StringIO()
        fields: list[str] = []
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(buffer, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return True
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        message = f"--out {args.out!r} cannot be written: {exc.strerror}"
        _emit(_error("parameter", message), argparse.Namespace(format="json", out=None))
        return False
    return True


def _error(kind: str, message: str, evidence: dict | None = None) -> dict:
    return {"error": {"type": kind, "message": message, **(evidence or {})}}


def _joined(parts) -> str:
    """A partition as one CSV cell, e.g. "2,1"."""
    return ",".join(map(str, parts))


# ---------------------------------------------------------------------------
# poly command
# ---------------------------------------------------------------------------


def _cmd_poly(args) -> tuple[dict, list[dict], int]:
    params = _build_params(args)
    # no --lambda is 0^n, and an empty one the empty partition
    text = ",".join("0" * args.n) if args.lam is None else args.lam
    try:
        lam = tuple(int(p) for p in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"--lambda must be comma-separated integers; got {args.lam!r}") from None
    if len(lam) != args.n:
        raise ValueError(f"--lambda has {len(lam)} parts but --n is {args.n}")
    params.ensure_generic(args.n, max(lam, default=0))
    hallittlewood.check_budget([lam], params)
    hl = hallittlewood.hl_polynomial(lam, params)
    value = hallittlewood.principal_specialization(hl)
    inverse = 1 / hallittlewood.principal_normalizer(lam, params)
    payload = {
        "lambda": list(lam),
        "expansion": [
            {"mu": list(mu), "coeff": str(hl.expansion[mu])}
            for mu in sorted(hl.expansion, key=lambda m: (sum(m), m))
        ],
        "norm": str(quadratic_norm(lam, params)),
        "principalSpecialization": {
            "value": str(value),
            "expected": str(inverse),
            "equal": value == inverse,
        },
    }
    ok = value == inverse
    if args.compare_macdonald:
        # orbit sums are a basis, so equal expansions are equal polynomials
        other = hallittlewood.macdonald_formula(lam, params)
        payload["equal"] = other.expansion == hl.expansion
        ok = ok and payload["equal"]
    rows = [{"mu": _joined(mu), "coeff": str(c)} for mu, c in hl.expansion.items()]
    return payload, rows, EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_orthogonality(args, params) -> tuple[dict, list]:
    """The Gram matrix of the basis against the quadratic norms; ``norms``
    checks its diagonal alone."""
    m, tol, entries, ok = torus.verify_orthogonality(
        args.n, args.max_part, params, args.quad_points, args.suite == "norms"
    )
    pairs = [
        {"lambda": list(lam), "mu": list(mu), "value": {"re": value.real, "im": value.imag},
         "expected": str(expected), "absErr": err}
        for lam, mu, value, expected, err in entries
    ]
    # the CSV columns: lambda, mu, re, im, expected, absErr
    rows = [
        {"lambda": _joined(p["lambda"]), "mu": _joined(p["mu"]), **p["value"],
         "expected": p["expected"], "absErr": p["absErr"]}
        for p in pairs
    ]
    payload = {"M": m, "tolerance": tol, "pairs": pairs, "pass": ok}
    return payload, rows


def _suite_pieri(args, params) -> tuple[dict, list]:
    """The recurrence residual of every state; a failing case adds
    ``nonzeroTerms`` and ``firstTerm``, the residual's largest orbit in
    (degree, lex) order, in the JSON alone."""
    cases = []
    for lam, residual in hallittlewood.verify_pieri(args.n, args.max_part, params).items():
        case = {"lambda": list(lam), "residual": "0", "pass": not residual}
        if residual:
            case["residual"] = "nonzero"
            mu, coeff = next(iter(residual.items()))
            case.update(nonzeroTerms=len(residual), firstTerm={"mu": list(mu), "coeff": str(coeff)})
        cases.append(case)
    ok = all(c["pass"] for c in cases)
    payload = {
        "maxPart": args.max_part,
        "mode": "exact",
        "maxResidual": "0" if ok else "nonzero",
        "pass": ok,
        "cases": cases,
    }
    rows = [{"lambda": _joined(c["lambda"]), "pass": c["pass"]} for c in cases]
    return payload, rows


def _suite_algebra(args, params) -> tuple[dict, list]:
    n, max_part = args.n, args.max_part
    relations, witness = qboson.verify_algebra(n, max_part, params, args.relation)
    reports = []
    for rid, result in relations.items():
        report = {
            "relation": f"com-{rid}",
            "n": n,
            "maxPart": max_part,
            "mode": "exact",
            "maxResidual": str(result.residual),
            "pass": result.residual == 0,
            "cases": result.cases,
        }
        if result.worst_case:
            report["worstCase"] = _mismatch_fields(result.worst_case)
        reports.append(report)
    # Boundary-pair witness: without the diagonal twist the (0, 1) exchange
    # relations fail in the full profile and hold in the reduced ones.  It
    # removes a particle from site 0 and one from site 1, so it cannot show
    # the failure below 2 particles or when no particle can sit at site 1.
    applicable = n >= 2 and max_part >= 1
    expect_failure = applicable and params.profile == "four"
    failed = witness.residual != 0
    witness_ok = failed == expect_failure
    witness_report = {
        "relation": "com-d1-untwisted",
        "maxResidual": str(witness.residual),
        "expectedFail": expect_failure,
        "failed": failed,
        "pass": witness_ok,
    }
    if not applicable:
        witness_report["applicable"] = False
    if not witness_ok and witness.worst_case:
        witness_report["worstCase"] = _mismatch_fields(witness.worst_case)
    payload = {
        "maxPart": max_part,
        "relations": reports,
        "untwistedBoundaryPair": witness_report,
        "pass": all(r["pass"] for r in reports) and witness_ok,
    }
    # the CSV keeps its columns; the worst case is in the JSON alone
    rows = [{key: value for key, value in r.items() if key != "worstCase"} for r in reports]
    return payload, rows


def _checks_report(max_part: int, results: dict) -> tuple[dict, list]:
    """The report of an exact suite of checks, by name, and its CSV rows,
    which keep the columns name, cases and pass; a failing check's
    ``firstFailure`` is in the JSON alone."""
    checks = []
    for name, result in results.items():
        checks.append({"name": name, "cases": result.cases, "pass": result.mismatch is None})
        if result.mismatch:
            checks[-1]["firstFailure"] = _mismatch_fields(result.mismatch)
    passed = all(c["pass"] for c in checks)
    rows = [{key: value for key, value in c.items() if key != "firstFailure"} for c in checks]
    return {"maxPart": max_part, "mode": "exact", "checks": checks, "pass": passed}, rows


def _mismatch_fields(mismatch: qboson.Mismatch) -> dict:
    """A failing comparison as JSON fields: its place, a state or site pair
    as a list, and its two sides, an exact value as a string and an image
    (state, value) of a delta function as fields, or null for zero."""
    fields = {key: list(v) if isinstance(v, tuple) else v for key, v in mismatch.where.items()}
    for key, side in mismatch.sides.items():
        if isinstance(side, tuple):
            side = {"state": list(side[0]), "value": str(side[1])}
        elif side is not None:
            side = str(side)
        fields[key] = side
    return fields


def _suite_adjoint(args, params) -> tuple[dict, list]:
    results = qboson.verify_adjoint(args.n, args.max_part, params)
    return _checks_report(args.max_part, dict(zip(("adjointness", "hamiltonian-symmetry"), results)))


def _suite_eigen(args, params) -> tuple[dict, list]:
    """The eigenvalue residual at 20 seeded xi; a failing case adds
    ``worstState``, the state of its largest residual, in the JSON alone."""
    cases = []
    for xi, residuals in qboson.verify_eigen(args.n, args.max_part, params, args.seed):
        worst = max(residuals, key=residuals.get)
        residual = residuals[worst]
        case = {"xi": list(xi), "maxResidual": residual, "pass": residual < qboson.EIGEN_TOLERANCE}
        if not case["pass"]:
            case["worstState"] = {"lambda": list(worst), "residual": residual}
        cases.append(case)
    payload = {
        "maxPart": args.max_part,
        "tolerance": qboson.EIGEN_TOLERANCE,
        "maxResidual": max(c["maxResidual"] for c in cases),
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }
    rows = [{"xi": ";".join(repr(x) for x in c["xi"]), "maxResidual": c["maxResidual"], "pass": c["pass"]} for c in cases]
    return payload, rows


def _suite_degeneration(args, params) -> tuple[dict, list]:
    return _checks_report(args.max_part, qboson.verify_degeneration(args.n, args.max_part, params))


def _suite_scattering(args, params) -> tuple[dict, list]:
    # each of the 100 samples takes up to n^2 factors
    factors = 100 * args.n**2
    what = f"{factors} scattering factors at n = {args.n}"
    budget.check(factors, what, {"n": args.n, "factors": factors})
    rng = random.Random(args.seed)
    tol = 1e-12
    worst = 0.0
    rows = []
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0)
        s, s0 = qboson.scattering_factors(x, params)
        err = max(abs(abs(s) - 1.0), abs(abs(s0) - 1.0))
        dim = rng.randint(1, max(1, args.n))
        xi = [rng.uniform(-10.0, 10.0) for _ in range(dim)]
        err = max(err, abs(abs(qboson.scattering_matrix(xi, params)) - 1.0))
        worst = max(worst, err)
        rows.append({"x": x, "err": err})
    s_zero, s0_zero = qboson.scattering_factors(0.0, params)
    anchors_ok = abs(s_zero - 1) < tol and abs(s0_zero - 1) < tol
    payload = {
        "tolerance": tol,
        "maxUnimodularityError": worst,
        "anchorsAtZero": anchors_ok,
        "pass": worst < tol and anchors_ok,
    }
    return payload, rows


#: Each suite returns (report, CSV rows); the report's "pass" is the verdict,
#: and ``_cmd_verify`` adds the fields every report shares.
SUITES = {
    "orthogonality": _suite_orthogonality,
    "norms": _suite_orthogonality,
    "pieri": _suite_pieri,
    "algebra": _suite_algebra,
    "adjoint": _suite_adjoint,
    "eigen": _suite_eigen,
    "degeneration": _suite_degeneration,
    "scattering": _suite_scattering,
}


def _cmd_verify(args) -> tuple[dict, list[dict], int]:
    params = _build_params(args)
    payload, rows = SUITES[args.suite](args, params)
    payload.update(suite=args.suite, n=args.n, params=params.to_json_dict(), seed=args.seed)
    return payload, rows, EXIT_OK if payload["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", help="coupling q as an exact rational string")
    for flag in ("t1", "t2", "t3", "t4"):
        parser.add_argument(f"--{flag}", help=f"boundary parameter {flag} (rational)")
    parser.add_argument(
        "--profile", choices=("four", "three", "two"), default="four",
        help="parameter profile (how many boundary couplings are nonzero)",
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _size(text: str) -> int:
    """argparse type of --n and --maxPart: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="octaboson",
        description="Exact hyperoctahedral Hall-Littlewood polynomials and "
        "verification suites for the boundary-deformed q-boson model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="build one polynomial and report it")
    poly.add_argument("--n", type=_size, required=True, help="number of variables")
    poly.add_argument(
        "--lambda", dest="lam", help="comma-separated partition, e.g. 2,1"
    )
    poly.add_argument(
        "--compare-macdonald",
        action="store_true",
        help="also build via the two-parameter classical formula and compare",
    )
    _add_param_flags(poly)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--n", type=_size, default=2)
    verify.add_argument("--maxPart", dest="max_part", type=_size, default=3)
    verify.add_argument(
        "--M", dest="quad_points", type=int,
        help="quadrature nodes per angle (default: the smallest multiple of 8 "
        "whose aliasing bound meets the tolerance)",
    )
    verify.add_argument("--relation", help="restrict the algebra suite, e.g. com-d1")
    verify.add_argument("--seed", type=int, default=0)
    _add_param_flags(verify)

    return parser


#: Built once, at import: parsing reads the parser and never changes it.
PARSER = build_parser()


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--t2 -1/4`` as ``--t2=-1/4``: argparse reads a separated
    value that starts with '-' and is not a plain number as an option."""
    out: list[str] = []
    for token in argv:
        negative = token.startswith("-") and _RATIONAL_RE.match(token)
        if out and out[-1] in _PARAM_FLAGS and negative:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = PARSER.parse_args(_join_negative_values(argv))
    except UsageError as exc:
        _emit(_error("usage", str(exc)), argparse.Namespace(format="json", out=None))
        return EXIT_FAIL
    try:
        for flag in ("out", "relation"):  # empty would read as absent
            if getattr(args, flag, None) == "":
                raise ValueError(f"--{flag} must not be empty")
        command = _cmd_poly if args.command == "poly" else _cmd_verify
        payload, rows, code = command(args)
        return code if _emit(payload, args, rows) else EXIT_FAIL
    except ValueError as exc:
        payload, code = _error("parameter", str(exc)), EXIT_FAIL
    except hallittlewood.InvariantError as exc:
        evidence = {"lambda": list(exc.lam), "mu": list(exc.mu)}
        payload, code = _error("internal-invariant", str(exc), evidence), EXIT_INTERNAL
    except budget.BudgetExceededError as exc:
        payload, code = _error("budget", str(exc), exc.evidence), EXIT_BUDGET
    except Exception as exc:
        # any other exception is a fault of the program, not of the input
        traceback.print_exc()
        payload, code = _error("internal", str(exc), {"exception": type(exc).__name__}), EXIT_INTERNAL
    return code if _emit(payload, args) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
