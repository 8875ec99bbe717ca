"""Command-line front end: build polynomials, run verification suites,
emit JSON/CSV reports.

Exit codes: 0 all checks passed (and --help); 1 failed check, parameter/guard
violation or command-line usage error (with machine-readable error JSON,
type "usage" for the last); 2 internal failure, either an
exact division that did not go through or a constructed polynomial that is
not monic or leaves its lower set (the error JSON names lambda and the
offending mu); 3 resource budget exceeded (for a quadrature grid the error
JSON names the M it needs, for a seed block the terms its exponent box can
hold).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
from fractions import Fraction

from . import budget, hallittlewood, qboson, torus
from .laurent import NotDivisibleError
from .partitions import enumerate_partitions, raise_indices, unit_steps
from .qboson import LatticeFunction
from .qkernels import (
    DEFAULT_POINTS,
    GenericityError,
    ParamSet,
    boundary_potential,
    hop_coeff,
    hop_up_three,
    hop_up_two,
    norm_three,
    norm_two,
    potential_three,
    potential_two,
    quadratic_norm,
)

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
        raise GenericityError(
            f"{flag} must be an exact rational like '1/2' or '-3'; got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise GenericityError(f"{flag} has a zero denominator; got {text!r}") from None


def _build_params(args) -> ParamSet:
    default_q, default_ts = DEFAULT_POINTS[args.profile]
    q = _parse_rational(args.q, "--q") if args.q else default_q
    ts = []
    for idx, flag in enumerate(("t1", "t2", "t3", "t4")):
        raw = getattr(args, flag)
        ts.append(_parse_rational(raw, f"--{flag}") if raw else default_ts[idx])
    return ParamSet(q=q, ts=tuple(ts), profile=args.profile)


def _emit(payload: dict, args, rows: list[dict] | None = None) -> None:
    """Write the report; CSV uses the flattened per-case rows."""
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(kind: str, message: str, args, evidence: dict | None = None) -> None:
    _emit({"error": {"type": kind, "message": message, **(evidence or {})}}, args)


def _with_neighbours(lams):
    """lams, then their unit-step neighbours, lazily: ``check_budget`` reads
    the first partition's length before any step is taken."""
    yield from lams
    for lam in lams:
        for _, _, target in unit_steps(lam):
            yield target


# ---------------------------------------------------------------------------
# poly command
# ---------------------------------------------------------------------------


def _cmd_poly(args) -> int:
    params = _build_params(args)
    lam = tuple(int(p) for p in args.lam.split(",")) if args.lam else (0,) * args.n
    if len(lam) != args.n:
        raise GenericityError(f"--lambda has {len(lam)} parts but --n is {args.n}")
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
        "norm": str(hl.norm),
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
    rows = [{"mu": ",".join(map(str, mu)), "coeff": str(c)} for mu, c in hl.expansion.items()]
    _emit(payload, args, rows)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_orthogonality(args, params) -> tuple[dict, list]:
    """The Gram matrix of the basis against the quadratic norms; ``norms``
    checks its diagonal alone."""
    n, max_part = args.n, args.max_part
    diagonal_only = args.suite == "norms"
    params.ensure_generic(n, max_part)
    tol = 1e-8 if n <= 2 else 1e-6
    # an explicit grid is checked against the budget before any construction
    quad = None if args.quad_points is None else torus.QuadratureSpec(args.quad_points, n)
    lams = enumerate_partitions(n, max_part)
    hallittlewood.check_budget(lams, params)
    polys = [hallittlewood.hl_polynomial(lam, params).poly for lam in lams]
    if quad is None:
        quad = torus.QuadratureSpec(torus.choose_points(polys, params, tol), n)
    gram = torus.gram_matrix(polys, params, quad)
    pairs = []
    rows = []
    ok = True
    for i, lam in enumerate(lams):
        for j, mu in enumerate(lams[i:], start=i):
            if diagonal_only and mu != lam:
                continue
            value = complex(gram[i, j])
            if lam == mu:
                expected = quadratic_norm(lam, params)
                err = abs(value - float(expected))
                bound = tol * (1 + abs(float(expected)))
                expected_str = str(expected)
            else:
                err = abs(value)
                bound = tol
                expected_str = "0"
            ok = ok and err < bound
            entry = {
                "lambda": list(lam),
                "mu": list(mu),
                "value": {"re": value.real, "im": value.imag},
                "expected": expected_str,
                "absErr": err,
            }
            pairs.append(entry)
            rows.append(
                {
                    "lambda": ",".join(map(str, lam)),
                    "mu": ",".join(map(str, mu)),
                    "re": value.real,
                    "im": value.imag,
                    "expected": expected_str,
                    "absErr": err,
                }
            )
    payload = {
        "suite": args.suite,
        "n": n,
        "M": quad.points_per_dim,
        "tolerance": tol,
        "pairs": pairs,
        "pass": ok,
    }
    return payload, rows


def _suite_pieri(args, params) -> tuple[dict, list]:
    n, max_part = args.n, args.max_part
    params.ensure_generic(n, max_part + 1)
    lams = enumerate_partitions(n, max_part)
    hallittlewood.check_budget(_with_neighbours(lams), params)
    cases = []
    for lam in lams:
        good = hallittlewood.pieri_residual(lam, params).is_zero
        cases.append(
            {"lambda": list(lam), "residual": "0" if good else "nonzero", "pass": good}
        )
    ok = all(c["pass"] for c in cases)
    payload = {
        "suite": "pieri",
        "n": n,
        "maxPart": max_part,
        "mode": "exact",
        "maxResidual": "0" if ok else "nonzero",
        "pass": ok,
        "cases": cases,
    }
    rows = [{"lambda": ",".join(map(str, c["lambda"])), "pass": c["pass"]} for c in cases]
    return payload, rows


def _relation_filter(requested: str | None) -> list[str]:
    if not requested:
        return list(qboson.RELATION_IDS)
    name = requested.removeprefix("com-")
    matches = [rid for rid in qboson.RELATION_IDS if rid == name or rid.startswith(name)]
    if not matches:
        raise GenericityError(f"unknown relation {requested!r}")
    return matches


def _suite_algebra(args, params) -> tuple[dict, list]:
    n, max_part = args.n, args.max_part
    params.ensure_generic(n, max_part + 2)
    relations = _relation_filter(args.relation)
    site_max = 5
    reports = []
    for rid in relations:
        if rid in qboson.EXCHANGE_RELATIONS:
            site_pairs = [(l, k) for l in range(site_max) for k in range(l + 1, site_max + 1)]
        else:
            site_pairs = [(l, k) for l in range(site_max + 1) for k in range(site_max + 1)]
        # a single-site relation is checked once per l; every pair still
        # counts its cases, since its statement at (l, k) is the one at l
        if rid in qboson.SINGLE_SITE_RELATIONS:
            site_pairs = [(l, 0) for l, _ in site_pairs]
        residuals = {
            pair: qboson.verify_relation(rid, *pair, n, max_part, params)
            for pair in dict.fromkeys(site_pairs)
        }
        checks = [residuals[pair] for pair in site_pairs]
        worst = max(check.residual for check in checks)
        reports.append(
            {
                "relation": f"com-{rid}",
                "n": n,
                "maxPart": max_part,
                "mode": "exact",
                "maxResidual": str(worst),
                "pass": worst == 0,
                "cases": sum(check.cases for check in checks),
            }
        )
    # Boundary-pair witness: without the diagonal twist the (0, 1) exchange
    # relations fail in the full profile and hold in the reduced ones.  It
    # removes a particle from site 0 and one from site 1, so it cannot show
    # the failure below 2 particles or when no particle can sit at site 1.
    witness = qboson.verify_relation("d1", 0, 1, n, max_part, params, twisted=False)
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
    payload = {
        "suite": "algebra",
        "n": n,
        "maxPart": max_part,
        "relations": reports,
        "untwistedBoundaryPair": witness_report,
        "pass": all(r["pass"] for r in reports) and witness_ok,
    }
    return payload, reports


def _pairing(f: LatticeFunction, g: LatticeFunction, params) -> object:
    """<f, g>, taken only where the supports meet; elsewhere it is 0, the
    empty sum ``sector_inner_product`` would return."""
    if f.values.keys().isdisjoint(g.values.keys()):
        return 0
    return qboson.sector_inner_product(f, g, params)


def _suite_adjoint(args, params) -> tuple[dict, list]:
    n, max_part = args.n, args.max_part
    params.ensure_generic(n + 1, max_part + 1)
    # one delta function per state of sectors 0..n
    deltas = [
        {mu: LatticeFunction.delta(mu) for mu in enumerate_partitions(sector, max_part)}
        for sector in range(n + 1)
    ]
    checks = []
    # adjointness between consecutive sectors
    adjoint_cases = 0
    adjoint_ok = True
    for lower, upper in zip(deltas, deltas[1:]):
        for l in range(max_part + 1):
            created = [(f, qboson.create(l, f, params)) for f in lower.values()]
            for g in upper.values():
                annihilated = qboson.annihilate(l, g, params)
                for f, created_f in created:
                    lhs = _pairing(created_f, g, params)
                    rhs = _pairing(f, annihilated, params)
                    adjoint_ok = adjoint_ok and lhs == rhs
                    adjoint_cases += 1
    checks.append({"name": "adjointness", "cases": adjoint_cases, "pass": adjoint_ok})
    # symmetry of the Hamiltonian in each sector
    sym_cases = 0
    sym_ok = True
    for sector in deltas[1:]:
        images = {lam: qboson.apply_hamiltonian(f, params) for lam, f in sector.items()}
        for lam, f in sector.items():
            for mu, g in sector.items():
                lhs = _pairing(images[lam], g, params)
                rhs = _pairing(f, images[mu], params)
                sym_ok = sym_ok and lhs == rhs
                sym_cases += 1
    checks.append({"name": "hamiltonian-symmetry", "cases": sym_cases, "pass": sym_ok})
    payload = {
        "suite": "adjoint",
        "n": n,
        "maxPart": max_part,
        "mode": "exact",
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return payload, checks


def _suite_eigen(args, params) -> tuple[dict, list]:
    n, max_part = args.n, args.max_part
    params.ensure_generic(n, max_part + 1)
    rng = random.Random(args.seed)
    lams = enumerate_partitions(n, max_part)
    hallittlewood.check_budget(_with_neighbours(lams), params)
    cases = []
    for _ in range(20):
        xi = tuple(rng.uniform(0.0, 2 * 3.141592653589793) for _ in range(n))
        residual = qboson.eigen_residual(xi, lams, params)
        cases.append(
            {"xi": list(xi), "maxResidual": residual, "pass": residual < qboson.EIGEN_TOLERANCE}
        )
    payload = {
        "suite": "eigen",
        "n": n,
        "maxPart": max_part,
        "tolerance": qboson.EIGEN_TOLERANCE,
        "maxResidual": max(c["maxResidual"] for c in cases),
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }
    rows = [{"xi": ";".join(repr(x) for x in c["xi"]), "maxResidual": c["maxResidual"], "pass": c["pass"]} for c in cases]
    return payload, rows


def _suite_degeneration(args, params) -> tuple[dict, list]:
    n, max_part = args.n, args.max_part
    q, ts = params.q, params.ts
    checks = []

    def run(name: str, reduced: ParamSet, norm_red, hop_red, pot_red) -> None:
        # the runtime's general formulas at zeroed t_r against the reduced
        # closed forms, and the runtime operators against operators built
        # from those closed forms, on every basis state
        zts = reduced.ts
        good = True
        cases = 0
        for sector in range(n + 1):
            for lam in enumerate_partitions(sector, max_part):
                good = good and quadratic_norm(lam, reduced) == norm_red(lam, q, zts)
                cases += 1
                for j in raise_indices(lam):
                    good = good and hop_coeff(lam, j, +1, reduced) == hop_red(lam, j, q, zts)
                    cases += 1
                f = LatticeFunction.delta(lam)
                for l in range(max_part + 2):
                    created = qboson.reduced_create(l, f, reduced, hop_red)
                    # neither function stores a zero, so equal functions
                    # have equal values
                    good = good and qboson.create(l, f, reduced) == created
                    removed = qboson.reduced_annihilate(l, f)
                    good = good and qboson.annihilate(l, f, reduced) == removed
                    cases += 2
        for m0 in range(n + 1):
            for m1 in range(n + 1 - m0):
                good = good and boundary_potential(m0, m1, reduced) == pot_red(m0, m1, q, zts)
                cases += 1
        checks.append({"name": name, "cases": cases, "pass": good})

    # a two-profile point has t3 = 0 already, so only t3,t4 -> 0 applies
    if ts[2]:
        three = ParamSet(q=q, ts=(ts[0], ts[1], ts[2], Fraction(0)), profile="three")
        run("t4->0", three, norm_three, hop_up_three, potential_three)
    two = ParamSet(q=q, ts=(ts[0], ts[1], Fraction(0), Fraction(0)), profile="two")
    run("t3,t4->0", two, norm_two, hop_up_two, potential_two)
    payload = {
        "suite": "degeneration",
        "n": n,
        "maxPart": max_part,
        "mode": "exact",
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return payload, checks


def _suite_scattering(args, params) -> tuple[dict, list]:
    # each of the 100 samples takes up to n^2 factors
    factors = 100 * args.n**2
    what = f"{factors} scattering factors at n = {args.n}"
    budget.check(factors, what, {"n": args.n, "factors": factors})
    rng = random.Random(args.seed)
    tol = 1e-12
    worst = 0.0
    cases = []
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0)
        s, s0 = qboson.scattering_factors(x, params)
        err = max(abs(abs(s) - 1.0), abs(abs(s0) - 1.0))
        dim = rng.randint(1, max(1, args.n))
        xi = [rng.uniform(-10.0, 10.0) for _ in range(dim)]
        err = max(err, abs(abs(qboson.scattering_matrix(xi, params)) - 1.0))
        worst = max(worst, err)
        cases.append({"x": x, "err": err})
    s_zero, s0_zero = qboson.scattering_factors(0.0, params)
    anchors_ok = abs(s_zero - 1) < tol and abs(s0_zero - 1) < tol
    payload = {
        "suite": "scattering",
        "n": args.n,
        "tolerance": tol,
        "maxUnimodularityError": worst,
        "anchorsAtZero": anchors_ok,
        "pass": worst < tol and anchors_ok,
    }
    rows = [{"x": c["x"], "err": c["err"]} for c in cases]
    return payload, rows


#: Each suite returns (report, CSV rows); the report's "pass" is the verdict.
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


def _cmd_verify(args) -> int:
    params = _build_params(args)
    payload, rows = SUITES[args.suite](args, params)
    payload["params"] = params.to_json_dict()
    payload["seed"] = args.seed
    _emit(payload, args, rows)
    return EXIT_OK if payload["pass"] else EXIT_FAIL


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
        _emit_error("usage", str(exc), argparse.Namespace(format="json", out=None))
        return EXIT_FAIL
    try:
        if args.command == "poly":
            return _cmd_poly(args)
        return _cmd_verify(args)
    except (GenericityError, ValueError) as exc:
        _emit_error("parameter", str(exc), args)
        return EXIT_FAIL
    except NotDivisibleError as exc:
        _emit_error("internal-divisibility", str(exc), args, exc.evidence)
        return EXIT_INTERNAL
    except hallittlewood.InvariantError as exc:
        evidence = {"lambda": list(exc.lam), "mu": list(exc.mu)}
        _emit_error("internal-invariant", str(exc), args, evidence)
        return EXIT_INTERNAL
    except budget.BudgetExceededError as exc:
        _emit_error("budget", str(exc), args, exc.evidence)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
