"""Hyperoctahedral Hall-Littlewood polynomials by two independent routes.

The primary route is exact.  Summing the plane-wave coefficient over the
hyperoctahedral group and dividing by the type-C Weyl denominator is, by the
Weyl character formula, a signed sum of Sp(2n) characters: every term x^e of
x^{-lam-rho} times the integer seed block is straightened into the dominant
chamber (dropped when it is fixed by a reflection), all rows of the seed's
exponent matrix at once in numpy, and each character is expanded in orbit
sums by Freudenthal's multiplicity formula with every division checked to
be exact.  The orbit sum over all 2^n n! group elements followed by exact
binomial division gives the same polynomials and is kept in the test suite
as an oracle, as is the row-at-a-time straightening.  The secondary route
orthogonalizes the monomial basis numerically against the torus inner
product and is used only as a cross check.  A third construction, valid when t_3 = t_4 = 0, uses the
classical lambda-independent coefficient and is compared against the
primary route as an exact polynomial identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import budget, torus
from .laurent import LaurentPoly, NotDivisibleError
from .partitions import (
    is_partition,
    lower_set,
    multiplicity,
    orbit,
    positive_roots,
    unit_steps,
    weyl_vector,
)
from .qkernels import (
    ParamSet,
    monic_normalizer,
    pieri_coeff,
    principal_normalizer,
    quadratic_norm,
    tau_vector,
)

#: Exact construction is kept at desk scale: its cost follows the seed block,
#: about 11,000 terms at n = 4 and 270,000 at n = 5.
MAX_VARIABLES = 4


class ConditioningError(RuntimeError):
    """The Gram system of the numerical route is too ill-conditioned."""


class InvariantError(RuntimeError):
    """A constructed polynomial is not monic or leaves its lower set.

    lam is the partition being built and mu the offending expansion index.
    """

    def __init__(self, message: str, lam: tuple[int, ...], mu: tuple[int, ...]):
        super().__init__(message)
        self.lam = lam
        self.mu = mu


@dataclass(frozen=True)
class HLPolynomial:
    """A constructed polynomial: its orbit-sum expansion and norm.

    The expansion is the construction's result; the Laurent polynomial
    ``poly`` is rebuilt from it on first read (one pass over the orbits)
    and kept, so a caller that reads only the expansion never pays for it.
    """

    lam: tuple[int, ...]
    expansion: Mapping[tuple[int, ...], Fraction]
    norm: Fraction
    params: ParamSet

    @cached_property
    def poly(self) -> LaurentPoly:
        return reconstruct_from_expansion(self.expansion, len(self.lam))


def monomial_symmetric(lam: tuple[int, ...]) -> LaurentPoly:
    """Orbit sum m_lam = sum of x^mu over the signed-permutation orbit."""
    lam = tuple(lam)
    return LaurentPoly(len(lam), {mu: Fraction(1) for mu in orbit(lam)})


def expand_in_monomials(p: LaurentPoly) -> dict[tuple[int, ...], Fraction]:
    """Expansion of an invariant polynomial in the orbit-sum basis.

    Each signed-permutation orbit holds exactly one dominant exponent, so
    the expansion is p's coefficients at its dominant exponents, keyed in
    decreasing (degree, lex) order; p is invariant exactly when their orbit
    sums rebuild it.
    """
    dominant = sorted(filter(is_partition, p.terms), key=lambda e: (sum(e), e), reverse=True)
    out = {mu: p.terms[mu] for mu in dominant}
    if reconstruct_from_expansion(out, p.nvars) != p:
        raise ValueError("polynomial is not invariant under the group action")
    return out


def reconstruct_from_expansion(
    expansion: Mapping[tuple[int, ...], Fraction], n: int
) -> LaurentPoly:
    """Inverse of expand_in_monomials; orbits of distinct dominant weights
    are disjoint, so each term is written once."""
    return LaurentPoly(
        n, {e: coeff for mu, coeff in expansion.items() for e in orbit(tuple(mu))}
    )


def _finalize(
    lam: tuple[int, ...], expansion: dict[tuple[int, ...], Fraction], params: ParamSet
) -> HLPolynomial:
    if expansion.get(lam) != 1:
        raise InvariantError(
            f"constructed polynomial for {lam} is not monic: "
            f"coefficient {expansion.get(lam, 0)} at {lam}",
            lam,
            lam,
        )
    down = set(lower_set(lam))
    for mu in expansion:
        if mu not in down:
            raise InvariantError(
                f"expansion of {lam} has support {mu} outside the lower set", lam, mu
            )
    return HLPolynomial(
        lam=lam, expansion=expansion, norm=quadratic_norm(lam, params), params=params
    )


#: (exponents, coefficients, denominator): the (S, n) int64 exponent matrix,
#: read-only, and the S integer coefficients of its rows over one common
#: denominator.
IntegerSeed = tuple[np.ndarray, tuple[int, ...], int]
Binomials = Sequence[tuple[Fraction, tuple[int, ...]]]

#: Exponent keys and exponents are int64 in the straightening.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _exponent_box(n: int, binomials: Binomials) -> tuple[list[int], list[int]]:
    """(lo, size) per coordinate: every exponent of every partial product
    of the binomials lies in lo_i <= e_i < lo_i + size_i, with lo_i the sum
    of min(0, e_i) and lo_i + size_i - 1 the sum of max(0, e_i)."""
    lo = [sum(min(0, exp[i]) for _, exp in binomials) for i in range(n)]
    hi = [sum(max(0, exp[i]) for _, exp in binomials) for i in range(n)]
    return lo, [h - l + 1 for l, h in zip(lo, hi)]


def _check_box(n: int, size: Sequence[int]) -> None:
    terms = math.prod(size)
    evidence = {"n": n, "terms": terms}
    budget.check(terms, f"seed block of n = {n} may hold {terms} terms", evidence)
    # only a raised budget gets here with a box whose keys overflow int64
    if terms > _INT64_MAX:
        raise budget.BudgetExceededError(
            f"seed block of n = {n} may hold {terms} terms, beyond the int64 "
            f"exponent keys of the straightening",
            {**evidence, "budget": budget.node_budget()},
        )


def _binomial_product(n: int, binomials: Binomials) -> IntegerSeed:
    """prod (1 - c x^e) over the (c, e) pairs, as integer terms over the
    common denominator prod b, where c = a/b in lowest terms.

    Exponents are packed into one int each, in mixed radix over the
    exponent box of the binomials: key = sum (e_i - lo_i) stride_i.  A
    factor x^e then adds the one int sum e_i stride_i to a key, and since
    every partial product stays inside the box, no key wraps.  The box
    size bounds every partial product, so it is checked against the node
    budget (and the int64 range) before the first factor; the surviving
    keys are decoded once, at the end, into the rows of the exponent
    matrix by one vectorized divmod by the strides.
    """
    lo, size = _exponent_box(n, binomials)
    _check_box(n, size)
    strides = [math.prod(size[i + 1 :]) for i in range(n)]
    acc = {-sum(l * s for l, s in zip(lo, strides)): 1}
    denominator = 1
    for c, exp in binomials:
        a, b = c.numerator, c.denominator
        step = sum(e * s for e, s in zip(exp, strides))
        product = dict(acc) if b == 1 else {key: b * v for key, v in acc.items()}
        for key, v in acc.items():
            key += step
            new = product.get(key, 0) - a * v
            if new:
                product[key] = new
            else:
                product.pop(key, None)
        acc = product
        denominator *= b
    keys = np.fromiter(acc, dtype=np.int64, count=len(acc))
    digits = keys[:, None] // np.array(strides, dtype=np.int64) % np.array(size, dtype=np.int64)
    exponents = digits + np.array(lo, dtype=np.int64)
    exponents.flags.writeable = False
    return exponents, tuple(acc.values()), denominator


def _seed_binomials(n: int, zero_count: int, params: ParamSet) -> list:
    """(1 - q x^beta) on the short roots beta, and on each long root 2 e_j
    the boundary factors (1 - t_r x_j) if part j is positive, the top-up
    (1 - x_j^2) if it is zero."""
    binomials = []
    for beta in positive_roots(n):
        if 2 not in beta:
            binomials.append((params.q, beta))
        elif beta.index(2) < n - zero_count:
            half = tuple(b // 2 for b in beta)
            binomials += [(t, half) for t in params.ts if t]
        else:
            binomials.append((Fraction(1), beta))
    return binomials


def check_budget(lams: Iterable[tuple[int, ...]], params: ParamSet) -> None:
    """Refuse, before any work, to build the polynomials of lams: a
    ValueError beyond MAX_VARIABLES parts, read off the first partition
    before the others (lams may be a costly generator), and a
    BudgetExceededError when the exponent box of a seed block they read, or
    Freudenthal's work for their largest part, exceeds the node budget.

    A cached block or polynomial skips ``_binomial_product``'s box check,
    so callers bound by the current budget call this first.  At profile two
    every block has one box, so the classical formula needs no check of its own.
    """
    parts = iter(lams)
    first = next(parts, ())
    n = len(first)
    _check_variables(n)
    lams = [first, *parts]
    for zero_count in sorted({multiplicity(lam, 0) for lam in lams}):
        _check_box(n, _exponent_box(n, _seed_binomials(n, zero_count, params))[1])
    # Freudenthal's work grows with the parts: C(n + max_part, n) dominant
    # weights, times n^2 positive roots, times max_part, the longest root string
    max_part = max(max(lam, default=0) for lam in lams)
    terms = math.comb(n + max_part, n) * n * n * max_part
    what = f"Freudenthal's sum for parts up to {max_part} at n = {n} may take {terms} steps"
    budget.check(terms, what, {"n": n, "terms": terms})


#: One suite needs the n + 1 blocks of one parameter point (zero counts
#: 0..n); the bound stops parameter sweeps from growing memory.
@lru_cache(maxsize=16)
def _seed_block(n: int, zero_count: int, params: ParamSet) -> IntegerSeed:
    """Numerator block shared by all partitions with the same number of
    zero parts: the product of ``_seed_binomials``."""
    return _binomial_product(n, _seed_binomials(n, zero_count, params))


def _straighten(
    exponents: np.ndarray, coefficients: Sequence[int], shift: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """c_mu with A(x^{-shift} g) = sum_mu c_mu A(x^{mu + rho}) for the
    alternant A(x^e) = sum_w det(w) x^{w e} and g = sum of the rows of the
    (S, n) exponent matrix times their coefficients.

    For all rows at once in numpy, each shifted exponent is sorted by
    absolute value into the dominant chamber; the sign is
    (-1)^(negative entries) times the sign of the sort, whose parity is the
    number of pairs i < j with |e_i| < |e_j|.  An exponent with a zero entry or a repeated absolute
    value is fixed by a reflection, so its alternant vanishes and its row
    is dropped.  Only the surviving rows come back to Python, where their
    integer coefficients are summed exactly; a mu whose contributions
    cancel is kept with coefficient 0.
    """
    n = len(shift)
    bound = _INT64_MAX - int(np.abs(exponents).max(initial=0))
    if any(abs(s) > bound for s in shift):
        raise ValueError(f"shift {tuple(shift)} is beyond the int64 exponents")
    e = exponents - np.array(shift, dtype=np.int64)
    a = np.abs(e)
    dom = -np.sort(-a, axis=1)
    rows = np.flatnonzero((a > 0).all(axis=1) & (dom[:, :-1] > dom[:, 1:]).all(axis=1))
    e, a = e[rows], a[rows]
    upper, lower = np.triu_indices(n, 1)
    odd = ((e < 0).sum(axis=1) + (a[:, upper] < a[:, lower]).sum(axis=1)) % 2
    mus = (dom[rows] - np.array(weyl_vector(n), dtype=np.int64)).tolist()
    out: dict[tuple[int, ...], int] = {}
    for row, mu, flip in zip(rows.tolist(), mus, odd.tolist()):
        mu = tuple(mu)
        coeff = coefficients[row]
        out[mu] = out.get(mu, 0) + (-coeff if flip else coeff)
    return out


#: Keyed by the weight alone, so parameter sweeps share the entries; one
#: suite reads at most 55 (``verify eigen --n 4``).
@lru_cache(maxsize=1024)
def character_multiplicities(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Orbit-sum expansion of the irreducible Sp(2n) character chi_mu.

    Returns (nu, K_mu_nu) pairs with chi_mu = sum K_mu_nu m_nu over the
    dominant weights nu <= mu with |mu| - |nu| even, highest first.  The
    multiplicities come from Freudenthal's formula
        (|mu + rho|^2 - |nu + rho|^2) K_nu
            = 2 sum_{alpha > 0} sum_{k >= 1} K_{nu + k alpha} <nu + k alpha, alpha>
    in integers, with K constant on group orbits; a division that does not
    go through raises NotDivisibleError naming the character, the weight,
    the numerator and the divisor.
    """
    n = len(mu)
    rho = weyl_vector(n)

    def norm_shifted(nu: tuple[int, ...]) -> int:
        return sum((x + r) ** 2 for x, r in zip(nu, rho))

    weights = sorted(
        (nu for nu in lower_set(mu) if (sum(mu) - sum(nu)) % 2 == 0),
        key=lambda nu: -sum(x * r for x, r in zip(nu, rho)),
    )
    roots = positive_roots(n)
    top = norm_shifted(mu)
    mult = {mu: 1}
    for nu in weights:
        if nu == mu:
            continue
        total = 0
        for alpha in roots:
            # the alpha-string through a weight is unbroken, so the first
            # step outside the weights ends it
            k = 1
            while True:
                x = [v + k * a for v, a in zip(nu, alpha)]
                m = mult.get(tuple(sorted(map(abs, x), reverse=True)))
                if m is None:
                    break
                total += m * sum(v * a for v, a in zip(x, alpha))
                k += 1
        gap = top - norm_shifted(nu)
        value, remainder = divmod(2 * total, gap)
        if remainder:
            raise NotDivisibleError(
                f"Freudenthal step for chi_{mu} at weight {nu}: "
                f"{2 * total} is not divisible by {gap}",
                evidence={
                    "character": list(mu),
                    "weight": list(nu),
                    "numerator": 2 * total,
                    "divisor": gap,
                },
            )
        mult[nu] = value
    return tuple((nu, mult[nu]) for nu in weights if mult[nu])


def _straightened_expansion(
    lam: tuple[int, ...], seed: IntegerSeed, scale: Fraction
) -> dict[tuple[int, ...], Fraction]:
    """Orbit-sum expansion of scale * sum_w w(x^{-lam} g / D), g the seed
    and D the product of (1 - x^alpha) over positive roots.

    Since D = (-1)^{n^2} x^rho A(x^rho), the sum is
    (-1)^{n^2} A(x^{-lam-rho} g) / A(x^rho) = (-1)^{n^2} sum_mu c_mu chi_mu.
    Keys are in decreasing (degree, lex) order.
    """
    exponents, coefficients, denominator = seed
    n = len(lam)
    shift = [p + r for p, r in zip(lam, weyl_vector(n))]
    coeffs = _straighten(exponents, coefficients, shift)
    totals: dict[tuple[int, ...], int] = {}
    for mu, c in coeffs.items():
        if c:
            for nu, k in character_multiplicities(mu):
                totals[nu] = totals.get(nu, 0) + c * k
    factor = (-1) ** (n * n) * scale / denominator
    return {
        nu: factor * totals[nu]
        for nu in sorted(totals, key=lambda e: (sum(e), e), reverse=True)
        if totals[nu]
    }


def _checked_partition(lam: Sequence[int]) -> tuple[int, ...]:
    """lam as a tuple, once it is a partition within MAX_VARIABLES parts."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    _check_variables(len(lam))
    return lam


def _check_variables(n: int) -> None:
    if n > MAX_VARIABLES:
        raise ValueError(f"exact construction supports at most {MAX_VARIABLES} variables")


#: The most polynomials one suite builds is 55 (``verify eigen --n 4``:
#: its states and their unit-step neighbours; 30 at n = 3 and 20 for
#: ``verify orthogonality --n 3 --maxPart 3``).  The bound stops parameter
#: sweeps from growing memory.
@lru_cache(maxsize=128)
def hl_polynomial(lam: tuple[int, ...], params: ParamSet) -> HLPolynomial:
    """Primary exact construction by straightening into Sp(2n) characters.

    The plane-wave coefficient times x^{-lam} is put over the full Weyl-type
    denominator (missing (1 - x_j^2) factors for zero parts are topped up in
    the numerator), summed over the group, and scaled monic.
    """
    lam = _checked_partition(lam)
    seed = _seed_block(len(lam), multiplicity(lam, 0), params)
    expansion = _straightened_expansion(lam, seed, 1 / monic_normalizer(lam, params))
    return _finalize(lam, expansion, params)


@lru_cache(maxsize=128)
def macdonald_formula(lam: tuple[int, ...], params: ParamSet) -> HLPolynomial:
    """Classical two-parameter construction (requires t_3 = t_4 = 0).

    Uses the lambda-independent plane-wave coefficient, whose denominator
    carries (1 - x_j^2) for every j, and scales by the quadratic norm
    instead of the monic normalizer.  With t_3 = t_4 = 0 its numerator is
    the seed block without zero parts, so both constructions share it.
    """
    if params.profile != "two":
        raise ValueError("the classical formula requires the two-parameter profile")
    lam = _checked_partition(lam)
    seed = _seed_block(len(lam), 0, params)
    expansion = _straightened_expansion(lam, seed, quadratic_norm(lam, params))
    return _finalize(lam, expansion, params)


def normalized_polynomial(hl: HLPolynomial) -> LaurentPoly:
    """The principally normalized family member c_lam * p_lam."""
    return principal_normalizer(hl.lam, hl.params) * hl.poly


def principal_specialization(hl: HLPolynomial) -> Fraction:
    """Exact value of the polynomial at x_j = q^{n-j} t_1.

    Contract: equals 1 / principal_normalizer (verified by the test suite;
    evaluation is algebraic, so any nonzero rational t_1 is admissible).

    At tau_j = q^{n-1-j} t_1 the monomial x^e is t_1^{|e|} q^{<e, delta>}
    with delta = (n-1, ..., 0).  The expansion's coefficients, scaled to
    integers over their lcm L, are added over each orbit into a table
    T[(|e|, <e, delta>)].  Orbits are closed under e -> -e, so with
    A = max |e| and B = max |<e, delta>|, and q = q_n/q_d, t_1 = t_n/t_d,
    the value is
        sum T[a, b] t_n^{A+a} t_d^{A-a} q_n^{B+b} q_d^{B-b}
            / (L (t_n t_d)^A (q_n q_d)^B),
    all in integers up to the one final Fraction.
    """
    n = len(hl.lam)
    delta = range(n - 1, -1, -1)
    common = math.lcm(*(c.denominator for c in hl.expansion.values()))
    table: dict[tuple[int, int], int] = {}
    for mu, coeff in hl.expansion.items():
        scaled = coeff.numerator * (common // coeff.denominator)
        counts: dict[tuple[int, int], int] = {}
        for e in orbit(mu):
            key = (sum(e), sum(map(operator.mul, e, delta)))
            counts[key] = counts.get(key, 0) + 1
        for key, count in counts.items():
            table[key] = table.get(key, 0) + scaled * count
    top_a = max(abs(a) for a, _ in table)
    top_b = max(abs(b) for _, b in table)
    qn, qd = hl.params.q.numerator, hl.params.q.denominator
    tn, td = hl.params.ts[0].numerator, hl.params.ts[0].denominator
    t_powers = {a: tn ** (top_a + a) * td ** (top_a - a) for a in range(-top_a, top_a + 1)}
    q_powers = {b: qn ** (top_b + b) * qd ** (top_b - b) for b in range(-top_b, top_b + 1)}
    numerator = sum(v * t_powers[a] * q_powers[b] for (a, b), v in table.items())
    return Fraction(numerator, common * (tn * td) ** top_a * (qn * qd) ** top_b)


def pieri_residual(lam: tuple[int, ...], params: ParamSet) -> LaurentPoly:
    """Left side minus right side of the lattice recurrence; contract: zero.

    LHS: P_lam * (sum_j (x_j + 1/x_j) - sum_j (tau_j + 1/tau_j)).
    RHS: sum over valid steps of the step coefficient times
    (P_{lam +- e_j} - P_lam).
    """
    lam = tuple(lam)
    n = len(lam)
    base = hl_polynomial(lam, params)
    p_base = normalized_polynomial(base)

    spectral = sum(
        (LaurentPoly.variable(n, j) + LaurentPoly.variable(n, j, -1) for j in range(n)),
        LaurentPoly.zero(n),
    )
    tau = tau_vector(n, params)
    offset = sum((tj + 1 / tj for tj in tau), Fraction(0))
    lhs = p_base * spectral - offset * p_base

    rhs = LaurentPoly.zero(n)
    for j, step, target in unit_steps(lam):
        coeff = pieri_coeff(lam, j, step, params)
        neighbor = normalized_polynomial(hl_polynomial(target, params))
        rhs = rhs + coeff * (neighbor - p_base)
    return lhs - rhs


def hl_gram_schmidt(
    lam: tuple[int, ...],
    params: ParamSet,
    quad: "torus.QuadratureSpec",
) -> dict[tuple[int, ...], float]:
    """Numerical construction: solve for the triangular expansion whose
    projections onto every strictly smaller orbit sum vanish.

    One linear system per partition (the order is partial, so a sequential
    sweep is not even well defined); the system matrix is the Gram matrix
    of the lower-set orbit sums under the torus inner product.
    """
    lam = tuple(lam)
    support = lower_set(lam)
    if len(support) == 1:
        return {lam: 1.0}
    basis = [monomial_symmetric(mu) for mu in support]
    gram = torus.gram_matrix(basis, params, quad).real
    idx = support.index(lam)
    others = [i for i in range(len(support)) if i != idx]
    sub = gram[np.ix_(others, others)]
    condition = np.linalg.cond(sub)
    if condition > 1e12:
        raise ConditioningError(f"Gram system condition {condition:.3e} exceeds 1e12")
    rhs = -gram[others, idx]
    coeffs = np.linalg.solve(sub, rhs)
    result = {support[i]: float(c) for i, c in zip(others, coeffs)}
    result[lam] = 1.0
    return result
