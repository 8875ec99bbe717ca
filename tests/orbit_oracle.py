"""The construction by orbit sum and exact division, kept as a test oracle.

The library builds the polynomials by straightening into Sp(2n) characters.
This module builds them the original way: sum w(seed / D) over all 2^n n!
signed permutations w, with D the product of (1 - x^alpha) over the
positive roots, as one numerator over D, then divide by the n^2 binomials
exactly.  It is independent of the library's seed block, straightening and
orbit-expansion code, and costs |W| times the seed size, so it is used for
n <= 3.  Freudenthal's multiplicity formula, which the library used to
expand each Sp(2n) character, is kept here too, as the oracle of that
expansion, and so is the numerical route: Gram-Schmidt orthogonalization of
the orbit sums against the torus inner product, the cross check of the
exact construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from octaboson import torus
from octaboson.hallittlewood import HLPolynomial, expand_in_monomials, hl_polynomial
from octaboson.laurent import LaurentPoly, NotDivisibleError, div_binomial_exact
from octaboson.partitions import (
    hyperoctahedral_group,
    lower_set,
    orbit,
    positive_roots,
    unit_steps,
    weyl_vector,
)
from octaboson.qkernels import (
    ParamSet,
    monic_normalizer,
    pieri_coeff,
    principal_normalizer,
    quadratic_norm,
    tau_vector,
)


@dataclass(frozen=True)
class CFactorization:
    """Numerator polynomial and binomial denominator factors of the
    plane-wave coefficient, kept factored so the orbit sum can be put over
    a common denominator without rational-function arithmetic."""

    numerator: LaurentPoly
    denominator_factors: tuple[LaurentPoly, ...]


def _one_minus_monomial(n: int, exp: Sequence[int]) -> LaurentPoly:
    return LaurentPoly(n, {(0,) * n: Fraction(1), tuple(exp): Fraction(-1)})


def wave_coefficient(lam: tuple[int, ...], params: ParamSet) -> CFactorization:
    """Factored coefficient of the plane wave e^{-i<lam, xi>} in the orbit sum.

    Numerator: prod_{j<k} (1 - q x_j/x_k)(1 - q x_j x_k) times, for every j
    with lam_j > 0, prod_r (1 - t_r x_j).  Denominator factors: the matching
    (1 - x_j/x_k), (1 - x_j x_k) and, for lam_j > 0, (1 - x_j^2).
    """
    lam = tuple(lam)
    n = len(lam)
    q = params.q
    numerator = LaurentPoly.one(n)
    denominator: list[LaurentPoly] = []
    for j in range(n):
        for k in range(j + 1, n):
            for sign in (-1, 1):
                exp = [0] * n
                exp[j], exp[k] = 1, sign
                numerator = numerator * LaurentPoly(
                    n, {(0,) * n: Fraction(1), tuple(exp): -q}
                )
                denominator.append(_one_minus_monomial(n, exp))
    for j in range(n):
        if lam[j] > 0:
            for t in params.ts:
                exp = [0] * n
                exp[j] = 1
                numerator = numerator * LaurentPoly(
                    n, {(0,) * n: Fraction(1), tuple(exp): -t}
                )
            double = [0] * n
            double[j] = 2
            denominator.append(_one_minus_monomial(n, double))
    return CFactorization(numerator, tuple(denominator))


def denominator_cocycle(w, roots: Sequence[tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """sign and monomial shift with w(D) = sign * x^shift * D for the
    product D over positive roots of (1 - x^root)."""
    n = len(roots[0]) if roots else 0
    sign = 1
    shift = [0] * n
    for alpha in roots:
        image = w.apply(alpha)
        first = next((v for v in image if v != 0), 0)
        if first < 0:
            sign = -sign
            for i, v in enumerate(image):
                shift[i] += v
    return sign, tuple(shift)


def orbit_sum_over_denominator(seed: LaurentPoly, n: int) -> LaurentPoly:
    """Exact evaluation of sum over the group of w(seed / D).

    Each group image of D is sign * monomial * D, so the sum collapses to a
    single exact division of the accumulated numerator by the binomial
    factors; a nonzero remainder raises NotDivisibleError.  The numerator
    is accumulated in integers over the seed's common denominator.
    """
    roots = positive_roots(n)
    scale = math.lcm(*(c.denominator for c in seed.terms.values()))
    terms = [(exp, int(c * scale)) for exp, c in seed.terms.items()]
    acc: dict[tuple[int, ...], int] = {}
    for w in hyperoctahedral_group(n):
        sign, shift = denominator_cocycle(w, roots)
        for exp, coeff in terms:
            key = tuple(e - s for e, s in zip(w.apply(exp), shift))
            acc[key] = acc.get(key, 0) + sign * coeff
    result = LaurentPoly(n, {key: Fraction(v, scale) for key, v in acc.items()})
    for alpha in roots:
        result = div_binomial_exact(result, alpha)
    return result


def _binomial(n: int, exp: Sequence[int], c: Fraction) -> LaurentPoly:
    return LaurentPoly(n, {(0,) * n: Fraction(1), tuple(exp): -c})


@lru_cache(maxsize=None)
def _wave_seed(n: int, zero_count: int, params: ParamSet) -> LaurentPoly:
    """The plane-wave coefficient's numerator, which depends on lam only
    through its zero parts, times the (1 - x_j^2) factors its denominator
    lacks on those parts."""
    lam = (1,) * (n - zero_count) + (0,) * zero_count
    seed = wave_coefficient(lam, params).numerator
    for j in range(n - zero_count, n):
        double = [0] * n
        double[j] = 2
        seed = seed * _binomial(n, double, Fraction(1))
    return seed


@lru_cache(maxsize=None)
def _classical_seed(n: int, params: ParamSet) -> LaurentPoly:
    """Numerator of the lambda-independent two-parameter coefficient."""
    seed = LaurentPoly.one(n)
    for j in range(n):
        for k in range(j + 1, n):
            for sign in (-1, 1):
                exp = [0] * n
                exp[j], exp[k] = 1, sign
                seed = seed * _binomial(n, exp, params.q)
        for t in params.ts[:2]:
            exp = [0] * n
            exp[j] = 1
            seed = seed * _binomial(n, exp, t)
    return seed


def oracle_hl(lam: tuple[int, ...], params: ParamSet):
    """(poly, expansion) of the monic polynomial for lam."""
    n = len(lam)
    seed = _wave_seed(n, lam.count(0), params)
    summed = orbit_sum_over_denominator(seed.shift([-p for p in lam]), n)
    poly = summed * (1 / monic_normalizer(lam, params))
    return poly, expand_in_monomials(poly)


def oracle_macdonald(lam: tuple[int, ...], params: ParamSet):
    """(poly, expansion) from the classical coefficient, scaled by the
    quadratic norm."""
    n = len(lam)
    summed = orbit_sum_over_denominator(_classical_seed(n, params).shift([-p for p in lam]), n)
    poly = summed * quadratic_norm(lam, params)
    return poly, expand_in_monomials(poly)


@lru_cache(maxsize=None)
def character_multiplicities(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Orbit-sum expansion of the irreducible Sp(2n) character chi_mu.

    Returns (nu, K_mu_nu) pairs with chi_mu = sum K_mu_nu m_nu over the
    dominant weights nu <= mu with |mu| - |nu| even, highest first.  The
    multiplicities come from Freudenthal's formula
        (|mu + rho|^2 - |nu + rho|^2) K_nu
            = 2 sum_{alpha > 0} sum_{k >= 1} K_{nu + k alpha} <nu + k alpha, alpha>
    in integers, with K constant on group orbits; a division that does not
    go through raises NotDivisibleError naming the character, the weight,
    the numerator and the divisor.  The library solves for the orbit-sum
    expansion of a signed sum of characters directly
    (``hallittlewood._orbit_coefficients``); this is the independent side.
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


def normalized_polynomial(hl: HLPolynomial) -> LaurentPoly:
    """The principally normalized family member c_lam * p_lam."""
    return principal_normalizer(hl.lam, hl.params) * hl.poly


def laurent_pieri_residual(lam: tuple[int, ...], params: ParamSet) -> LaurentPoly:
    """Left side minus right side of the lattice recurrence as a Laurent
    polynomial; contract: zero.

    LHS: P_lam * (sum_j (x_j + 1/x_j) - sum_j (tau_j + 1/tau_j)).
    RHS: sum over valid steps of the step coefficient times
    (P_{lam +- e_j} - P_lam).
    """
    lam = tuple(lam)
    n = len(lam)
    p_base = normalized_polynomial(hl_polynomial(lam, params))
    spectral = sum(
        (LaurentPoly.variable(n, j) + LaurentPoly.variable(n, j, -1) for j in range(n)),
        LaurentPoly.zero(n),
    )
    offset = sum((tj + 1 / tj for tj in tau_vector(n, params)), Fraction(0))
    lhs = p_base * spectral - offset * p_base
    rhs = LaurentPoly.zero(n)
    for j, step, target in unit_steps(lam):
        coeff = pieri_coeff(lam, j, step, params)
        neighbor = normalized_polynomial(hl_polynomial(target, params))
        rhs = rhs + coeff * (neighbor - p_base)
    return lhs - rhs


def evaluate_on_torus(p: LaurentPoly, xi: Sequence[float]) -> complex:
    """p at x_j = e^{i xi_j}, term by term."""
    point = [cmath.exp(1j * x) for x in xi]
    return sum(
        (complex(c) * math.prod(z**e for z, e in zip(point, exp)) for exp, c in p.terms.items()),
        0j,
    )


def monomial_symmetric(lam: tuple[int, ...]) -> LaurentPoly:
    """Orbit sum m_lam = sum of x^mu over the signed-permutation orbit."""
    lam = tuple(lam)
    return LaurentPoly(len(lam), {mu: Fraction(1) for mu in orbit(lam)})


class ConditioningError(RuntimeError):
    """The Gram system of the numerical route is too ill-conditioned."""


def hl_gram_schmidt(
    lam: tuple[int, ...], params: ParamSet, quad: torus.QuadratureSpec
) -> dict[tuple[int, ...], float]:
    """Numerical construction: solve for the triangular expansion whose
    projections onto every strictly smaller orbit sum vanish.

    One linear system per partition (the order is partial, so a sequential
    sweep is not even well defined); the system matrix is the Gram matrix
    of the lower-set orbit sums, the unit expansions {mu: 1}, under the
    torus inner product.
    """
    lam = tuple(lam)
    support = lower_set(lam)
    if len(support) == 1:
        return {lam: 1.0}
    gram = torus.gram_matrix([{mu: 1} for mu in support], params, quad)
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
