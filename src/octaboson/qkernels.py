"""Scalar coefficient formulas of the model, all as exact rationals.

Covers q-shifted factorials and q-integers, the quadratic norms of the
polynomial family, the monic and principal normalization constants, the
lattice-step (Pieri and Hamiltonian hopping) coefficients, and the boundary
potential, together with the parameter domain and its genericity guards.

Parameter profiles:

* ``four``  - all of t_1..t_4 nonzero (the full boundary interaction),
* ``three`` - t_4 = 0,
* ``two``   - t_3 = t_4 = 0.

The profiles are points of one five-parameter family, and the runtime uses
one general formula per coefficient at every profile.  A factor that
involves t = t_1 t_2 t_3 t_4 or a vanishing product t_r t_s equals 1 in the
reduced profiles and is skipped there, so zeroed couplings cost nothing.
The reduced closed forms at t_4 = 0 and t_3 = t_4 = 0 are kept only as
degeneration oracles: the degeneration suite and the tests compare them
with the general formulas at zeroed t_r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Sequence

from .partitions import (
    multiplicity,
    unit_step,
    unit_steps,
)

PROFILES = ("four", "three", "two")

#: How many trailing t_r each profile sets to zero.
_ZERO_TAIL = {"four": 0, "three": 1, "two": 2}

#: Guard horizon applied at construction; covers sectors n <= 4, parts <= 6.
GUARD_DEFAULT = 20


class GenericityError(ValueError):
    """Parameters hit a vanishing denominator of one of the formulas."""


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("parameters must be exact rationals, not floats")
    return Fraction(value)


@dataclass(frozen=True)
class ParamSet:
    """Exact rational parameters (q, t_1..t_4) with derived t = t_1 t_2 t_3 t_4.

    Requires 0 < q < 1 and -1 < t_r < 1, with t_r = 0 exactly where the
    profile dictates.  Construction eagerly rejects parameters with
    t = q^m or t_r t_s = q^m for m = 1..GUARD_DEFAULT, the loci where the
    boundary formulas develop poles at small occupation numbers.
    """

    q: Fraction
    ts: tuple[Fraction, Fraction, Fraction, Fraction]
    profile: str = "four"

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _frac(self.q))
        object.__setattr__(self, "ts", tuple(_frac(t) for t in self.ts))
        if len(self.ts) != 4:
            raise ValueError("exactly four t parameters are required")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}")
        if not (0 < self.q < 1):
            raise ValueError(f"q = {self.q} outside (0, 1)")
        zero_tail = _ZERO_TAIL[self.profile]
        for r, t in enumerate(self.ts):
            if not (-1 < t < 1):
                raise ValueError(f"t_{r+1} = {t} outside (-1, 1)")
            must_be_zero = r >= 4 - zero_tail
            if must_be_zero and t != 0:
                raise ValueError(f"profile {self.profile!r} requires t_{r+1} = 0")
            if not must_be_zero and t == 0:
                raise ValueError(f"profile {self.profile!r} requires t_{r+1} != 0")
        self.ensure_generic_horizon(GUARD_DEFAULT)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, taken once: the caches keyed by a
        ParamSet would otherwise hash its five Fractions on every lookup."""
        return hash((self.q, self.ts, self.profile))

    @cached_property
    def t(self) -> Fraction:
        return self.ts[0] * self.ts[1] * self.ts[2] * self.ts[3]

    @cached_property
    def pair_products(self) -> tuple[Fraction, ...]:
        """The nonzero products t_r t_s, r < s (a zero one contributes only
        factors of 1)."""
        products = (self.ts[r] * self.ts[s] for r, s in itertools.combinations(range(4), 2))
        return tuple(prod for prod in products if prod)

    def ensure_generic_horizon(self, horizon: int, start: int = 1) -> None:
        """Reject t = q^m and t_r t_s = q^m for m = start..horizon."""
        qpow = self.q ** (start - 1)
        t = self.t
        for _ in range(start, horizon + 1):
            qpow *= self.q
            if t == qpow:
                raise GenericityError(f"t = q^m degeneracy at q^m = {qpow}")
            for prod in self.pair_products:
                if prod == qpow:
                    raise GenericityError(
                        f"t_r t_s = q^m degeneracy at q^m = {qpow}"
                    )

    def ensure_generic(self, n: int, max_part: int) -> None:
        """Guard every denominator exponent reachable at sector size (n, max_part).

        Construction has checked m <= GUARD_DEFAULT already; only the
        exponents beyond it are checked here.
        """
        self.ensure_generic_horizon(2 * n + max_part + 3, start=GUARD_DEFAULT + 1)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "q": str(self.q),
            "t": [str(t) for t in self.ts],
            "profile": self.profile,
        }


#: (q, (t_1, .., t_4)) of the generic rational point used throughout the
#: test suites and by the command line where a flag is not given, per profile.
DEFAULT_POINTS = {
    profile: (
        Fraction(1, 2),
        (Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5), Fraction(-1, 6))[: 4 - zeros]
        + (Fraction(0),) * zeros,
    )
    for profile, zeros in _ZERO_TAIL.items()
}


def default_params(profile: str = "four") -> ParamSet:
    """The generic rational parameter point used throughout the test suites."""
    q, ts = DEFAULT_POINTS[profile]
    return ParamSet(q=q, ts=ts, profile=profile)


# ---------------------------------------------------------------------------
# q-series primitives
# ---------------------------------------------------------------------------

#: Entries of each q-series cache.  Norms, normalizers and the reduced
#: closed forms repeat the same factors: ``verify pieri --n 4 --maxPart 2``
#: reads 69 keys of ``qpochhammer`` and ``verify degeneration --n 3
#: --maxPart 3`` reads 15.
_QSERIES_CACHE_SIZE = 256


@lru_cache(maxsize=_QSERIES_CACHE_SIZE)
def qpochhammer(x: Fraction, m: int, q: Fraction) -> Fraction:
    """(x)_m = (1-x)(1-xq)...(1-xq^{m-1}), with (x)_0 = 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = Fraction(1)
    x = Fraction(x)
    for _ in range(m):
        out *= 1 - x
        x *= q
    return out


@lru_cache(maxsize=_QSERIES_CACHE_SIZE)
def qinteger(m: int, q: Fraction) -> Fraction:
    """[m] = (1 - q^m) / (1 - q)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return (1 - Fraction(q) ** m) / (1 - Fraction(q))


def tau_vector(n: int, params: ParamSet) -> tuple[Fraction, ...]:
    """tau_j = q^{n-j} t_1 for j = 1..n (0-based index j-1)."""
    return tuple(params.q ** (n - 1 - j) * params.ts[0] for j in range(n))


def _mult_qpoch_product(lam: tuple[int, ...], q: Fraction) -> Fraction:
    """Product over part values l of (q)_{m_l(lam)} (absent values give 1)."""
    out = Fraction(1)
    for value in set(lam):
        out *= qpochhammer(q, multiplicity(lam, value), q)
    return out


#: 0-based index pairs (r, s) of the couplings t_r t_s with 1 < r+1 < s+1 <= 4.
_PAIRS_BEYOND_T1 = ((1, 2), (1, 3), (2, 3))


# ---------------------------------------------------------------------------
# Quadratic norms
# ---------------------------------------------------------------------------


def quadratic_norm(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """The squared norm of the polynomial indexed by lam."""
    return _quadratic_norm(tuple(lam), params)


#: ``verify degeneration --n 4 --maxPart 3`` reads 140 norms, the most of
#: any suite at n <= 4, maxPart <= 3.
@lru_cache(maxsize=1024)
def _quadratic_norm(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    q, t = params.q, params.t
    m0 = multiplicity(lam, 0)
    numerator = (1 - q) ** len(lam)
    denominator = _mult_qpoch_product(lam, q)
    for prod in params.pair_products:
        denominator *= qpochhammer(prod, m0, q)
    if t:
        numerator *= qpochhammer(t * q ** (m0 - 1), m0, q)
        denominator *= qpochhammer(t * q ** (2 * m0), multiplicity(lam, 1), q)
    if denominator == 0:
        raise GenericityError(f"norm denominator vanishes at lam = {lam}")
    return numerator / denominator


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------


def monic_normalizer(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """Constant dividing the orbit-summation formula to make it monic."""
    lam = tuple(lam)
    n = len(lam)
    q = params.q
    m0 = multiplicity(lam, 0)
    m1 = multiplicity(lam, 1)
    t = params.t
    return (
        (1 - q) ** (-n)
        * qpochhammer(Fraction(-1), m0, q)
        * qpochhammer(t * q ** (2 * m0), m1, q)
        * _mult_qpoch_product(lam, q)
    )


def principal_normalizer(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """Constant c with c * p equal to 1 at the principal evaluation point."""
    lam = tuple(lam)
    n = len(lam)
    q = params.q
    ts = params.ts
    m0 = multiplicity(lam, 0)
    m1 = multiplicity(lam, 1)
    t = params.t
    tau = tau_vector(n, params)
    numerator = Fraction(1)
    for tau_j, part in zip(tau, lam):
        numerator *= tau_j**part
    numerator *= qpochhammer(t * q ** (2 * m0), m1, q) * _mult_qpoch_product(lam, q)
    denominator = qpochhammer(q, n, q)
    for r in range(1, 4):
        denominator *= qpochhammer(ts[0] * ts[r] * q**m0, n - m0, q)
    if denominator == 0:
        raise GenericityError(f"principal normalizer denominator vanishes at {lam}")
    return numerator / denominator


def wave_normalizer(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """h with wave function = (principally normalized polynomial) / h.

    Closed form:  tau^lam (t q^{m0-1})_{m0} prod_{1<r<s} (t_r t_s q^{m0})_{n-m0}
    divided by (t q^{n-1})_n, times the norm of the zero partition.  Equals
    principal_normalizer * quadratic_norm identically.
    """
    lam = tuple(lam)
    n = len(lam)
    q = params.q
    ts = params.ts
    m0 = multiplicity(lam, 0)
    t = params.t
    value = Fraction(1)
    for tau_j, part in zip(tau_vector(n, params), lam):
        value *= tau_j**part
    value *= qpochhammer(t * q ** (m0 - 1), m0, q)
    for r, s in _PAIRS_BEYOND_T1:
        value *= qpochhammer(ts[r] * ts[s] * q**m0, n - m0, q)
    denominator = qpochhammer(t * q ** (n - 1), n, q)
    if denominator == 0:
        raise GenericityError(f"wave normalizer denominator vanishes at {lam}")
    return value / denominator * quadratic_norm((0,) * n, params)


# ---------------------------------------------------------------------------
# Lattice-step coefficients
# ---------------------------------------------------------------------------


def _delta(x: int) -> int:
    return 1 if x == 0 else 0


def pieri_coeff(lam: tuple[int, ...], j: int, step: int, params: ParamSet) -> Fraction:
    """Recurrence coefficient attached to the step lam -> lam +- e_j.

    These are the coefficients of the three-term-like recurrence satisfied
    by the principally normalized family; j is 0-based and the step must
    stay inside the partition cone.
    """
    lam = tuple(lam)
    unit_step(lam, j, step)  # validates
    n = len(lam)
    q = params.q
    ts = params.ts
    t = params.t
    m0 = multiplicity(lam, 0)
    m1 = multiplicity(lam, 1)
    part = lam[j]
    mult = multiplicity(lam, part)
    tau_j = tau_vector(n, params)[j]

    if step == 1:
        value = qinteger(mult, q) / tau_j
        value *= (1 - t * q ** (2 * m0 + m1 - 1)) ** (_delta(part - 1) + _delta(part))
        if part == 0:
            numerator = Fraction(1)
            for r in range(1, 4):
                numerator *= 1 - ts[0] * ts[r] * q ** (m0 - 1)
            denominator = (1 - t * q ** (2 * m0 - 2)) * (1 - t * q ** (2 * m0 - 1))
            if denominator == 0:
                raise GenericityError("pieri coefficient denominator vanishes")
            value *= numerator / denominator
        return value

    value = tau_j * qinteger(mult, q)
    if part == 1:
        numerator = 1 - t * q ** (m0 - 1)
        for r, s in _PAIRS_BEYOND_T1:
            numerator *= 1 - ts[r] * ts[s] * q**m0
        denominator = (1 - t * q ** (2 * m0 - 1)) * (1 - t * q ** (2 * m0))
        if denominator == 0:
            raise GenericityError("pieri coefficient denominator vanishes")
        value *= numerator / denominator
    return value


#: Entries of each occupation-keyed coefficient cache.  Of the suites at
#: n <= 4, maxPart <= 3, ``verify degeneration --n 4 --maxPart 3`` reads the
#: most: 70 keys of ``_creation_coeff`` over its two reduced points.
_OCCUPATION_CACHE_SIZE = 1024


def occupation_key(lam: tuple[int, ...], site: int) -> tuple[int, int, int, int]:
    """(site class, m_site, m_0, m_1) of the state lam: all that a
    coefficient at ``site`` reads of it.  The class is 0, 1 or 2 for the
    boundary sites 0, 1 and the bulk; the bulk formulas read m_site alone,
    so there m_0 and m_1 are given as 0."""
    if site < 0:
        raise ValueError("site must be nonnegative")
    if site >= 2:
        return 2, multiplicity(lam, site), 0, 0
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    return site, m1 if site else m0, m0, m1


def creation_coeff(lam: tuple[int, ...], part: int, params: ParamSet) -> Fraction:
    """Coefficient of the state lam, which has a part equal to ``part``,
    when a particle is created at site ``part``.  It is also the rate of the
    Hamiltonian's up hop of that part: hop_coeff(lam, j, +1) for lam[j] = part.

    It reads lam only through ``occupation_key(lam, part)`` and is computed
    once per occupation numbers and parameter point.
    """
    return _creation_coeff(*occupation_key(lam, part), params)


@lru_cache(maxsize=_OCCUPATION_CACHE_SIZE)
def _creation_coeff(site: int, m: int, m0: int, m1: int, params: ParamSet) -> Fraction:
    q, t = params.q, params.t
    value = qinteger(m, q)
    if site == 0:
        for prod in params.pair_products:
            value *= 1 - prod * q ** (m0 - 1)
    if t and site <= 1:
        value *= 1 - t * q ** (2 * m0 + m1 - 1)
        if site == 0:
            denominator = (
                (1 - t * q ** (2 * m0 - 3))
                * (1 - t * q ** (2 * m0 - 2)) ** 2
                * (1 - t * q ** (2 * m0 - 1))
            )
            if denominator == 0:
                raise GenericityError("creation coefficient denominator vanishes")
            value *= (1 - t * q ** (m0 - 2)) / denominator
    return value


def hop_coeff(lam: tuple[int, ...], j: int, step: int, params: ParamSet) -> Fraction:
    """Hamiltonian hopping coefficient for the step lam -> lam +- e_j."""
    lam = tuple(lam)
    unit_step(lam, j, step)  # validates
    if step == -1:
        return qinteger(multiplicity(lam, lam[j]), params.q)
    return creation_coeff(lam, lam[j], params)


# ---------------------------------------------------------------------------
# Boundary potential
# ---------------------------------------------------------------------------


def boundary_potential(m0: int, m1: int, params: ParamSet) -> Fraction:
    """Diagonal boundary term evaluated at occupations (m0, m1) of sites 0, 1,
    computed once per occupation numbers and parameter point."""
    if m0 < 0 or m1 < 0:
        raise ValueError("occupation numbers must be nonnegative")
    return _boundary_potential(m0, m1, params)


@lru_cache(maxsize=_OCCUPATION_CACHE_SIZE)
def _boundary_potential(m0: int, m1: int, params: ParamSet) -> Fraction:
    q, ts, t = params.q, params.ts, params.t
    t1 = ts[0]
    n0 = q**m0
    n1 = q**m1

    ratio_a = 1 - t / q * n0
    for r, s in _PAIRS_BEYOND_T1:
        ratio_a *= 1 - ts[r] * ts[s] * n0
    ratio_b = 1 - t / q * n0**2 * n1
    for r in range(1, 4):
        ratio_b *= 1 - t1 * ts[r] / q * n0
    if t:
        den_a = (1 - t * n0**2) * (1 - t / q * n0**2)
        den_b = (1 - t / q**2 * n0**2) * (1 - t / q * n0**2)
        if den_a == 0 or den_b == 0:
            raise GenericityError("boundary potential denominator vanishes")
        ratio_a /= den_a
        ratio_b /= den_b
    bracket_a = t / t1 * n0 + t1 * n0 * (1 - ratio_a)
    bracket_b = t1 + q / (t1 * n0) * (1 - ratio_b)
    return bracket_a * (1 - n1) / (1 - q) + bracket_b * (1 - n0) / (1 - q)


def potential_from_step_coeffs(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """Independent route to the boundary potential from the recurrence data:

    sum_j (tau_j + 1/tau_j) minus the recurrence coefficient of every valid
    unit step.
    """
    lam = tuple(lam)
    tau = tau_vector(len(lam), params)
    value = sum((tj + 1 / tj for tj in tau), Fraction(0))
    for j, step, _ in unit_steps(lam):
        value -= pieri_coeff(lam, j, step, params)
    return value


# ---------------------------------------------------------------------------
# Reduced closed forms (degeneration oracles)
# ---------------------------------------------------------------------------
# The general norm, up-hop rate and boundary potential with t_4 = 0 (three)
# or t_3 = t_4 = 0 (two) substituted and simplified by hand.  The runtime
# never calls them; they are the independent side of the degeneration checks.


def norm_three(lam: tuple[int, ...], q: Fraction, ts: Sequence[Fraction]) -> Fraction:
    """Reduced norm at t_4 = 0."""
    n = len(lam)
    m0 = multiplicity(lam, 0)
    denominator = Fraction(1)
    for r, s in itertools.combinations(range(3), 2):
        denominator *= qpochhammer(ts[r] * ts[s], m0, q)
    denominator *= _mult_qpoch_product(lam, q)
    if denominator == 0:
        raise GenericityError(f"norm denominator vanishes at lam = {lam}")
    return (1 - q) ** n / denominator


def norm_two(lam: tuple[int, ...], q: Fraction, ts: Sequence[Fraction]) -> Fraction:
    """Reduced norm at t_3 = t_4 = 0."""
    n = len(lam)
    m0 = multiplicity(lam, 0)
    denominator = qpochhammer(ts[0] * ts[1], m0, q) * _mult_qpoch_product(lam, q)
    if denominator == 0:
        raise GenericityError(f"norm denominator vanishes at lam = {lam}")
    return (1 - q) ** n / denominator


def hop_up_three(
    lam: tuple[int, ...], j: int, q: Fraction, ts: Sequence[Fraction]
) -> Fraction:
    """Reduced up-hop rate of part lam[j] at t_4 = 0."""
    m0 = multiplicity(lam, 0)
    part = lam[j]
    value = qinteger(multiplicity(lam, part), q)
    if part == 0:
        for r, s in itertools.combinations(range(3), 2):
            value *= 1 - ts[r] * ts[s] * q ** (m0 - 1)
    return value


def hop_up_two(
    lam: tuple[int, ...], j: int, q: Fraction, ts: Sequence[Fraction]
) -> Fraction:
    """Reduced up-hop rate of part lam[j] at t_3 = t_4 = 0."""
    m0 = multiplicity(lam, 0)
    part = lam[j]
    value = qinteger(multiplicity(lam, part), q)
    if part == 0:
        value *= 1 - ts[0] * ts[1] * q ** (m0 - 1)
    return value


def potential_three(m0: int, m1: int, q: Fraction, ts: Sequence[Fraction]) -> Fraction:
    """Reduced boundary potential at t_4 = 0."""
    n0 = q**m0
    n1 = q**m1
    t123 = ts[0] * ts[1] * ts[2]
    return (ts[0] + ts[1] + ts[2] - t123 / q * n0) * (1 - n0) / (1 - q) + t123 * n0**2 * (
        1 - n1
    ) / (1 - q)


def potential_two(m0: int, m1: int, q: Fraction, ts: Sequence[Fraction]) -> Fraction:
    """Reduced boundary potential at t_3 = t_4 = 0."""
    return (ts[0] + ts[1]) * qinteger(m0, q)
