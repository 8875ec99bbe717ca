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

The runtime coefficients (the quadratic norm, the monic and principal
normalizers, the recurrence coefficients, the creation coefficient, the
boundary potential, and the annihilation, relation and twist scalars of
``qboson``) are products of factors (1 - x q^k), k in Z, times a power of
tau in the principal normalizer and the recurrence, plus a few sums in the
potential.  They evaluate in integer arithmetic: ``factor_ratio``
multiplies the factors as unreduced (numerator, denominator) pairs from
the integer numerator and denominator of x and the point's integer powers
of q (``ParamSet.q_powers``), the potential combines such pairs by
cross-multiplication, and each value builds one ``Fraction``, at the end
(``exact_ratio`` for a product of factors alone).  A vanishing denominator
is caught on its integer before any division.  The q-series primitives
and the reduced closed forms stay in ``Fraction`` arithmetic, so the
closed forms remain an independent side of the degeneration checks; of
the runtime, only the down-hop rate [m] reads ``qinteger``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Sequence

from .partitions import multiplicity, unit_step

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

    @cached_property
    def _q_power_lists(self) -> tuple[list[int], list[int]]:
        return [1], [1]

    def q_powers(self, count: int) -> tuple[list[int], list[int]]:
        """Numerators and denominators of q^0, .., q^(count - 1), at least:
        the one table of integer powers of q at this point, read by the
        integer kernels and the operator checks.  It grows on demand, to at
        least twice its length, so a table read at growing exponents grows
        a few times only; callers only read it."""
        num, den = self._q_power_lists
        if len(num) < count:
            q_num, q_den = self.q.numerator, self.q.denominator
            for _ in range(max(count, 2 * len(num)) - len(num)):
                num.append(num[-1] * q_num)
                den.append(den[-1] * q_den)
        return num, den

    def ensure_generic_horizon(self, horizon: int) -> None:
        """Reject t = q^m and t_r t_s = q^m for m = 1..horizon, the
        smallest such m first and t before the pairs at one m.  Since
        0 < q < 1, a positive x equals q^m for at most one m, the nearest
        integer to log x / log q; only the integers next to that estimate
        are tried, and exactly, as lowest-terms numerator and denominator
        pairs, so the cost does not grow with the horizon, which grows with
        maxPart before any budget check."""
        q_num, q_den = self.q.numerator, self.q.denominator
        log_q = math.log(q_num) - math.log(q_den)
        candidates = [("t", self.t)] + [("t_r t_s", x) for x in self.pair_products]
        hits = []
        for kind, x in candidates:
            if x <= 0:
                continue
            estimate = round((math.log(x.numerator) - math.log(x.denominator)) / log_q)
            for m in range(max(1, estimate - 1), min(horizon, estimate + 1) + 1):
                if x.denominator == q_den**m and x.numerator == q_num**m:
                    hits.append((m, kind, x))
        if hits:
            # min keeps the first of equal m, so t comes before the pairs
            m, kind, x = min(hits, key=lambda hit: hit[0])
            try:
                at = f"q^m = {x.numerator}/{x.denominator}"
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                at = f"m = {m}"
            raise GenericityError(f"{kind} = q^m degeneracy at {at}")

    def ensure_generic(self, n: int, max_part: int) -> None:
        """Guard every denominator exponent reachable at sector size (n, max_part).

        Construction has checked m <= GUARD_DEFAULT already, so only an
        exponent beyond it can fail here; the guard tries at most three m
        per product whatever the horizon, so it checks from m = 1.
        """
        self.ensure_generic_horizon(2 * n + max_part + 3)

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

#: Entries of each q-series cache.  The reduced closed forms repeat the same
#: factors: ``verify degeneration --n 4 --maxPart 3`` reads 19 keys of
#: ``qpochhammer`` and 6 of ``qinteger``; the down-hop rate reads at most
#: n keys of ``qinteger``.
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


def factor_ratio(numerator, denominator, q_num, q_den) -> tuple[int, int]:
    """The product of the factors (1 - x q^k) of ``numerator`` over that of
    ``denominator``, as an unreduced integer pair (num, den).

    A factor is a pair (x, k) of a rational or integer x and k in Z; the
    arithmetic reads the integer numerator and denominator of x, and of
    q^k = q_num[k] / q_den[k], or q_den[-k] / q_num[-k] for k < 0.  den is 0
    exactly where a factor of ``denominator`` vanishes.
    """
    num = den = 1
    for x, k in numerator:
        a, b = (q_num[k], q_den[k]) if k >= 0 else (q_den[-k], q_num[-k])
        b *= x.denominator
        num *= b - x.numerator * a
        den *= b
    for x, k in denominator:
        a, b = (q_num[k], q_den[k]) if k >= 0 else (q_den[-k], q_num[-k])
        b *= x.denominator
        num *= b
        den *= b - x.numerator * a
    return num, den


def exact_ratio(numerator, denominator, params: ParamSet, message: str, *details) -> Fraction:
    """``factor_ratio`` of the factors at the point's powers of q, as a
    ``Fraction``; GenericityError(message.format(*details)) where a factor
    of ``denominator`` vanishes, formatted only then.  The point's table of
    powers is read as it stands and, where a factor's |k| lies beyond it,
    grown to the factors' largest |k|: a scan of every call's exponents
    would cost a third of a kernel's time."""
    try:
        num, den = factor_ratio(numerator, denominator, *params.q_powers(1))
    except IndexError:
        top = max(abs(k) for _, k in itertools.chain(numerator, denominator))
        num, den = factor_ratio(numerator, denominator, *params.q_powers(top + 1))
    if den == 0:
        raise GenericityError(message.format(*details))
    return Fraction(num, den)


def tau_vector(n: int, params: ParamSet) -> tuple[Fraction, ...]:
    """tau_j = q^{n-j} t_1 for j = 1..n (0-based index j-1)."""
    return tuple(params.q ** (n - 1 - j) * params.ts[0] for j in range(n))


def _mult_qpoch_product(lam: tuple[int, ...], q: Fraction) -> Fraction:
    """Product over part values l of (q)_{m_l(lam)} (absent values give 1)."""
    out = Fraction(1)
    for value in set(lam):
        out *= qpochhammer(q, multiplicity(lam, value), q)
    return out


def _shared_factors(lam: tuple[int, ...], params: ParamSet) -> list:
    """The factors (x, k) of prod_l (q)_{m_l} (t q^{2 m0})_{m1}, shared by
    the quadratic norm and the monic and principal normalizers."""
    m0 = multiplicity(lam, 0)
    factors = [(1, k) for part in set(lam) for k in range(1, multiplicity(lam, part) + 1)]
    if params.t:
        factors += [(params.t, k) for k in range(2 * m0, 2 * m0 + multiplicity(lam, 1))]
    return factors


#: 0-based index pairs (r, s) of the couplings t_r t_s with 1 < r+1 < s+1 <= 4.
_PAIRS_BEYOND_T1 = ((1, 2), (1, 3), (2, 3))


# ---------------------------------------------------------------------------
# Quadratic norms
# ---------------------------------------------------------------------------


def quadratic_norm(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """The squared norm of the polynomial indexed by lam: (1 - q)^n
    (t q^{m0-1})_{m0} over prod_l (q)_{m_l}, prod_{r<s} (t_r t_s)_{m0} and
    (t q^{2 m0})_{m1}."""
    lam = tuple(lam)
    t = params.t
    n, m0 = len(lam), multiplicity(lam, 0)
    numerator = [(1, 1)] * n
    denominator = _shared_factors(lam, params)
    denominator += [(prod, k) for prod in params.pair_products for k in range(m0)]
    if t:
        numerator += [(t, k) for k in range(m0 - 1, 2 * m0 - 1)]
    return exact_ratio(numerator, denominator, params, "norm denominator vanishes at lam = {}", lam)


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------


def monic_normalizer(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """Constant dividing the orbit-summation formula to make it monic:
    (-1)_{m0} (t q^{2 m0})_{m1} prod_l (q)_{m_l} over (1 - q)^n."""
    lam = tuple(lam)
    numerator = [(-1, k) for k in range(multiplicity(lam, 0))] + _shared_factors(lam, params)
    message = "monic normalizer denominator vanishes at {}"
    return exact_ratio(numerator, [(1, 1)] * len(lam), params, message, lam)


def principal_normalizer(lam: tuple[int, ...], params: ParamSet) -> Fraction:
    """Constant c with c * p equal to 1 at the principal evaluation point:
    tau^lam (t q^{2 m0})_{m1} prod_l (q)_{m_l} over (q)_n prod_{r>1}
    (t_1 t_r q^{m0})_{n - m0}."""
    lam = tuple(lam)
    n, m0 = len(lam), multiplicity(lam, 0)
    ts = params.ts
    tau_power = Fraction(1)
    for tau_j, part in zip(tau_vector(n, params), lam):
        tau_power *= tau_j**part
    denominator = [(1, k) for k in range(1, n + 1)]
    denominator += [(x, k) for x in (ts[0] * tr for tr in ts[1:]) if x for k in range(m0, n)]
    message = "principal normalizer denominator vanishes at {}"
    return tau_power * exact_ratio(_shared_factors(lam, params), denominator, params, message, lam)


# ---------------------------------------------------------------------------
# Lattice-step coefficients
# ---------------------------------------------------------------------------


def pieri_coeff(lam: tuple[int, ...], j: int, step: int, params: ParamSet) -> Fraction:
    """Recurrence coefficient attached to the step lam -> lam +- e_j.

    These are the coefficients of the three-term-like recurrence satisfied
    by the principally normalized family; j is 0-based and the step must
    stay inside the partition cone.  With [m] = (1 - q^m) / (1 - q) for the
    multiplicity m of the part lam[j]: up, [m] / tau_j, times at parts 0
    and 1 (1 - t q^{2 m0 + m1 - 1}), times at part 0 prod_{r>1} (1 - t_1
    t_r q^{m0 - 1}) / ((1 - t q^{2 m0 - 2}) (1 - t q^{2 m0 - 1})); down,
    tau_j [m], times at part 1 (1 - t q^{m0 - 1}) prod_{1<r<s} (1 - t_r t_s
    q^{m0}) / ((1 - t q^{2 m0 - 1}) (1 - t q^{2 m0})).
    """
    lam = tuple(lam)
    unit_step(lam, j, step)  # validates
    ts, t = params.ts, params.t
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    part = lam[j]
    tau_j = tau_vector(len(lam), params)[j]
    numerator, denominator = [(1, multiplicity(lam, part))], [(1, 1)]
    if step == 1:
        if t and part <= 1:
            numerator.append((t, 2 * m0 + m1 - 1))
        if part == 0:
            numerator += [(x, m0 - 1) for x in (ts[0] * tr for tr in ts[1:]) if x]
            if t:
                denominator += [(t, 2 * m0 - 2), (t, 2 * m0 - 1)]
    elif part == 1:
        numerator += [(x, m0) for x in (ts[r] * ts[s] for r, s in _PAIRS_BEYOND_T1) if x]
        if t:
            numerator.append((t, m0 - 1))
            denominator += [(t, 2 * m0 - 1), (t, 2 * m0)]
    value = exact_ratio(numerator, denominator, params, "pieri coefficient denominator vanishes")
    return value / tau_j if step == 1 else tau_j * value


#: Entries of each occupation-keyed coefficient cache, here and in ``qboson``.
#: Of the suites at n <= 4, maxPart <= 3, ``verify degeneration --n 4
#: --maxPart 3`` reads the most: 70 keys of ``_creation_coeff`` over its two
#: reduced points.
OCCUPATION_CACHE_SIZE = 1024


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


@lru_cache(maxsize=OCCUPATION_CACHE_SIZE)
def _creation_coeff(site: int, m: int, m0: int, m1: int, params: ParamSet) -> Fraction:
    """[m] = (1 - q^m) / (1 - q), times at site 0 prod_{r<s} (1 - t_r t_s
    q^{m0-1}), times at sites 0 and 1 (1 - t q^{2 m0 + m1 - 1}), times at
    site 0 (1 - t q^{m0-2}) / ((1 - t q^{2 m0 - 3}) (1 - t q^{2 m0 - 2})^2
    (1 - t q^{2 m0 - 1}))."""
    t = params.t
    numerator, denominator = [(1, m)], [(1, 1)]
    if site == 0:
        numerator += [(prod, m0 - 1) for prod in params.pair_products]
    if t and site <= 1:
        numerator.append((t, 2 * m0 + m1 - 1))
        if site == 0:
            numerator.append((t, m0 - 2))
            denominator += [(t, k) for k in (2 * m0 - 3, 2 * m0 - 2, 2 * m0 - 2, 2 * m0 - 1)]
    return exact_ratio(numerator, denominator, params, "creation coefficient denominator vanishes")


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


@lru_cache(maxsize=OCCUPATION_CACHE_SIZE)
def _boundary_potential(m0: int, m1: int, params: ParamSet) -> Fraction:
    """With N_i = q^{m_i}:

        (bracket_a (1 - N1) + bracket_b (1 - N0)) / (1 - q),
        bracket_a = t / t1 N0 + t1 N0 (1 - ratio_a),
        bracket_b = t1 + q / (t1 N0) (1 - ratio_b),
        ratio_a = (1 - t N0 / q) prod_{1<r<s} (1 - t_r t_s N0)
                  / ((1 - t N0^2) (1 - t N0^2 / q)),
        ratio_b = (1 - t N0^2 N1 / q) prod_{r>1} (1 - t1 t_r N0 / q)
                  / ((1 - t N0^2 / q^2) (1 - t N0^2 / q)),

    the denominators of the ratios taken only where t != 0 (they are 1
    at t = 0)."""
    ts, t = params.ts, params.t
    t1 = ts[0]
    q_num, q_den = params.q_powers(2 * m0 + m1 + 3)
    couplings_a = (ts[r] * ts[s] for r, s in _PAIRS_BEYOND_T1)
    numerator_a = [(x, m0) for x in couplings_a if x]
    numerator_b = [(x, m0 - 1) for x in (t1 * tr for tr in ts[1:]) if x]
    denominator_a, denominator_b = [], []
    if t:
        numerator_a.append((t, m0 - 1))
        numerator_b.append((t, 2 * m0 + m1 - 1))
        denominator_a += [(t, 2 * m0), (t, 2 * m0 - 1)]
        denominator_b += [(t, 2 * m0 - 2), (t, 2 * m0 - 1)]
    u_a, v_a = factor_ratio(numerator_a, denominator_a, q_num, q_den)
    u_b, v_b = factor_ratio(numerator_b, denominator_b, q_num, q_den)
    if v_a == 0 or v_b == 0:
        raise GenericityError("boundary potential denominator vanishes")
    # integer pairs, cross-multiplied: ratio_a = u_a / v_a, ratio_b = u_b / v_b,
    # t1 = a1 / d1, t = t_num / t_den, N_i = p_i / r_i and q = p / r
    a1, d1 = t1.numerator, t1.denominator
    t_num, t_den = t.numerator, t.denominator
    p0, r0, p1, r1 = q_num[m0], q_den[m0], q_num[m1], q_den[m1]
    p, r = q_num[1], q_den[1]
    bracket_a_num = p0 * (t_num * d1 * d1 * v_a + a1 * a1 * t_den * (v_a - u_a))
    bracket_a_den = r0 * t_den * a1 * d1 * v_a
    bracket_b_num = a1 * a1 * r * p0 * v_b + d1 * d1 * p * r0 * (v_b - u_b)
    bracket_b_den = d1 * r * a1 * p0 * v_b
    num = r * (
        bracket_a_num * (r1 - p1) * bracket_b_den * r0
        + bracket_b_num * (r0 - p0) * bracket_a_den * r1
    )
    return Fraction(num, bracket_a_den * r1 * bracket_b_den * r0 * (r - p))


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
