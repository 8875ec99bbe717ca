"""Hyperoctahedral Hall-Littlewood polynomials by two independent routes.

The primary route is exact.  Summing the plane-wave coefficient over the
hyperoctahedral group and dividing by the type-C Weyl denominator is, by the
Weyl character formula, a signed sum of Sp(2n) characters: every term x^e of
x^{-lam-rho} times the integer seed block is straightened into the dominant
chamber (dropped when it is fixed by a reflection), all rows of the seed's
exponent matrix at once in numpy; times the Weyl denominator, the sum is
unitriangular in its orbit-sum coefficients, solved for in integers when
first read.  The orbit sum over all 2^n n! group elements followed by exact
binomial division gives the same polynomials and is kept in the test suite
as an oracle, as are the row-at-a-time straightening, Freudenthal's formula
for the characters, and the numerical Gram-Schmidt orthogonalization of the
orbit sums against the torus inner product, the cross check of the exact
route.
A second construction, valid when t_3 = t_4 = 0, uses the classical
lambda-independent coefficient and is compared against the primary route
as an exact polynomial identity.

The lattice recurrence is checked on the integer characters each
construction keeps, where m_(1) = sum_j (x_j + 1/x_j), the vector character,
moves chi_mu to the chi_nu of the unit steps nu of mu; no orbit expansion
is solved unless a residual is nonzero.  ``verify_pieri`` runs that suite
whole, on tables the run owns.

A suite builds its sector's polynomials together, by ``sector_polynomials``:
one straightening pass per seed block (bounded in size) and one table of
the Weyl denominator's inversion for the run; ``hl_polynomial`` and
``macdonald_formula`` are that builder on one partition.

numpy is imported inside the functions that build the seed block and
straighten it, not with the module: the operator suites load this module
(through ``cli`` and ``qboson``) but never construct a polynomial, and
importing numpy was most of their start-up.  The first construction pays
the import once.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

from . import budget
from .laurent import LaurentPoly
from .partitions import (
    dominance_leq,
    enumerate_partitions,
    is_partition,
    multiplicity,
    orbit,
    positive_roots,
    sector_size,
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

if TYPE_CHECKING:
    import numpy as np

#: Exact construction is kept at desk scale: its cost follows the seed block,
#: about 11,000 terms at n = 4 and 270,000 at n = 5.
MAX_VARIABLES = 4


class InvariantError(RuntimeError):
    """A constructed polynomial is not monic or leaves its lower set.

    lam is the partition being built and mu the offending character, or lam.
    """

    def __init__(self, message: str, lam: tuple[int, ...], mu: tuple[int, ...]):
        super().__init__(message)
        self.lam = lam
        self.mu = mu


@dataclass(frozen=True)
class HLPolynomial:
    """P_lam = scale * sum c_mu chi_mu, held as its integer Sp(2n) character
    coefficients c_mu, their one scale and the run's inversion table.

    Building it raises InvariantError unless every nonzero c_mu has
    mu <= lam and c_lam * scale = 1: as chi_mu is m_mu plus orbit sums
    below mu, its orbit expansion is then monic and in lam's lower set.
    ``orbit``, ``expansion`` and ``poly`` are derived on first read and
    kept: reading the characters solves nothing.
    """

    lam: tuple[int, ...]
    params: ParamSet
    characters: Mapping[tuple[int, ...], int]
    scale: Fraction
    table: tuple = field(compare=False, repr=False)

    def __post_init__(self):
        lam = self.lam
        outside = [mu for mu, c in self.characters.items() if c and not dominance_leq(mu, lam)]
        if outside:
            mu = max(outside, key=lambda m: (sum(m), m))
            raise InvariantError(
                f"expansion of {lam} has support {mu} outside the lower set", lam, mu
            )
        top = self.characters.get(lam, 0) * self.scale
        if top != 1:
            message = f"constructed polynomial for {lam} is not monic: coefficient {top} at {lam}"
            raise InvariantError(message, lam, lam)

    @cached_property
    def orbit(self) -> dict[tuple[int, ...], int]:
        """The nonzero integer d_nu with sum c_mu chi_mu = sum d_nu m_nu."""
        return _orbit_coefficients(self.characters, self.table)

    @cached_property
    def expansion(self) -> dict[tuple[int, ...], Fraction]:
        """The orbit-sum expansion, keyed in decreasing (degree, lex) order."""
        return {nu: self.scale * d for nu, d in self.orbit.items()}

    @cached_property
    def poly(self) -> LaurentPoly:
        return reconstruct_from_expansion(self.expansion, len(self.lam))


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


#: (exponents, coefficients, denominator): the (S, n) int64 exponent matrix,
#: read-only, and the S integer coefficients of its rows over one common
#: denominator.
IntegerSeed = tuple["np.ndarray", tuple[int, ...], int]
Binomials = Sequence[tuple[Fraction, tuple[int, ...]]]

#: Exponent keys and exponents are int64 in the straightening.
_INT64_MAX = 2**63 - 1


def _exponent_box(n: int, binomials: Binomials) -> tuple[list[int], list[int]]:
    """(lo, size) per coordinate: every exponent of every partial product
    of the binomials lies in lo_i <= e_i < lo_i + size_i, with lo_i the sum
    of min(0, e_i) and lo_i + size_i - 1 the sum of max(0, e_i)."""
    lo = [sum(min(0, exp[i]) for _, exp in binomials) for i in range(n)]
    hi = [sum(max(0, exp[i]) for _, exp in binomials) for i in range(n)]
    return lo, [h - l + 1 for l, h in zip(lo, hi)]


def _check_box(n: int, binomials: Binomials) -> tuple[list[int], list[int], int]:
    """(lo, size, width) of the packed product of the binomials, once the
    box of ``_exponent_box`` times the words of its packed coefficients
    fits the node budget (and its keys the int64 range).

    Each (1 - c x^e) = (b - a x^e) / b, c = a/b, adds at most |a| + b to
    the l1 norm of the integer product, so B = prod (|a| + b) bounds every
    coefficient of every partial product; a width of
    64 (floor(bitlen(B) / 64) + 1) bits holds each one as a signed digit.
    """
    lo, size = _exponent_box(n, binomials)
    bound = math.prod(abs(c.numerator) + c.denominator for c, _ in binomials)
    width = 64 * (bound.bit_length() // 64 + 1)
    terms, words = math.prod(size), width // 64
    evidence = {"n": n, "terms": terms, "words": words}
    held = f"{terms} terms" if words == 1 else f"{terms} terms of {words} words"
    budget.check(terms * words, f"seed block of n = {n} may hold {held}", evidence)
    # only a raised budget gets here with a box whose keys overflow int64
    if terms > _INT64_MAX:
        raise budget.BudgetExceededError(
            f"seed block of n = {n} may hold {terms} terms, beyond the int64 "
            f"exponent keys of the straightening",
            {**evidence, "budget": budget.node_budget()},
        )
    return lo, size, width


def _binomial_product(n: int, binomials: Binomials) -> IntegerSeed:
    """prod (1 - c x^e) over the (c, e) pairs, as integer terms over the
    common denominator prod b, where c = a/b in lowest terms.

    Exponents are packed into one int each, in mixed radix over the
    exponent box of the binomials: key = sum (e_i - lo_i) stride_i.  The
    product is then a polynomial in one variable y, held as its value at
    y = 2^W (Kronecker substitution), W the width of ``_check_box``: one
    Python int whose W-bit digit at key k is the signed coefficient of that
    key.  A factor x^e moves a key by the one int step = sum e_i stride_i,
    so it maps acc to b acc - a acc 2^(W step); every partial product stays
    inside the box, so a shift down (step < 0) drops only zero digits.  The
    box is checked against the node budget before the first factor.

    The digits are read once, at the end: adding 2^(W-1) to every digit
    makes each nonnegative, so no digit borrows from the next, and the
    bytes of the sum are the rows of a (terms, W / 64) array of uint64
    words.  The top word XOR 2^63, viewed as int64, is a coefficient's top
    word, signed; its lower words are ORed in only when W > 64.  The keys
    of the nonzero rows are decoded into the rows of the exponent matrix by
    one vectorized divmod by the strides.
    """
    import numpy as np

    lo, size, width = _check_box(n, binomials)
    strides = [math.prod(size[i + 1 :]) for i in range(n)]
    acc = 1 << width * -sum(l * s for l, s in zip(lo, strides))
    denominator = 1
    for c, exp in binomials:
        a, b = c.numerator, c.denominator
        shift = width * sum(e * s for e, s in zip(exp, strides))
        acc = b * acc - (a * acc << shift if shift >= 0 else a * acc >> -shift)
        denominator *= b
    terms, words = math.prod(size), width // 64
    offset = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * terms, "little")
    raw = (acc + offset).to_bytes(terms * width // 8, "little")
    blocks = np.frombuffer(raw, dtype="<u8").reshape(terms, words)
    top = (blocks[:, -1] ^ np.uint64(1 << 63)).view(np.int64)
    nonzero = top != 0
    if words > 1:
        nonzero |= blocks[:, :-1].any(axis=1)
    keys = np.flatnonzero(nonzero)
    coefficients = top[keys].tolist()
    if words > 1:
        coefficients = [
            (c << width - 64) | int.from_bytes(low.tobytes(), "little")
            for c, low in zip(coefficients, blocks[keys, :-1])
        ]
    digits = keys[:, None] // np.array(strides, dtype=np.int64) % np.array(size, dtype=np.int64)
    exponents = digits + np.array(lo, dtype=np.int64)
    exponents.flags.writeable = False
    return exponents, tuple(coefficients), denominator


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


def check_budget(lams: Sequence[tuple[int, ...]], params: ParamSet) -> None:
    """Refuse, before any work, to build the polynomials of lams, partitions
    of one length: a ValueError beyond MAX_VARIABLES parts, and a
    BudgetExceededError when the packed int of a seed block they read, or
    the orbit expansion's work for their largest part, exceeds the node budget.
    A cached block or polynomial skips ``_binomial_product``'s box check,
    so callers bound by the current budget call this first; at profile two
    the classical formula reads the block without zero parts.
    """
    n = len(lams[0])
    check_variables(n)
    zero_count = 0 if params.profile == "two" else min(multiplicity(lam, 0) for lam in lams)
    _check_work(n, zero_count, max(max(lam, default=0) for lam in lams), params)


def check_sector_budget(
    n: int, max_part: int, params: ParamSet, neighbours: bool = False
) -> None:
    """``check_budget`` of the length-n partitions with parts <= max_part,
    and of their unit-step neighbours if asked, from (n, max_part) alone,
    after the sector's size and before any partition is listed.  The fewest
    zero parts are 0, or at max_part = 0 those of 0^n or of its neighbour
    (1, 0^(n-1)); the largest part is max_part, + 1 with the neighbours.
    """
    check_variables(n)
    sector_size(n, max_part)
    fewest = 0 if max_part else max(n - neighbours, 0)
    top = max_part + 1 if neighbours and n else max_part
    _check_work(n, fewest, top, params)


def _check_work(n: int, zero_count: int, max_part: int, params: ParamSet) -> None:
    """The budget checks of ``check_budget``: the seed block of zero_count
    zero parts, then the orbit expansion up to max_part.  No block with more
    zero parts is larger: one more trades, at one coordinate, at least two
    boundary factors (1 - t_r x_j), t_r = a/b with 0 < |a| < b, each adding
    1 to the box there and a factor |a| + b >= 3 to the l1 bound of
    ``_check_box``, for the top-up (1 - x_j^2), adding 2 and a factor 2.
    """
    _check_box(n, _seed_binomials(n, zero_count, params))
    # C(n + max_part, n) n^2 max_part bounds the orbit expansion's
    # (max_part + 2)^n lookup codes up to a factor 1.5, and its
    # C(n + max_part, n) (|W| - 1) index entries up to a factor 1.2 at the
    # largest part the default budget admits (20 at n = 4)
    terms = math.comb(n + max_part, n) * n * n * max_part
    what = f"orbit expansion for parts up to {max_part} at n = {n} may take {terms} steps"
    budget.check(terms, what, {"n": n, "terms": terms})


#: One suite needs the n + 1 blocks of one parameter point (zero counts
#: 0..n); the bound stops parameter sweeps from growing memory.
@lru_cache(maxsize=16)
def _seed_block(n: int, zero_count: int, params: ParamSet) -> IntegerSeed:
    """Numerator block shared by all partitions with the same number of
    zero parts: the product of ``_seed_binomials``."""
    return _binomial_product(n, _seed_binomials(n, zero_count, params))


def _straighten(
    exponents: np.ndarray, coefficients: Sequence[int], shifts: Sequence[Sequence[int]]
) -> list[dict[tuple[int, ...], int]]:
    """c_mu with A(x^{-shift} g) = sum_mu c_mu A(x^{mu + rho}), one dict per
    shift, for the alternant A(x^e) = sum_w det(w) x^{w e} and g = sum of
    the rows of the (S, n) exponent matrix times their coefficients.

    The shifted copies of the matrix are stacked, k S rows for k shifts, and
    for all rows at once in numpy each shifted exponent is sorted by
    absolute value into the dominant chamber; the sign is
    (-1)^(negative entries) times the sign of the sort, whose parity is the
    number of pairs i < j with |e_i| < |e_j|.  An exponent with a zero entry or a repeated absolute
    value is fixed by a reflection, so its alternant vanishes and its row
    is dropped.  Only the surviving rows come back to Python, where row r
    belongs to shift r // S and reads seed row r % S, and their integer
    coefficients are summed exactly; a mu whose contributions cancel is
    kept with coefficient 0.
    """
    import numpy as np

    size, n = exponents.shape
    bound = _INT64_MAX - int(np.abs(exponents).max(initial=0))
    for shift in shifts:
        if any(abs(s) > bound for s in shift):
            raise ValueError(f"shift {tuple(shift)} is beyond the int64 exponents")
    moved = np.array(shifts, dtype=np.int64).reshape(len(shifts), 1, n)
    e = (exponents - moved).reshape(len(shifts) * size, n)
    a = np.abs(e)
    dom = -np.sort(-a, axis=1)
    rows = np.flatnonzero((a > 0).all(axis=1) & (dom[:, :-1] > dom[:, 1:]).all(axis=1))
    e, a = e[rows], a[rows]
    upper, lower = _index_pairs(n)
    odd = ((e < 0).sum(axis=1) + (a[:, upper] < a[:, lower]).sum(axis=1)) % 2
    mus = (dom[rows] - np.array(weyl_vector(n), dtype=np.int64)).tolist()
    # rows is increasing, so each shift's surviving rows are one run of it
    ends = np.searchsorted(rows, size * np.arange(1, len(shifts) + 1)).tolist()
    seed_rows, flips = (rows % max(size, 1)).tolist(), odd.tolist()
    out = []
    for first, last in zip([0, *ends], ends):
        straightened: dict[tuple[int, ...], int] = {}
        for row, mu, flip in zip(seed_rows[first:last], mus[first:last], flips[first:last]):
            mu = tuple(mu)
            coeff = coefficients[row]
            straightened[mu] = straightened.get(mu, 0) + (-coeff if flip else coeff)
        out.append(straightened)
    return out


def _weyl_shifts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(det w, rho - w rho) for the 2^n n! - 1 signed permutations w != 1,
    those with det w = 1 first, as read-only int64 arrays of shape
    (|W| - 1,) and (|W| - 1, n).

    w rho runs over the signed permutations of rho, and det w = (-1)^l(w)
    with l(w) the number of positive roots alpha with <w rho, alpha> < 0.
    """
    import numpy as np

    rho = weyl_vector(n)
    perms = np.array(list(itertools.permutations(rho)), dtype=np.int64, ndmin=2)
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64, ndmin=2)
    images = (perms[:, None, :] * signs).reshape(len(perms) * len(signs), n)
    roots = np.array(positive_roots(n), dtype=np.int64).reshape(n * n, n)
    dets = 1 - 2 * ((images @ roots.T < 0).sum(axis=1) % 2)
    shifts = np.array(rho, dtype=np.int64) - images
    moved = np.flatnonzero(shifts.any(axis=1))
    moved = moved[np.argsort(-dets[moved], kind="stable")]
    dets, shifts = dets[moved], shifts[moved]
    dets.flags.writeable = shifts.flags.writeable = False
    return dets, shifts


#: one entry per n <= MAX_VARIABLES; every straightening pass reads it
@lru_cache(maxsize=8)
def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n entries, as the read-only arrays of i and
    of j that ``_straighten`` compares across."""
    import numpy as np

    upper, lower = np.triu_indices(n, 1)
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


#: The size of one numpy block: (weight, w) pairs of the inversion table,
#: so a block's int64 images stay near 1 MB, and int64 exponent entries
#: (rows x n) of a straightening pass of several partitions.
_BLOCK_ENTRIES = 1 << 15


#: A run reads one table, for its sector's largest part; ``poly`` with
#: ``--compare-macdonald`` reads it twice.  The bound stops sweeps from
#: growing memory.
@lru_cache(maxsize=32)
def _inversion_entries(n: int, top: int):
    """(weights, position, rows) for the dominant weights kappa with parts
    <= top, in decreasing graded lex order: rows[i] = (plus, minus), the
    positions of dom(kappa_i + rho - w rho) over the w != 1 whose image has
    parts <= top, with det w = -1 in plus and det w = 1 in minus, as lists.

    An image dominates its weight, and graded lex extends dominance, so the
    image is listed first.  The images are found in numpy, a block of
    weights at a time: absolute values, capped at top + 1, sorted and coded
    in base top + 2, then a dense lookup of the positions, which reads -1
    for a code with a capped part.  The lists are cut from one list of all
    targets, once per table, so a solve reads no numpy.
    """
    import numpy as np

    weights = np.array(enumerate_partitions(n, top)[::-1], dtype=np.int64, ndmin=2)
    radix = (top + 2) ** np.arange(n, dtype=np.int64)
    # positions in the narrowest signed type: int16 up to n = 4, top = 20
    lookup = np.full((top + 2) ** n, -1, dtype=np.min_scalar_type(-len(weights)))
    lookup[weights[:, ::-1] @ radix] = np.arange(len(weights))
    dets, shifts = _weyl_shifts(n)
    positive = np.count_nonzero(dets == 1)
    targets, counts, positives = [], [], []
    rows = max(1, _BLOCK_ENTRIES // max(1, len(shifts)))
    for first in range(0, len(weights), rows):
        images = weights[first : first + rows, None, :] + shifts
        np.abs(images, out=images)
        np.minimum(images, top + 1, out=images)
        images.sort(axis=2)
        found = lookup[images @ radix]
        kept = found >= 0
        targets.append(found[kept])
        counts.append(kept.sum(axis=1))
        positives.append(kept[:, :positive].sum(axis=1))
    starts = [0, *np.cumsum(np.concatenate(counts)).tolist()]
    flat = np.concatenate(targets).tolist()
    rows = [
        (flat[first + k : last], flat[first : first + k])
        for first, last, k in zip(starts, starts[1:], np.concatenate(positives).tolist())
    ]
    weights = [tuple(w) for w in weights.tolist()]
    position = {w: i for i, w in enumerate(weights)}
    return weights, position, rows


def _orbit_coefficients(coeffs: Mapping[tuple[int, ...], int], table) -> dict:
    """The nonzero d_nu with sum_mu c_mu chi_mu = sum_nu d_nu m_nu, for the
    integer c_mu of ``_straighten`` on the weights of the
    ``_inversion_entries`` table, without expanding any character, keyed
    in decreasing (degree, lex) order.

    Times A(x^rho) = sum_w det(w) x^{w rho}, the sum is
    sum_mu c_mu A(x^{mu + rho}) = A(x^rho) sum_nu d_nu m_nu, whose
    coefficients at x^{kappa + rho} give
        d_kappa = c_kappa - sum_{w != 1} det(w) d_{dom(kappa + rho - w rho)}.
    rho - w rho is a nonzero sum of positive roots for w != 1, so the
    system is unitriangular in dominance and is solved from the top down,
    in integers.  Every target of a weight is listed before it, so d
    vanishes before the first weight with a nonzero c, where the solve
    starts; a table whose top is larger than the largest part of a nonzero
    c gives the same d, 0 on the weights it adds.
    """
    weights, position, rows = table
    d = [0] * len(weights)
    start = len(d)
    for mu, c in coeffs.items():
        if c:
            i = position[mu]
            d[i] = c
            start = min(start, i)
    get = d.__getitem__
    for i in range(start, len(d)):
        plus, minus = rows[i]
        d[i] += sum(map(get, plus)) - sum(map(get, minus))
    return {w: v for w, v in zip(weights, d) if v}


def sector_polynomials(
    lams: Sequence[tuple[int, ...]], params: ParamSet, classical: bool = False
) -> dict[tuple[int, ...], HLPolynomial]:
    """{lam: polynomial} for the partitions lams, all of one length n, built
    together: the primary construction, or with ``classical`` the classical
    formula, which requires t_3 = t_4 = 0 (a ValueError refuses it off that
    profile, and a lams entry that is not a partition within MAX_VARIABLES).

    P_lam is scale * sum_w w(x^{-lam} g / D), g the seed block over its
    denominator d and D the product of (1 - x^alpha) over positive roots;
    scale is 1 / monic_normalizer, or the quadratic norm for the classical
    formula.  Since D = (-1)^{n^2} x^rho A(x^rho), P_lam is
    (-1)^{n^2} A(x^{-lam-rho} g) / A(x^rho) = s sum_mu c_mu chi_mu, with c
    the integers of ``_straighten`` and s = (-1)^{n^2} scale / d.

    The partitions that read one seed block (one zero count; for the
    classical formula, the block without zero parts) are straightened in
    shared passes of at most _BLOCK_ENTRIES exponent entries, or of one
    partition whose block is larger.  Each polynomial holds the one
    ``_inversion_entries`` table of the largest part of lams, on which its
    orbit expansion is solved when read, and is checked as it is built, in
    the order of lams.
    """
    if classical and params.profile != "two":
        raise ValueError("the classical formula requires the two-parameter profile")
    n = len(lams[0])
    for lam in lams:
        if not is_partition(lam):
            raise ValueError(f"not a partition: {lam}")
    check_variables(n)
    rho = weyl_vector(n)
    blocks = defaultdict(list)
    for lam in lams:
        blocks[0 if classical else multiplicity(lam, 0)].append(lam)
    straightened = {}
    for zero_count, block in blocks.items():
        exponents, coefficients, denominator = _seed_block(n, zero_count, params)
        per_pass = max(1, _BLOCK_ENTRIES // max(1, exponents.size))
        for first in range(0, len(block), per_pass):
            batch = block[first : first + per_pass]
            shifts = [[p + r for p, r in zip(lam, rho)] for lam in batch]
            for lam, characters in zip(batch, _straighten(exponents, coefficients, shifts)):
                straightened[lam] = characters, denominator
    table = _inversion_entries(n, max(max(lam, default=0) for lam in lams))
    out = {}
    for lam in lams:
        characters, denominator = straightened[lam]
        scale = quadratic_norm(lam, params) if classical else 1 / monic_normalizer(lam, params)
        factor = (-1) ** (n * n) * scale / denominator
        out[lam] = HLPolynomial(lam, params, characters, factor, table)
    return out


def check_variables(n: int) -> None:
    """Refuse exact construction in more than MAX_VARIABLES variables with
    a ValueError; callers that list partitions check n before listing them."""
    if n > MAX_VARIABLES:
        raise ValueError(f"exact construction supports at most {MAX_VARIABLES} variables")


#: No CLI run rereads this cache: ``poly`` builds each polynomial once, and
#: the suites build theirs by ``sector_polynomials``.  It stays for in-process
#: callers that ask for a polynomial again (demo 01 does), and because the
#: benchmark's traced spans read its ``cache_info`` for the hit ratio of
#: exact construction.  The bound stops parameter sweeps from growing memory.
@lru_cache(maxsize=128)
def hl_polynomial(lam: tuple[int, ...], params: ParamSet) -> HLPolynomial:
    """Primary exact construction by straightening into Sp(2n) characters:
    ``sector_polynomials`` of lam alone.

    The plane-wave coefficient times x^{-lam} is put over the full Weyl-type
    denominator (missing (1 - x_j^2) factors for zero parts are topped up in
    the numerator), summed over the group, and scaled monic.
    """
    return sector_polynomials([lam], params)[lam]


@lru_cache(maxsize=128)
def macdonald_formula(lam: tuple[int, ...], params: ParamSet) -> HLPolynomial:
    """Classical two-parameter construction (requires t_3 = t_4 = 0).

    Uses the lambda-independent plane-wave coefficient, whose denominator
    carries (1 - x_j^2) for every j, and scales by the quadratic norm
    instead of the monic normalizer.  With t_3 = t_4 = 0 its numerator is
    the seed block without zero parts, so both constructions share it, and
    share ``sector_polynomials``.
    """
    return sector_polynomials([lam], params, classical=True)[lam]


def principal_specialization(hl: HLPolynomial) -> Fraction:
    """Exact value of the polynomial at x_j = tau_j = q^{n-1-j} t_1.

    Contract: equals 1 / principal_normalizer (verified by the test suite;
    evaluation is algebraic, so any nonzero rational t_1 is admissible).

    The orbit sum m_mu(x) is the sum over the distinct rearrangements nu of
    mu of prod_j f(x_j, nu_j), with f(x, 0) = 1 and f(x, m) = x^m + x^-m.
    With x_j = N_j / D_j and L = lam_1, no smaller than any part of the
    expansion, (N_j D_j)^L f(x_j, m) = (N_j^2m + D_j^2m) (N_j D_j)^(L-m) is
    an integer.  The scaled sum over the rearrangements of the last k
    positions depends only on the k parts left to place, so each is
    computed once across the expansion.  The value is the scale times one
    integer sum of the integer orbit coefficients over prod_j (N_j D_j)^L.
    """
    n, top = len(hl.lam), max(hl.lam, default=0)
    taus = tau_vector(n, hl.params)
    columns = [
        [(x.numerator * x.denominator) ** top]
        + [(x.numerator ** (2 * m) + x.denominator ** (2 * m))
           * (x.numerator * x.denominator) ** (top - m) for m in range(1, top + 1)]
        for x in taus
    ]

    @cache
    def rearranged(parts: tuple[int, ...]) -> int:
        if not parts:
            return 1
        column = columns[n - len(parts)]
        # parts is decreasing: each distinct value is placed once, at its first copy
        return sum(
            column[v] * rearranged(parts[:i] + parts[i + 1 :])
            for i, v in enumerate(parts)
            if not i or parts[i - 1] != v
        )

    numerator = sum(d * rearranged(mu) for mu, d in hl.orbit.items())
    denominator = math.prod((x.numerator * x.denominator) ** top for x in taus)
    return hl.scale * Fraction(numerator, denominator)


def recurrence_sector(n: int, max_part: int, params: ParamSet) -> tuple[list, dict]:
    """(states, polynomials) of a ``pieri`` or ``eigen`` run: the length-n
    partitions with parts <= max_part, listed after the guard and budget, and
    their ``sector_polynomials`` with those of their unit-step neighbours."""
    params.ensure_generic(n, max_part + 1)
    check_sector_budget(n, max_part, params, neighbours=True)
    states = enumerate_partitions(n, max_part)
    lams = dict.fromkeys([*states, *(t for lam in states for _, _, t in unit_steps(lam))])
    return states, sector_polynomials(list(lams), params)


def verify_pieri(n: int, max_part: int, params: ParamSet) -> dict[tuple[int, ...], dict]:
    """Left side minus right side of the lattice recurrence at each state of
    one ``recurrence_sector``, in the orbit-sum basis: its nonzero
    coefficients in decreasing (degree, lex) order; contract: empty.

    LHS: P_lam * (m_(1) - sum_j (tau_j + 1/tau_j)).
    RHS: sum over valid steps of the step coefficient times
    (P_{lam +- e_j} - P_lam), for P_mu = principal_normalizer(mu) p_mu.
    Both sides are taken on the construction's characters, where m_(1), the
    vector character, moves chi_mu to the chi_nu of the ``unit_steps`` nu of
    mu (the Pieri rule of Koike and Terada): one integer combination over the
    lcm of its factors' denominators, expanded in orbit sums only if nonzero.
    """
    states, polys = recurrence_sector(n, max_part, params)
    normalizers = {lam: principal_normalizer(lam, params) for lam in polys}
    offset = sum((tj + 1 / tj for tj in tau_vector(n, params)), Fraction(0))
    residuals = {}
    for lam in states:
        steps = [(pieri_coeff(lam, j, step, params), target) for j, step, target in unit_steps(lam)]
        own = normalizers[lam] * polys[lam].scale
        factors = [own, (sum(c for c, _ in steps) - offset) * own]
        factors += [-c * normalizers[target] * polys[target].scale for c, target in steps]
        common = math.lcm(*(factor.denominator for factor in factors))
        up, diagonal, *weights = (f.numerator * (common // f.denominator) for f in factors)
        total = defaultdict(int)
        for mu, c in polys[lam].characters.items():
            total[mu] += diagonal * c
            for _, _, nu in unit_steps(mu):
                total[nu] += up * c
        for weight, (_, target) in zip(weights, steps):
            for mu, c in polys[target].characters.items():
                total[mu] += weight * c
        # m_(1) moves a character of a state by one step, to parts no larger
        # than those of the neighbours, which the sector's table holds
        residual = _orbit_coefficients(total, polys[lam].table) if any(total.values()) else {}
        residuals[lam] = {mu: Fraction(d, common) for mu, d in residual.items()}
    return residuals
