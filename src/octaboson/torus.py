"""Orthogonality weight and numerical inner products on the torus.

The weight is analytic on the torus (its poles sit off |z| = 1 because
0 < q < 1 and |t_r| < 1), so the tensor-product trapezoidal rule converges
geometrically in the number M of nodes per angle.  Exact identity
certification never relies on this module; it provides the quadrature side
of the orthogonality checks.

The rule is applied in coefficient space (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014): the
M-point rule sees a Laurent polynomial only through its Fourier
coefficients folded modulo M.  With f = sum_a f_a x^a, g = sum_b g_b x^b
and w_M[d] = sum_k |weight|^2(2 pi k / M) e^{-2 pi i <d, k> / M} / M^n,

    <f, g>_M = sum_{a, b} f_a g_b w_M[(b - a) mod M] / |W|,

the grid sum itself: differences that leave the grid box wrap as on it.

The polynomials are W-invariant and given by their orbit-sum expansions
f = sum_mu c_mu m_mu.  The weight is W-invariant too, so the sum over
a in W mu is the same for every b in W nu, and the orbit sums' Gram is

    G[mu, nu] = |W nu| sum_{a in W mu} w_M[(nu - a) mod M] / |W|,

one gather over the orbit elements of the union of the supports; the
polynomials' Gram is C G C^T over their coefficients C.  There is one
assembly, ``gram_matrix``; ``inner_product`` is its off-diagonal entry.

Each sign flip z_j -> 1/z_j lies in W, so the grid weight is unchanged by
k_j -> -k_j mod M: it is evaluated only at 0 <= k_j <= M // 2, and w_M is
real, even in every d_j, and tabulated by contracting each axis with a
folded cosine matrix.  Orbit sums with parts up to top differ by
|d_j| <= 2 top, so the contraction keeps only the band
d_j <= min(2 top, M // 2): 5 cosine rows of 97 at M = 192, top = 2.  The
only work that grows with M is this table, built once per Gram assembly.

``aliasing_bound`` states how far the rule is from the integral, and
``choose_points`` picks M from it when the user gives none.

``verify_orthogonality`` runs the ``orthogonality`` and ``norms`` suites whole.

As in ``hallittlewood``, numpy is imported inside the functions that use
it, so that loading the package for an operator suite does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Mapping, Sequence

from . import budget, hallittlewood
from .partitions import enumerate_partitions, group_order, orbit, positive_roots
from .qkernels import ParamSet, quadratic_norm

if TYPE_CHECKING:
    import numpy as np

#: an orbit-sum expansion sum_mu c_mu m_mu as mu -> c_mu, keyed by
#: dominant weights
Expansion = Mapping[tuple[int, ...], Real]

#: grid sizes tried by choose_points: 8, 16, 24, ...
POINTS_STEP = 8
#: number of annulus radii aliasing_bound minimizes over
RADII = 128


def _check_nodes(m: int, n: int) -> None:
    nodes = m**n
    budget.check(nodes, f"a grid of {m}^{n} = {nodes} nodes", {"M": m, "n": n, "nodes": nodes})
    # the cosine matrix of _weight_fourier has (M // 2 + 1)^2 entries, and
    # from n = 2 on no more than the grid has nodes
    if n == 1:
        entries = (m // 2 + 1) ** 2
        what = f"a cosine matrix of ({m} // 2 + 1)^2 = {entries} entries"
        budget.check(entries, what, {"M": m, "n": n, "entries": entries})


def _check_kernel(n: int, elements: int, weights: int) -> None:
    entries = elements * weights
    what = f"an orbit Gram kernel of {elements} x {weights} = {entries} entries"
    budget.check(entries, what, {"n": n, "entries": entries})


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform tensor grid with points_per_dim nodes per angle."""

    points_per_dim: int
    n: int

    def __post_init__(self) -> None:
        if self.points_per_dim < 4:
            raise ValueError("at least 4 points per dimension are required")
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        _check_nodes(self.points_per_dim, self.n)


def _weight_sq_grid(params: ParamSet, n: int, m: int) -> np.ndarray:
    """|weight|^2 at the nodes 2 pi k / M with 0 <= k_j <= M // 2, the
    nodes the sign flips do not repeat, as an array of shape (M // 2 + 1,) * n.

    Every factor is real, |1 - a e^{i phi}|^2 = 1 - 2 a cos(phi) + a^2, so
    each positive root beta reads one length-M table at the node index
    <beta, k> mod M: |1 - z^beta|^2 / |1 - q z^beta|^2 on the short roots,
    and on the long root 2 e_j, whose table is read at k_j,
    |1 - z_j^2|^2 over the boundary factors prod_r |1 - t_r z_j|^2.
    """
    import numpy as np

    cos = np.cos(np.arange(m) * (2.0 * np.pi / m))

    def factor(a: float, c: np.ndarray) -> np.ndarray:
        return 1.0 - 2.0 * a * c + a * a

    q = float(params.q)
    short = factor(1.0, cos) / factor(q, cos)
    long = factor(1.0, cos[2 * np.arange(m) % m])
    for t in params.ts:
        if t:
            long /= factor(float(t), cos)
    index = np.ogrid[(slice(0, m // 2 + 1),) * n]
    value = np.ones((m // 2 + 1,) * n)
    for beta in positive_roots(n):
        k = sum(b * i for b, i in zip(beta, index) if b)
        value *= short[k % m] if 2 not in beta else long[k // 2]
    return value


#: The grid it contracts holds (M // 2 + 1)^n floats, about 8 M^n / 2^n
#: bytes: 1.5 MB at n = 4, M = 40, and at most 8 MB within the default node
#: budget.
def _weight_fourier(params: ParamSet, n: int, m: int, band: int) -> np.ndarray:
    """w_M[d] at 0 <= d_j <= band <= M // 2, shape (band + 1,) * n: the
    weight's Fourier coefficients folded modulo M.

    The weight is even in every k_j, so the DFT along an axis is the real
    sum over k_j <= M // 2 of fold(k_j) cos(2 pi d_j k_j / M) / M, where
    fold counts k_j and M - k_j: 1 at k_j = 0 and 2 k_j = M, else 2.
    """
    import numpy as np

    table = _weight_sq_grid(params, n, m)
    if n:  # at n = 0 the table is 1 and the budget leaves M unbounded
        half = np.arange(m // 2 + 1)
        fold = np.where((half == 0) | (2 * half == m), 1.0, 2.0)
        cos = np.cos(np.arange(m) * (2.0 * np.pi / m))
        matrix = fold * cos[np.outer(half[: band + 1], half) % m] / m
        # each pass sums the leading axis k_j and appends d_j last, so after
        # n passes the axes are back in order
        for _ in range(n):
            table = np.tensordot(table, matrix, axes=([0], [1]))
    return table


def inner_product(f: Expansion, g: Expansion, params: ParamSet, quad: QuadratureSpec) -> complex:
    """Trapezoidal approximation of the weighted torus inner product of two
    orbit-sum expansions.

    The integrand is smooth and periodic, so the error decays geometrically
    in points_per_dim with rate max(q, |t_r|); ``aliasing_bound`` bounds it.
    """
    return complex(gram_matrix([f, g], params, quad)[0, 1])


def _support(expansions: Sequence[Expansion]) -> tuple[list[tuple[int, ...]], int]:
    """(support, top): the weights of the expansions' nonzero coefficients,
    each once, and the largest |entry| top among them, so that every
    exponent of their orbit sums lies in [-top, top]^n."""
    support = list(dict.fromkeys(mu for e in expansions for mu, c in e.items() if c))
    return support, max((max(map(abs, mu), default=0) for mu in support), default=0)


def gram_matrix(
    expansions: Sequence[Expansion], params: ParamSet, quad: QuadratureSpec
) -> np.ndarray:
    """Matrix of pairwise inner products of the orbit-sum expansions, real
    and symmetric: C G C^T over their coefficients C on the union of their
    supports, with the orbit Gram
    G[mu, nu] = |W nu| sum_{a in W mu} w_M[(nu - a) mod M] / |W|,
    read from the weight's table on the band 0 <= d_j <= min(2 top, M // 2).
    """
    import numpy as np

    n, m = quad.n, quad.points_per_dim
    if any(len(mu) != n for e in expansions for mu in e):
        raise ValueError("dimension mismatch between basis and grid")
    support, top = _support(expansions)
    if not support:
        return np.zeros((len(expansions), len(expansions)))
    orbits = [orbit(mu) for mu in support]
    elements = np.array([a for o in orbits for a in o], dtype=np.intp)
    elements = elements.reshape(len(elements), n)  # (1, 0) at n = 0
    _check_kernel(n, len(elements), len(support))
    # flat index of the folded (nu - a) mod M in the band table, axis by axis
    band = min(2 * top, m // 2)
    flat = np.zeros((len(elements), len(support)), dtype=np.intp)
    for j, column in enumerate(zip(*support)):
        d = (np.array(column) - elements[:, None, j]) % m
        flat = flat * (band + 1) + np.minimum(d, m - d)
    kernel = _weight_fourier(params, n, m, band).ravel()[flat]
    sizes = np.array([len(o) for o in orbits])
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    gram = np.add.reduceat(kernel, starts, axis=0) * sizes / group_order(n)
    coeffs = np.array([[float(e.get(mu, 0)) for mu in support] for e in expansions])
    return coeffs @ gram @ coeffs.T


def _log_weight_sup(radius: np.ndarray, n: int, params: ParamSet) -> np.ndarray:
    """log of the bound S(R) on |w(z)| over |z_i| = R, |z_k| = 1 (k != i);
    see ``aliasing_bound`` for the factor count."""
    import numpy as np

    q = float(params.q)
    ts = [abs(float(t)) for t in params.ts if t]
    log_r = np.log(radius)
    off_axis = (n - 1) * (n - 2) * math.log(4 / (1 + q) ** 2) + (n - 1) * (
        math.log(4) - 2 * sum(math.log1p(-t) for t in ts)
    )
    short = 2 * np.log1p(radius) - log_r - np.log((1 - q * radius) * (1 - q / radius))
    long = 2 * np.log1p(radius**2) - 2 * log_r
    for t in ts:
        long = long - np.log((1 - t * radius) * (1 - t / radius))
    return off_axis + 2 * (n - 1) * short + long


def _aliasing_terms(expansions: Sequence[Expansion], params: ParamSet):
    """(n, log R, log of the M-independent factor) on the radii
    R = rho^{-s}, s = 1/RADII, ..., 1 - 1/RADII; None if the rule is exact."""
    import numpy as np

    support, top = _support(expansions)
    n = len(support[0]) if support else 0
    if n == 0:
        return None  # a constant integrand: the rule is exact
    sizes = {mu: len(orbit(mu)) for mu in support}  # the terms of each orbit sum
    norm = max(sum(abs(float(c)) * sizes[mu] for mu, c in e.items() if c) for e in expansions)
    rho = max([float(params.q)] + [abs(float(t)) for t in params.ts])
    radius = (1 / rho) ** (np.arange(1, RADII) / RADII)
    log_r = np.log(radius)
    base = (
        2 * math.log(norm) - math.log(group_order(n))
        + _log_weight_sup(radius, n, params) + 2 * top * log_r
    )
    return n, log_r, base


def _bound_at(terms, m: int) -> float:
    import numpy as np

    if terms is None:
        return 0.0
    n, log_r, base = terms
    log_y = n * math.log(3) - m * log_r
    valid = log_y < 0
    if not valid.any():
        return math.inf
    log_bound = base[valid] + log_y[valid] - np.log(-np.expm1(log_y[valid]))
    return float(np.exp(np.min(log_bound)))


def aliasing_bound(expansions: Sequence[Expansion], params: ParamSet, m: int) -> float:
    """Upper bound on |gram_matrix(expansions) - exact Gram| in every entry,
    for the M-point rule in exact arithmetic.

    Derivation.  The rule's error on <f, g> is
    sum_{a,b} f_a g_b sum_{k != 0} w_{b-a+Mk} / |W|, so it is at most
    ||f||_1 ||g||_1 A / |W| with A = max_d sum_{k != 0} |w_{d+Mk}| over
    differences |d_j| <= D, the widest exponent span of the basis.  An
    orbit sum m_mu has |W mu| terms with coefficient 1, so ||f||_1 is
    sum |c_mu| |W mu|, and D = 2 top.

    w(z) = prod_{beta in Phi} (1 - z^beta) / [prod_{beta short} (1 - q z^beta)
    prod_{j, r, +-} (1 - t_r z_j^{+-1})] over the 2 n^2 roots Phi of C_n is
    analytic in z_i on rho < |z_i| < 1/rho, rho = max(q, |t_r|), with the
    other z_k on the circle.  For 1 < R < 1/rho the Cauchy estimate on
    |z_i| = R^{sign c_i} gives |w_c| <= S(R) R^{-|c_i|} for every i, where
    S(R) bounds |w| there (by w(z) = w(1/z) and W-invariance one S serves
    every i and sign).  Pair each root with its negative:
      - (n-1)(n-2) short pairs off axis i, |z^beta| = 1:
        |1 - u|^2 / |1 - q u|^2 <= 4 / (1 + q)^2 (decreasing in cos phi);
      - n - 1 long pairs off axis i with their boundary factors:
        <= 4 / prod_r (1 - |t_r|)^2;
      - 2(n-1) short pairs through axis i, |u| = R:
        |(1-u)(1-1/u)| / |(1-qu)(1-q/u)| <= (1+R)^2 / R / ((1-qR)(1-q/R));
      - the long pair of axis i with its boundary factors:
        (1+R^2)^2 / R^2 / prod_r (1-|t_r|R)(1-|t_r|/R).
    For k != 0 with |k|_inf = l, some coordinate has |d_i + M k_i| >= Ml - D,
    and at most (2l+1)^n <= 3^{nl} vectors k have |k|_inf = l, so
    A <= S(R) R^D y / (1 - y) with y = 3^n R^{-M} < 1.  The bound is the
    least of these over the radii R = rho^{-s}, s = 1/RADII, ..., 1 - 1/RADII.
    """
    return _bound_at(_aliasing_terms(expansions, params), m)


def choose_points(expansions: Sequence[Expansion], params: ParamSet, tol: float) -> int:
    """The smallest M in steps of POINTS_STEP whose aliasing bound is at
    most tol / 2, leaving the other half of the tolerance to roundoff.

    Raises BudgetExceededError, with that M as evidence, when its grid
    (or, at n = 1, its cosine matrix) exceeds the node budget.
    """
    terms = _aliasing_terms(expansions, params)
    m = POINTS_STEP
    while _bound_at(terms, m) > tol / 2:
        m += POINTS_STEP
    _check_nodes(m, 0 if terms is None else terms[0])
    return m


def verify_orthogonality(
    n: int, max_part: int, params: ParamSet, points: int | None, diagonal_only: bool
) -> tuple[int, float, list[tuple], bool]:
    """(M, tolerance, entries, pass) of the Gram of the polynomials of the
    length-n partitions with parts <= max_part: (lam, mu, value, exact
    value, absolute error) per pair lam <= mu, or on the diagonal alone.
    A given grid and the Gram kernel are checked before any construction:
    each polynomial is monic in its lower set, so the supports are the
    C(n + max_part, n) states, whose orbits hold (2 max_part + 1)^n points."""
    params.ensure_generic(n, max_part)
    tol = 1e-8 if n <= 2 else 1e-6
    quad = None if points is None else QuadratureSpec(points, n)
    hallittlewood.check_sector_budget(n, max_part, params)
    if quad is not None:
        _check_kernel(n, (2 * max_part + 1) ** n, math.comb(n + max_part, n))
    lams = enumerate_partitions(n, max_part)
    expansions = [hallittlewood.hl_polynomial(lam, params).expansion for lam in lams]
    if quad is None:
        quad = QuadratureSpec(choose_points(expansions, params, tol), n)
    gram = gram_matrix(expansions, params, quad)
    entries, ok = [], True
    for i, lam in enumerate(lams):
        for j, mu in enumerate(lams[i:], start=i):
            if diagonal_only and mu != lam:
                continue
            value = complex(gram[i, j])
            expected = quadratic_norm(lam, params) if lam == mu else 0
            err = abs(value - float(expected))
            ok = ok and err < tol * (1 + abs(float(expected)))
            entries.append((lam, mu, value, expected, err))
    return quad.points_per_dim, tol, entries, ok
