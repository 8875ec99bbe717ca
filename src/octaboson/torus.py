"""Orthogonality weight and numerical inner products on the torus.

The weight is analytic on the torus (its poles sit off |z| = 1 because
0 < q < 1 and |t_r| < 1), so the tensor-product trapezoidal rule converges
geometrically in the number M of nodes per angle.  Exact identity
certification never relies on this module; it provides the quadrature side
of the orthogonality checks and the Gram matrices of the numerical route.

The rule is applied in coefficient space (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014): the
M-point rule sees a Laurent polynomial only through its Fourier
coefficients folded modulo M.  With f = sum_a f_a x^a, g = sum_b g_b x^b
and w_M[d] = sum_k |weight|^2(2 pi k / M) e^{-2 pi i <d, k> / M} / M^n,

    <f, g>_M = sum_{a, b} f_a g_b w_M[(b - a) mod M] / |W|,

which is the grid sum itself, not an approximation of it: differences that
leave the grid box wrap exactly as on the grid.  There is one assembly,
``gram_matrix``; ``inner_product`` is the off-diagonal entry of the Gram
matrix of its two arguments.

Each sign flip z_j -> 1/z_j lies in W, and |1 - z^{-beta}| = |1 - z^beta|
on the torus, so the grid weight is unchanged by k_j -> -k_j mod M.  It is
therefore evaluated only at 0 <= k_j <= M // 2, and its transform is a
real product of cosines: w_M is real, even in every d_j, and tabulated at
0 <= d_j <= M // 2 by contracting each axis with a folded cosine matrix.
The Gram matrix comes out real.  The only work that grows with M is this
table, on (M // 2 + 1)^n nodes, cached per (params, n, M).

``aliasing_bound`` states how far the rule is from the integral, and
``choose_points`` picks M from it when the user gives none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import budget
from .laurent import LaurentPoly
from .partitions import group_order, positive_roots
from .qkernels import ParamSet

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


#: One entry holds (M // 2 + 1)^n floats, about 8 M^n / 2^n bytes: 1.5 MB
#: at n = 4, M = 40, and at most 8 MB within the default node budget.
@lru_cache(maxsize=16)
def _weight_fourier(params: ParamSet, n: int, m: int) -> np.ndarray:
    """w_M[d] at 0 <= d_j <= M // 2, shape (M // 2 + 1,) * n: the weight's
    Fourier coefficients folded modulo M, the only table the rule needs.

    The weight is even in every k_j, so the DFT along an axis is the real
    sum over k_j <= M // 2 of fold(k_j) cos(2 pi d_j k_j / M) / M, where
    fold counts k_j and M - k_j: 1 at k_j = 0 and 2 k_j = M, else 2.
    """
    table = _weight_sq_grid(params, n, m)
    if n:  # at n = 0 the table is 1 and the budget leaves M unbounded
        half = np.arange(m // 2 + 1)
        fold = np.where((half == 0) | (2 * half == m), 1.0, 2.0)
        cos = np.cos(np.arange(m) * (2.0 * np.pi / m))
        matrix = fold * cos[np.outer(half, half) % m] / m
        # each pass sums the leading axis k_j and appends d_j last, so after
        # n passes the axes are back in order
        for _ in range(n):
            table = np.tensordot(table, matrix, axes=([0], [1]))
    return table


def inner_product(
    f: LaurentPoly, g: LaurentPoly, params: ParamSet, quad: QuadratureSpec
) -> complex:
    """Trapezoidal approximation of the weighted torus inner product.

    The integrand is smooth and periodic, so the error decays geometrically
    in points_per_dim with rate max(q, |t_r|); ``aliasing_bound`` bounds it.
    """
    return complex(gram_matrix([f, g], params, quad)[0, 1])


def _coefficients(basis: Sequence[LaurentPoly], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(E, U): the (k, |U|) matrix E of the coefficients on U, and the
    union U of the basis' exponent vectors as a (|U|, n) integer array."""
    columns: dict[tuple[int, ...], int] = {}
    for p in basis:
        for exp in p.terms:
            columns.setdefault(exp, len(columns))
    coeffs = np.zeros((len(basis), len(columns)))
    for i, p in enumerate(basis):
        for exp, c in p.terms.items():
            coeffs[i, columns[exp]] = float(c)
    return coeffs, np.array(list(columns), dtype=np.intp).reshape(len(columns), n)


def gram_matrix(
    basis: Sequence[LaurentPoly], params: ParamSet, quad: QuadratureSpec
) -> np.ndarray:
    """Matrix of pairwise inner products of the basis, real and symmetric:
    E K E^T / |W| with K[a, b] = w_M[(b - a) mod M] for a, b in the union
    of the basis' exponents, read from the table at min(d_j, M - d_j)."""
    n, m = quad.n, quad.points_per_dim
    if any(p.nvars != n for p in basis):
        raise ValueError("dimension mismatch between basis and grid")
    coeffs, exps = _coefficients(basis, n)
    # flat index of the folded (b - a) mod M in the C-ordered table, one axis at a time
    flat = np.zeros((len(exps), len(exps)), dtype=np.intp)
    for j in range(n):
        d = (exps[None, :, j] - exps[:, None, j]) % m
        flat = flat * (m // 2 + 1) + np.minimum(d, m - d)
    kernel = _weight_fourier(params, n, m).ravel()[flat]
    return coeffs @ kernel @ coeffs.T / group_order(n)


def _log_weight_sup(radius: np.ndarray, n: int, params: ParamSet) -> np.ndarray:
    """log of the bound S(R) on |w(z)| over |z_i| = R, |z_k| = 1 (k != i);
    see ``aliasing_bound`` for the factor count."""
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


def _aliasing_terms(basis: Sequence[LaurentPoly], params: ParamSet):
    """(n, log R, log of the M-independent factor) on the radii
    R = rho^{-s}, s = 1/RADII, ..., 1 - 1/RADII; None if the rule is exact."""
    n = basis[0].nvars if basis else 0
    coeffs, exps = _coefficients(basis, n)
    if n == 0 or not coeffs.any():
        return None  # a constant integrand: the rule is exact
    norm = float(np.max(np.abs(coeffs).sum(axis=1)))
    span = int(np.max(exps.max(axis=0) - exps.min(axis=0)))
    rho = max([float(params.q)] + [abs(float(t)) for t in params.ts])
    radius = (1 / rho) ** (np.arange(1, RADII) / RADII)
    log_r = np.log(radius)
    base = (
        2 * math.log(norm) - math.log(group_order(n))
        + _log_weight_sup(radius, n, params) + span * log_r
    )
    return n, log_r, base


def _bound_at(terms, m: int) -> float:
    if terms is None:
        return 0.0
    n, log_r, base = terms
    log_y = n * math.log(3) - m * log_r
    valid = log_y < 0
    if not valid.any():
        return math.inf
    log_bound = base[valid] + log_y[valid] - np.log(-np.expm1(log_y[valid]))
    return float(np.exp(np.min(log_bound)))


def aliasing_bound(basis: Sequence[LaurentPoly], params: ParamSet, m: int) -> float:
    """Upper bound on |gram_matrix(basis) - exact Gram| in every entry, for
    the M-point rule in exact arithmetic.

    Derivation.  The rule's error on <f, g> is
    sum_{a,b} f_a g_b sum_{k != 0} w_{b-a+Mk} / |W|, so it is at most
    ||f||_1 ||g||_1 A / |W| with A = max_d sum_{k != 0} |w_{d+Mk}| over
    differences |d_j| <= D, the widest exponent span of the basis.

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
    return _bound_at(_aliasing_terms(basis, params), m)


def choose_points(basis: Sequence[LaurentPoly], params: ParamSet, tol: float) -> int:
    """The smallest M in steps of POINTS_STEP whose aliasing bound is at
    most tol / 2, leaving the other half of the tolerance to roundoff.

    Raises BudgetExceededError, with that M as evidence, when its grid
    (or, at n = 1, its cosine matrix) exceeds the node budget.
    """
    terms = _aliasing_terms(basis, params)
    m = POINTS_STEP
    while _bound_at(terms, m) > tol / 2:
        m += POINTS_STEP
    _check_nodes(m, basis[0].nvars if basis else 0)
    return m
