"""Orthogonality weight and numerical inner products on the torus.

The weight is analytic on the torus (its poles sit off |z| = 1 because
|q| < 1 and |t_r| < 1), so the tensor-product trapezoidal rule converges
geometrically in the number of nodes per dimension.  Exact identity
certification never relies on this module; it provides the quadrature side
of the orthogonality checks and the Gram matrices of the numerical route.

There is one assembly, ``gram_matrix``: it evaluates each polynomial on the
grid once and weights one conjugated row at a time.  ``inner_product`` is
the off-diagonal entry of the Gram matrix of its two arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .laurent import LaurentPoly
from .partitions import group_order
from .qkernels import ParamSet

BUDGET_ENV = "OCTABOSON_BUDGET"
DEFAULT_NODE_BUDGET = 4_000_000


class BudgetExceededError(RuntimeError):
    """The requested grid exceeds the configured node budget."""


def node_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    return int(raw) if raw else DEFAULT_NODE_BUDGET


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
        if self.points_per_dim**self.n > node_budget():
            raise BudgetExceededError(
                f"{self.points_per_dim}^{self.n} nodes exceed the budget "
                f"{node_budget()} (set {BUDGET_ENV} to raise it)"
            )


@lru_cache(maxsize=16)
def _xi_grid(n: int, m: int) -> np.ndarray:
    """All M^n grid points 2*pi*k/M as an (M^n, n) array."""
    if n == 0:
        return np.zeros((1, 0))
    axes = np.arange(m) * (2.0 * np.pi / m)
    mesh = np.meshgrid(*([axes] * n), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


@lru_cache(maxsize=32)
def _weight_sq_grid(params: ParamSet, n: int, m: int) -> np.ndarray:
    """|weight|^2 at every grid node."""
    xi = _xi_grid(n, m)
    q = float(params.q)
    value = np.ones(xi.shape[0], dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            diff = np.exp(1j * (xi[:, j] - xi[:, k]))
            summ = np.exp(1j * (xi[:, j] + xi[:, k]))
            value *= (1 - diff) * (1 - summ) / ((1 - q * diff) * (1 - q * summ))
    for j in range(n):
        e1 = np.exp(1j * xi[:, j])
        value *= 1 - e1 * e1
        for t in params.ts:
            value /= 1 - float(t) * e1
    return np.abs(value) ** 2


def _eval_grid(p: LaurentPoly, xi: np.ndarray) -> np.ndarray:
    """Evaluate a trigonometric polynomial at all grid nodes."""
    out = np.zeros(xi.shape[0], dtype=complex)
    for exp, coeff in p.terms.items():
        out += float(coeff) * np.exp(1j * (xi @ np.asarray(exp, dtype=float)))
    return out


def inner_product(
    f: LaurentPoly, g: LaurentPoly, params: ParamSet, quad: QuadratureSpec
) -> complex:
    """Trapezoidal approximation of the weighted torus inner product.

    The integrand is smooth and periodic, so the error decays geometrically
    in points_per_dim with rate max(|q|, |t_r|).
    """
    return complex(gram_matrix([f, g], params, quad)[0, 1])


def gram_matrix(
    basis: Sequence[LaurentPoly], params: ParamSet, quad: QuadratureSpec
) -> np.ndarray:
    """Matrix of pairwise inner products of the basis (Hermitian up to
    quadrature roundoff).

    Each polynomial is evaluated on the grid once; column j is the
    evaluated block against the weighted conjugate of polynomial j, so no
    weighted or conjugated copy of the whole block is made.
    """
    n, m = quad.n, quad.points_per_dim
    if any(p.nvars != n for p in basis):
        raise ValueError("dimension mismatch between basis and grid")
    xi = _xi_grid(n, m)
    weight = _weight_sq_grid(params, n, m)
    evaluated = np.empty((len(basis), xi.shape[0]), dtype=complex)
    for i, p in enumerate(basis):
        evaluated[i] = _eval_grid(p, xi)
    gram = np.empty((len(basis), len(basis)), dtype=complex)
    for j in range(len(basis)):
        gram[:, j] = evaluated @ np.conj(evaluated[j] * weight)
    gram /= xi.shape[0] * group_order(n)
    return gram


def convergence_probe(
    f: LaurentPoly,
    g: LaurentPoly,
    params: ParamSet,
    m_list: Sequence[int],
) -> list[complex]:
    """Inner products along an increasing sequence of grid resolutions."""
    if list(m_list) != sorted(m_list):
        raise ValueError("m_list must be increasing")
    return [
        inner_product(f, g, params, QuadratureSpec(points_per_dim=m, n=f.nvars))
        for m in m_list
    ]
