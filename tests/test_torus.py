import math
from fractions import Fraction

import numpy as np
import pytest

from octaboson.hallittlewood import hl_polynomial, monomial_symmetric
from octaboson.laurent import LaurentPoly, apply_w
from octaboson.partitions import enumerate_partitions, hyperoctahedral_group, lower_set
from octaboson.qkernels import quadratic_norm
from octaboson.torus import (
    BudgetExceededError,
    QuadratureSpec,
    _weight_sq_grid,
    _xi_grid,
    convergence_probe,
    gram_matrix,
    inner_product,
)


def weight_delta(xi, params) -> complex:
    """The weight at a single point, by plain scalar evaluation: the
    pointwise oracle for the vectorized ``_weight_sq_grid``."""
    n = len(xi)
    q = float(params.q)
    value = 1.0 + 0.0j
    for j in range(n):
        for k in range(j + 1, n):
            diff = np.exp(1j * (xi[j] - xi[k]))
            summ = np.exp(1j * (xi[j] + xi[k]))
            value *= (1 - diff) * (1 - summ) / ((1 - q * diff) * (1 - q * summ))
    for j in range(n):
        e1 = np.exp(1j * xi[j])
        value *= 1 - e1 * e1
        for t in params.ts:
            value /= 1 - float(t) * e1
    return complex(value)


def test_weight_zeros(params4):
    assert abs(weight_delta([0.0], params4)) < 1e-15
    assert abs(weight_delta([math.pi], params4)) < 1e-12


def test_weight_two_codings_agree(params4):
    # pointwise evaluation against the vectorized grid evaluation
    for n, m in ((1, 8), (2, 8)):
        grid = _xi_grid(n, m)
        sq = _weight_sq_grid(params4, n, m)
        for idx in range(0, grid.shape[0], 3):
            xi = grid[idx]
            direct = abs(weight_delta(list(xi), params4)) ** 2
            assert abs(direct - sq[idx]) < 1e-12


def test_inner_product_constant(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    one = LaurentPoly.one(1)
    value = inner_product(one, one, params4, quad)
    assert abs(value - float(quadratic_norm((0,), params4))) < 1e-10
    assert abs(value.imag) < 1e-12


def test_inner_product_zero_variables(params4):
    # one grid node, weight 1, group order 1: the product of the constants
    quad = QuadratureSpec(points_per_dim=8, n=0)
    f = LaurentPoly.constant(0, Fraction(3, 2))
    g = LaurentPoly.constant(0, Fraction(-2, 3))
    assert inner_product(f, g, params4, quad) == -1 + 0j
    with pytest.raises(ValueError):
        inner_product(f, LaurentPoly.one(1), params4, quad)


def test_orthogonality_small(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    p1 = hl_polynomial((1,), params4)
    p0 = hl_polynomial((0,), params4)
    assert abs(inner_product(p1.poly, p0.poly, params4, quad)) < 1e-10


def test_gram_matrix(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    g = gram_matrix([LaurentPoly.one(1)], params4, quad)
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - float(quadratic_norm((0,), params4))) < 1e-10

    quad2 = QuadratureSpec(points_per_dim=32, n=2)
    basis = [monomial_symmetric(mu) for mu in lower_set((2, 0))]
    g2 = gram_matrix(basis, params4, quad2)
    assert g2.shape == (4, 4)
    assert np.max(np.abs(g2 - g2.conj().T)) < 1e-12
    eigenvalues = np.linalg.eigvalsh(g2)
    assert np.all(eigenvalues > 0)

    polys = [hl_polynomial(lam, params4).poly for lam in enumerate_partitions(2, 2)]
    g3 = gram_matrix(polys, params4, QuadratureSpec(points_per_dim=64, n=2))
    off = g3 - np.diag(np.diag(g3))
    assert np.max(np.abs(off)) < 1e-8
    for i, lam in enumerate(enumerate_partitions(2, 2)):
        expected = float(quadratic_norm(lam, params4))
        assert abs(g3[i, i] - expected) < 1e-8 * (1 + abs(expected))


def test_convergence_probe(params4):
    one = LaurentPoly.one(1)
    values = convergence_probe(one, one, params4, [8, 16, 32, 64])
    diffs = [abs(values[i + 1] - values[i]) for i in range(3)]
    assert diffs[2] < diffs[1] < diffs[0]
    # geometric decay: contraction well below 1/2 from M = 32 on
    assert diffs[2] < 0.5 * diffs[1]

    m1 = monomial_symmetric((1,))
    v64, v128 = convergence_probe(m1, m1, params4, [64, 128])
    assert abs(v64 - v128) < 1e-12

    with pytest.raises(ValueError):
        convergence_probe(one, one, params4, [32, 16])


def test_trapezoid_exact_for_constants():
    # with the weight replaced by 1 the rule is exact at every resolution
    for m in (4, 8, 16):
        grid = _xi_grid(1, m)
        assert np.ones(grid.shape[0]).mean() == 1.0


def test_hermitian_symmetry_and_positivity(params4):
    quad = QuadratureSpec(points_per_dim=32, n=2)
    f = monomial_symmetric((2, 0))
    g = monomial_symmetric((1, 1))
    fg = inner_product(f, g, params4, quad)
    gf = inner_product(g, f, params4, quad)
    assert abs(fg - gf.conjugate()) < 1e-12
    ff = inner_product(f, f, params4, quad)
    assert ff.real > 0 and abs(ff.imag) < 1e-12


def test_measure_group_invariance(params4):
    quad = QuadratureSpec(points_per_dim=32, n=2)
    f = monomial_symmetric((2, 0)) + LaurentPoly(2, {(1, 0): Fraction(1, 3)})
    g = LaurentPoly(2, {(1, -1): Fraction(1, 2), (0, 0): Fraction(1)})
    base = inner_product(f, g, params4, quad)
    for w in hyperoctahedral_group(2):
        moved = inner_product(apply_w(w, f), apply_w(w, g), params4, quad)
        assert abs(moved - base) < 1e-10


def test_budget(monkeypatch):
    monkeypatch.setenv("OCTABOSON_BUDGET", "1000")
    with pytest.raises(BudgetExceededError):
        QuadratureSpec(points_per_dim=64, n=2)
    monkeypatch.delenv("OCTABOSON_BUDGET")
    QuadratureSpec(points_per_dim=64, n=2)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_dim=2, n=1)
