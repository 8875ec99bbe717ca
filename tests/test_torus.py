import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaboson.budget import BudgetExceededError
from octaboson.hallittlewood import hl_polynomial, monomial_symmetric
from octaboson.laurent import LaurentPoly, apply_w
from octaboson.partitions import (
    enumerate_partitions,
    group_order,
    hyperoctahedral_group,
    lower_set,
)
from octaboson.qkernels import ParamSet, quadratic_norm
from octaboson.torus import (
    QuadratureSpec,
    _log_weight_sup,
    _weight_sq_grid,
    aliasing_bound,
    choose_points,
    convergence_probe,
    gram_matrix,
    inner_product,
)


def nodes(n: int, m: int) -> np.ndarray:
    """All M^n grid points 2 pi k / M as an (M^n, n) array, in C order."""
    axes = np.arange(m) * (2.0 * np.pi / m)
    mesh = np.meshgrid(*([axes] * n), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1).reshape(m**n, n)


def weight_delta(xi, params) -> complex:
    """The weight at a single point, by plain scalar evaluation: the
    pointwise oracle for the real-factor ``_weight_sq_grid``."""
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


def grid_gram(basis, params, m: int) -> np.ndarray:
    """The M-point rule on the grid: every polynomial evaluated at every
    node, one exp per term, against the pointwise weight.  The oracle of
    the coefficient-space ``gram_matrix``."""
    n = basis[0].nvars
    xi = nodes(n, m)
    weight = np.array([abs(weight_delta(list(x), params)) ** 2 for x in xi])
    evaluated = np.zeros((len(basis), len(xi)), dtype=complex)
    for i, p in enumerate(basis):
        for exp, coeff in p.terms.items():
            evaluated[i] += float(coeff) * np.exp(1j * (xi @ np.asarray(exp, dtype=float)))
    return evaluated @ np.conj(evaluated * weight).T / (len(xi) * group_order(n))


def test_weight_zeros(params4):
    assert abs(weight_delta([0.0], params4)) < 1e-15
    assert abs(weight_delta([math.pi], params4)) < 1e-12


def test_weight_two_codings_agree(params4):
    # pointwise complex evaluation against the real-factor grid
    for n, m in ((1, 8), (2, 8), (3, 5)):
        grid = nodes(n, m)
        sq = _weight_sq_grid(params4, n, m).ravel()
        for idx in range(0, grid.shape[0], 3):
            xi = grid[idx]
            direct = abs(weight_delta(list(xi), params4)) ** 2
            assert abs(direct - sq[idx]) < 1e-12


small_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def laurent_bases(draw):
    """(basis, M): two or three random Laurent polynomials in one or two
    variables, exponents in [-6, 6], and a grid of 4 to 15 points, often
    narrower than the exponent span, so that differences wrap."""
    nvars = draw(st.integers(1, 2))
    exps = st.tuples(*([st.integers(-6, 6)] * nvars))
    terms = st.dictionaries(exps, small_coeffs, min_size=1, max_size=5)
    basis = [LaurentPoly(nvars, t) for t in draw(st.lists(terms, min_size=2, max_size=3))]
    return basis, draw(st.integers(4, 15))


@settings(max_examples=60, deadline=None)
@given(laurent_bases())
def test_gram_matches_grid_evaluation(case):
    basis, m = case
    params = ParamSet(
        q=Fraction(1, 2), ts=(Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5), Fraction(-1, 6))
    )
    quad = QuadratureSpec(points_per_dim=m, n=basis[0].nvars)
    assert np.max(np.abs(gram_matrix(basis, params, quad) - grid_gram(basis, params, m))) < 1e-12


def test_gram_matches_grid_evaluation_hl_basis(params4):
    # the Hall-Littlewood basis at n = 2 and 3, with grids that alias
    for n, max_part, m in ((2, 2, 5), (2, 2, 16), (3, 1, 6)):
        polys = [hl_polynomial(lam, params4).poly for lam in enumerate_partitions(n, max_part)]
        quad = QuadratureSpec(points_per_dim=m, n=n)
        diff = gram_matrix(polys, params4, quad) - grid_gram(polys, params4, m)
        assert np.max(np.abs(diff)) < 1e-12


def test_aliasing_bound_holds(params4, param_triple):
    # the bound dominates the observed error of coarse grids against a fine one
    for params in param_triple:
        for n, max_part in ((1, 3), (2, 2)):
            polys = [hl_polynomial(lam, params).poly for lam in enumerate_partitions(n, max_part)]
            fine = gram_matrix(polys, params, QuadratureSpec(points_per_dim=256, n=n))
            previous = math.inf
            for m in (8, 16, 24, 32, 48):
                coarse = gram_matrix(polys, params, QuadratureSpec(points_per_dim=m, n=n))
                bound = aliasing_bound(polys, params, m)
                assert np.max(np.abs(coarse - fine)) <= bound
                assert bound < previous
                previous = bound
    assert aliasing_bound([LaurentPoly.one(0)], params4, 8) == 0.0


def test_aliasing_bound_holds_for_wide_spans(param_triple):
    # monomials whose differences reach past M / 2, where the R^D factor
    # of the bound carries the aliased low modes of the weight
    for params in param_triple:
        for n, degrees in ((1, range(-6, 7)), (2, range(-3, 4))):
            basis = [LaurentPoly(n, {(d,) + (-d,) * (n - 1): Fraction(1)}) for d in degrees]
            fine = gram_matrix(basis, params, QuadratureSpec(points_per_dim=256, n=n))
            for m in (8, 12, 16, 24):
                coarse = gram_matrix(basis, params, QuadratureSpec(points_per_dim=m, n=n))
                assert np.max(np.abs(coarse - fine)) <= aliasing_bound(basis, params, m)


def continued_weight(z, params) -> complex:
    """w(z) = Delta(z) Delta(1/z) off the torus, where |weight|^2 = w."""
    q = float(params.q)

    def delta(x):
        value = 1.0 + 0.0j
        for j in range(len(x)):
            for k in range(j + 1, len(x)):
                for u in (x[j] / x[k], x[j] * x[k]):
                    value *= (1 - u) / (1 - q * u)
            value *= 1 - x[j] ** 2
            for t in params.ts:
                value /= 1 - float(t) * x[j]
        return value

    return delta(z) * delta([1 / x for x in z])


def test_weight_sup_bounds_the_continued_weight(param_triple):
    # S(R) of the Cauchy estimate dominates |w| on |z_0| = R with the
    # other variables on the circle, close to the poles too
    axis = np.linspace(0.0, math.pi, 16)
    circle = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    for params in param_triple:
        rho = max([float(params.q)] + [abs(float(t)) for t in params.ts])
        radius = (1 / rho) ** np.array([0.5, 0.9, 0.99])
        for n in (1, 2, 3):
            sup = np.exp(_log_weight_sup(radius, n, params))
            for r, bound in zip(radius, sup):
                largest = max(
                    abs(continued_weight([r * np.exp(1j * a), *np.exp(1j * np.array(rest))], params))
                    for a in axis
                    for rest in itertools.product(circle, repeat=n - 1)
                )
                assert largest <= bound


def test_choose_points(params4, monkeypatch):
    polys = [hl_polynomial(lam, params4).poly for lam in enumerate_partitions(2, 2)]
    m = choose_points(polys, params4, 1e-8)
    assert m % 8 == 0
    assert aliasing_bound(polys, params4, m) <= 0.5e-8 < aliasing_bound(polys, params4, m - 8)
    assert choose_points([LaurentPoly.one(0)], params4, 1e-8) == 8
    monkeypatch.setenv("OCTABOSON_BUDGET", str(m * m - 1))
    with pytest.raises(BudgetExceededError) as info:
        choose_points(polys, params4, 1e-8)
    assert info.value.evidence == {"M": m, "n": 2, "nodes": m * m, "budget": m * m - 1}


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
    # for the constant and folds every other Fourier mode modulo M
    for m in (4, 8, 16):
        grid = nodes(1, m)[:, 0]
        assert np.ones(grid.shape[0]).mean() == 1.0
        for a in range(-2 * m, 2 * m + 1):
            expected = 1.0 if a % m == 0 else 0.0
            assert abs(np.exp(1j * a * grid).mean() - expected) < 1e-14


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
