"""The coefficient-space trapezoidal rule against the pointwise grid.

``grid_gram`` evaluates Laurent polynomials at every node against the
weight computed point by point; the library's ``gram_matrix`` assembles
the Gram of orbit-sum expansions from the weight's folded Fourier table.
Non-invariant Laurent input goes to the grid oracle alone.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaboson import cli
from octaboson.budget import BudgetExceededError
from octaboson.hallittlewood import HLPolynomial, hl_polynomial, reconstruct_from_expansion
from octaboson.laurent import LaurentPoly, apply_w
from octaboson.partitions import (
    enumerate_partitions,
    group_order,
    hyperoctahedral_group,
    is_partition,
    lower_set,
    orbit,
)
from octaboson.qkernels import ParamSet, quadratic_norm
from octaboson.torus import (
    RADII,
    QuadratureSpec,
    _bound_at,
    _log_weight_sup,
    _weight_fourier,
    _weight_sq_grid,
    aliasing_bound,
    choose_points,
    gram_matrix,
    inner_product,
)
from orbit_oracle import monomial_symmetric


def nodes(n: int, m: int) -> np.ndarray:
    """All M^n grid points 2 pi k / M as an (M^n, n) array, in C order."""
    axes = np.arange(m) * (2.0 * np.pi / m)
    return np.array(list(itertools.product(axes, repeat=n))).reshape(m**n, n)


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


def pointwise_weight_sq(n: int, m: int, params) -> np.ndarray:
    """|weight|^2 at all M^n nodes, shape (M,) * n, by ``weight_delta``."""
    values = [abs(weight_delta(list(x), params)) ** 2 for x in nodes(n, m)]
    return np.array(values).reshape((m,) * n)


def test_weight_two_codings_agree(params4):
    # pointwise complex evaluation against the real-factor grid, on the
    # nodes the sign fold keeps, 0 <= k_j <= M // 2
    for n, m in ((1, 8), (2, 8), (3, 5)):
        half = (slice(0, m // 2 + 1),) * n
        sq = _weight_sq_grid(params4, n, m)
        assert sq.shape == (m // 2 + 1,) * n
        assert np.max(np.abs(pointwise_weight_sq(n, m, params4)[half] - sq)) < 1e-12


def expansion_basis(expansions, n: int) -> list[LaurentPoly]:
    """The expansions as Laurent polynomials, the input of ``grid_gram``."""
    return [reconstruct_from_expansion(e, n) for e in expansions]


def hl_expansions(n: int, max_part: int, params) -> list:
    return [hl_polynomial(lam, params).expansion for lam in enumerate_partitions(n, max_part)]


def test_weight_is_even_in_every_node_index(params4):
    # the premise of the fold: each sign flip z_j -> 1/z_j, which moves
    # the node k_j to -k_j mod M, leaves the weight unchanged
    for n, m in ((1, 7), (2, 8), (3, 5)):
        grid = pointwise_weight_sq(n, m, params4)
        for j in range(n):
            flipped = np.take(grid, -np.arange(m) % m, axis=j)
            assert np.max(np.abs(flipped - grid)) < 1e-12


def test_folded_table_is_the_fft_of_the_grid(params4):
    # every coefficient of the folded real table against the complex FFT
    # of the full pointwise grid, odd M (no middle node) included
    for n in (1, 2, 3):
        for m in (4, 5, 7, 8, 16):
            reference = np.fft.fftn(pointwise_weight_sq(n, m, params4)) / m**n
            table = _weight_fourier(params4, n, m, m // 2)
            assert table.dtype == np.float64 and table.shape == (m // 2 + 1,) * n
            for d in itertools.product(range(m), repeat=n):
                folded = tuple(min(c, m - c) for c in d)
                assert abs(reference[d] - table[folded]) < 1e-12


def test_folded_table_is_invariant_under_the_group(params4):
    # the premise of the orbit Gram: w_M[d] = w_M[w d] for every signed
    # permutation w, axis permutations as well as sign flips
    for n in (2, 3):
        for m in (5, 7, 8, 16):
            reference = np.fft.fftn(pointwise_weight_sq(n, m, params4)) / m**n
            for d in itertools.product(range(m), repeat=n):
                for w in hyperoctahedral_group(n):
                    moved = tuple(c % m for c in w.apply(d))
                    assert abs(reference[moved] - reference[d]) < 1e-12


def test_band_table_is_the_corner_of_the_whole_table(params4):
    # the band the Gram reads is the corner 0 <= d_j <= band of the table
    for n, m, band in ((1, 16, 3), (2, 192, 4), (3, 9, 2), (2, 8, 4)):
        whole = _weight_fourier(params4, n, m, m // 2)
        corner = _weight_fourier(params4, n, m, band)
        assert corner.shape == (band + 1,) * n
        assert np.max(np.abs(whole[(slice(0, band + 1),) * n] - corner)) < 1e-15


small_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def expansion_bases(draw):
    """(expansions, n, M): two or three random orbit-sum expansions in one
    to three variables on dominant weights with parts up to 6, and a grid of
    4 to 15 points, often narrower than the exponent span, so that
    differences wrap.  Each coefficient is divided by its orbit's size, so
    ||f||_1 <= 16 and the Gram's roundoff stays far below 1e-12."""
    n = draw(st.integers(1, 3))
    parts = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    weights = parts.map(lambda p: tuple(sorted(p, reverse=True)))
    terms = st.dictionaries(weights, small_coeffs, min_size=1, max_size=4)
    expansions = [
        {mu: c / len(orbit(mu)) for mu, c in e.items()}
        for e in draw(st.lists(terms, min_size=2, max_size=3))
    ]
    return expansions, n, draw(st.integers(4, 15))


@settings(max_examples=60, deadline=None)
@given(expansion_bases())
def test_gram_matches_grid_evaluation(case):
    expansions, n, m = case
    assert all(is_partition(mu) for e in expansions for mu in e)
    params = ParamSet(
        q=Fraction(1, 2), ts=(Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5), Fraction(-1, 6))
    )
    quad = QuadratureSpec(points_per_dim=m, n=n)
    basis = expansion_basis(expansions, n)
    assert np.max(np.abs(gram_matrix(expansions, params, quad) - grid_gram(basis, params, m))) < 1e-12


def test_gram_matches_grid_evaluation_hl_basis(params4):
    # the Hall-Littlewood basis at n = 0 to 3, with grids that alias
    for n, max_part, m in ((0, 0, 4), (1, 3, 5), (2, 2, 5), (2, 2, 16), (3, 1, 6), (3, 2, 7)):
        expansions = hl_expansions(n, max_part, params4)
        quad = QuadratureSpec(points_per_dim=m, n=n)
        diff = gram_matrix(expansions, params4, quad) - grid_gram(
            expansion_basis(expansions, n), params4, m
        )
        assert np.max(np.abs(diff)) < 1e-12


def test_aliasing_bound_holds(params4, param_triple):
    # the bound dominates the observed error of coarse grids against a fine one
    for params in param_triple:
        for n, max_part in ((1, 3), (2, 2)):
            polys = hl_expansions(n, max_part, params)
            fine = gram_matrix(polys, params, QuadratureSpec(points_per_dim=256, n=n))
            previous = math.inf
            for m in (8, 16, 24, 32, 48):
                coarse = gram_matrix(polys, params, QuadratureSpec(points_per_dim=m, n=n))
                bound = aliasing_bound(polys, params, m)
                assert np.max(np.abs(coarse - fine)) <= bound
                assert bound < previous
                previous = bound
    assert aliasing_bound([{(): 1}], params4, 8) == 0.0


def test_aliasing_bound_holds_for_wide_spans(param_triple):
    # orbit sums whose differences reach past M / 2, where the R^D factor
    # of the bound carries the aliased low modes of the weight, and the
    # Gram reads the whole table
    for params in param_triple:
        for n, degrees in ((1, range(7)), (2, range(4))):
            basis = [{(d,) * n: Fraction(1)} for d in degrees]
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
    polys = hl_expansions(2, 2, params4)
    m = choose_points(polys, params4, 1e-8)
    assert m % 8 == 0
    assert aliasing_bound(polys, params4, m) <= 0.5e-8 < aliasing_bound(polys, params4, m - 8)
    assert choose_points([{(): 1}], params4, 1e-8) == 8
    monkeypatch.setenv("OCTABOSON_BUDGET", str(m * m - 1))
    with pytest.raises(BudgetExceededError) as info:
        choose_points(polys, params4, 1e-8)
    assert info.value.evidence == {"M": m, "n": 2, "nodes": m * m, "budget": m * m - 1}


def laurent_aliasing_bound(basis, params, m: int) -> float:
    """``aliasing_bound`` read off Laurent polynomials: the largest 1-norm
    of their coefficients and the widest span of their exponents."""
    n = basis[0].nvars
    norm = max(sum(abs(float(c)) for c in p.terms.values()) for p in basis)
    exps = np.array([e for p in basis for e in p.terms]).reshape(-1, n)
    span = int(np.max(exps.max(axis=0) - exps.min(axis=0)))
    rho = max([float(params.q)] + [abs(float(t)) for t in params.ts])
    radius = (1 / rho) ** (np.arange(1, RADII) / RADII)
    log_r = np.log(radius)
    base = (
        2 * math.log(norm) - math.log(group_order(n))
        + _log_weight_sup(radius, n, params) + span * log_r
    )
    return _bound_at((n, log_r, base), m)


def test_aliasing_bound_reads_the_laurent_norm_and_span(param_triple):
    # the orbit sums' terms give the Laurent form's 1-norm and span, so the
    # bound and the grids it picks are those of the Laurent form
    for params in param_triple:
        for n, max_part in ((1, 3), (2, 3), (3, 2)):
            expansions = hl_expansions(n, max_part, params)
            basis = expansion_basis(expansions, n)
            for m in (8, 24, 64):
                expected = laurent_aliasing_bound(basis, params, m)
                assert aliasing_bound(expansions, params, m) == pytest.approx(expected, rel=1e-12)
    for n, m in ((1, 48), (2, 72), (3, 96)):
        tol = 1e-8 if n <= 2 else 1e-6
        assert choose_points(hl_expansions(n, 2, param_triple[0]), param_triple[0], tol) == m


def test_inner_product_constant(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    one = {(0,): 1}
    value = inner_product(one, one, params4, quad)
    assert abs(value - float(quadratic_norm((0,), params4))) < 1e-10
    assert abs(value.imag) < 1e-12


def test_inner_product_zero_variables(params4):
    # one grid node, weight 1, group order 1: the product of the constants
    quad = QuadratureSpec(points_per_dim=8, n=0)
    f = {(): Fraction(3, 2)}
    g = {(): Fraction(-2, 3)}
    assert inner_product(f, g, params4, quad) == -1 + 0j
    with pytest.raises(ValueError):
        inner_product(f, {(0,): 1}, params4, quad)


def test_orthogonality_small(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    p1 = hl_polynomial((1,), params4)
    p0 = hl_polynomial((0,), params4)
    assert abs(inner_product(p1.expansion, p0.expansion, params4, quad)) < 1e-10


def test_gram_matrix(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    g = gram_matrix([{(0,): 1}], params4, quad)
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - float(quadratic_norm((0,), params4))) < 1e-10

    quad2 = QuadratureSpec(points_per_dim=32, n=2)
    basis = [{mu: 1} for mu in lower_set((2, 0))]
    g2 = gram_matrix(basis, params4, quad2)
    assert g2.shape == (4, 4)
    assert np.max(np.abs(g2 - g2.conj().T)) < 1e-12
    eigenvalues = np.linalg.eigvalsh(g2)
    assert np.all(eigenvalues > 0)

    polys = hl_expansions(2, 2, params4)
    g3 = gram_matrix(polys, params4, QuadratureSpec(points_per_dim=64, n=2))
    off = g3 - np.diag(np.diag(g3))
    assert np.max(np.abs(off)) < 1e-8
    for i, lam in enumerate(enumerate_partitions(2, 2)):
        expected = float(quadratic_norm(lam, params4))
        assert abs(g3[i, i] - expected) < 1e-8 * (1 + abs(expected))


def convergence_probe(f, g, params, m_list) -> list[complex]:
    """Inner products of two expansions along an increasing sequence of
    grid resolutions."""
    n = len(next(iter(f)))
    return [inner_product(f, g, params, QuadratureSpec(points_per_dim=m, n=n)) for m in m_list]


def test_convergence_probe(params4):
    one = {(0,): 1}
    values = convergence_probe(one, one, params4, [8, 16, 32, 64])
    diffs = [abs(values[i + 1] - values[i]) for i in range(3)]
    assert diffs[2] < diffs[1] < diffs[0]
    # geometric decay: contraction well below 1/2 from M = 32 on
    assert diffs[2] < 0.5 * diffs[1]

    m1 = {(1,): 1}
    v64, v128 = convergence_probe(m1, m1, params4, [64, 128])
    assert abs(v64 - v128) < 1e-12


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
    f = {(2, 0): 1}
    g = {(1, 1): 1}
    fg = inner_product(f, g, params4, quad)
    gf = inner_product(g, f, params4, quad)
    assert abs(fg - gf.conjugate()) < 1e-12
    ff = inner_product(f, f, params4, quad)
    assert ff.real > 0 and abs(ff.imag) < 1e-12


def test_measure_group_invariance(params4):
    # non-invariant input: the pointwise grid rule
    f = monomial_symmetric((2, 0)) + LaurentPoly(2, {(1, 0): Fraction(1, 3)})
    g = LaurentPoly(2, {(1, -1): Fraction(1, 2), (0, 0): Fraction(1)})
    base = grid_gram([f, g], params4, 32)[0, 1]
    for w in hyperoctahedral_group(2):
        moved = grid_gram([apply_w(w, f), apply_w(w, g)], params4, 32)[0, 1]
        assert abs(moved - base) < 1e-10


def test_budget(monkeypatch):
    monkeypatch.setenv("OCTABOSON_BUDGET", "1000")
    with pytest.raises(BudgetExceededError):
        QuadratureSpec(points_per_dim=64, n=2)
    monkeypatch.delenv("OCTABOSON_BUDGET")
    QuadratureSpec(points_per_dim=64, n=2)


def test_budget_bounds_the_cosine_matrix_at_one_variable(monkeypatch):
    # at n = 1 the (M // 2 + 1)^2 entries of the weight's cosine matrix
    # outnumber the M nodes; from n = 2 on the node count bounds them
    monkeypatch.delenv("OCTABOSON_BUDGET", raising=False)
    QuadratureSpec(points_per_dim=3998, n=1)
    QuadratureSpec(points_per_dim=2000, n=2)
    with pytest.raises(BudgetExceededError) as info:
        QuadratureSpec(points_per_dim=4000, n=1)
    assert info.value.evidence == {"M": 4000, "n": 1, "entries": 2001**2, "budget": 4_000_000}


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_dim=2, n=1)


def _unread(self):
    raise AssertionError(f"the Laurent form of P_{self.lam} was read")


@pytest.mark.parametrize("suite", ["orthogonality", "norms"])
@pytest.mark.parametrize("n, max_part", [(0, 2), (1, 3), (2, 3), (3, 2)])
def test_orthogonality_suites_never_read_the_laurent_form(
    suite, n, max_part, capsys, monkeypatch, cold_caches
):
    # a data descriptor: it shadows any poly already cached on an instance
    monkeypatch.setattr(HLPolynomial, "poly", property(_unread))
    argv = ["verify", suite, "--n", str(n), "--maxPart", str(max_part)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]


def test_gram_budget_counts_the_orbit_kernel(params4, monkeypatch):
    # the orbit elements of the union of the supports times its weights:
    # (2 * 3 + 1)^2 = 49 elements against the 10 weights with parts <= 3
    expansions = hl_expansions(2, 3, params4)
    quad = QuadratureSpec(points_per_dim=8, n=2)
    monkeypatch.setenv("OCTABOSON_BUDGET", "489")
    with pytest.raises(BudgetExceededError) as info:
        gram_matrix(expansions, params4, quad)
    assert info.value.evidence == {"n": 2, "entries": 490, "budget": 489}
    monkeypatch.setenv("OCTABOSON_BUDGET", "490")
    gram_matrix(expansions, params4, quad)
