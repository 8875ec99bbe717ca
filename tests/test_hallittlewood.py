import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import orbit_oracle
from octaboson import cli, hallittlewood, partitions
from octaboson.hallittlewood import (
    expand_in_monomials,
    hl_polynomial,
    macdonald_formula,
    principal_specialization,
    reconstruct_from_expansion,
    verify_pieri,
)
from octaboson.laurent import LaurentPoly, NotDivisibleError, apply_w, div_binomial_exact
from octaboson.partitions import (
    SignedPermutation,
    dominance_leq,
    enumerate_partitions,
    hyperoctahedral_group,
    lower_set,
    orbit,
    positive_roots,
    weyl_vector,
)
from octaboson.qkernels import ParamSet, principal_normalizer, tau_vector
from octaboson.torus import QuadratureSpec
from orbit_oracle import (
    ConditioningError,
    character_multiplicities,
    hl_gram_schmidt,
    monomial_symmetric,
    normalized_polynomial,
    oracle_hl,
    oracle_macdonald,
    wave_coefficient,
)
from test_relation_routes import large_height_params

F = Fraction


def group_generators(n):
    """Adjacent transpositions plus one sign flip; they generate the group."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPermutation(tuple(perm), (1,) * n))
    if n >= 1:
        gens.append(SignedPermutation(tuple(range(n)), (1,) * (n - 1) + (-1,)))
    return gens


def test_monomial_symmetric_examples():
    assert monomial_symmetric((0, 0)) == LaurentPoly.one(2)
    assert monomial_symmetric((1, 0)) == LaurentPoly(
        2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    )
    assert monomial_symmetric((1, 1)) == LaurentPoly(
        2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
    )


def test_wave_coefficient_structure(params4):
    c0 = wave_coefficient((0,), params4)
    assert c0.numerator == LaurentPoly.one(1)
    assert c0.denominator_factors == ()

    c1 = wave_coefficient((1,), params4)
    expected = LaurentPoly.one(1)
    for t in params4.ts:
        expected = expected * LaurentPoly(1, {(0,): F(1), (1,): -t})
    assert c1.numerator == expected
    assert c1.denominator_factors == (LaurentPoly(1, {(0,): 1, (2,): -1}),)

    c10 = wave_coefficient((1, 0), params4)
    assert len(c10.denominator_factors) == 3
    assert LaurentPoly(2, {(0, 0): 1, (1, -1): -1}) in c10.denominator_factors
    assert LaurentPoly(2, {(0, 0): 1, (1, 1): -1}) in c10.denominator_factors
    assert LaurentPoly(2, {(0, 0): 1, (2, 0): -1}) in c10.denominator_factors


def test_zero_partition_is_constant_one(params4):
    for n in (1, 2, 3):
        hl = hl_polynomial((0,) * n, params4)
        assert hl.poly == LaurentPoly.one(n)
        assert hl.expansion == {(0,) * n: 1}


def test_closed_form_n1(params4):
    t1, t2, t3, t4 = params4.ts
    e1 = t1 + t2 + t3 + t4
    e3 = t1 * t2 * t3 + t1 * t2 * t4 + t1 * t3 * t4 + t2 * t3 * t4
    e4 = t1 * t2 * t3 * t4
    hl = hl_polynomial((1,), params4)
    assert hl.expansion == {(1,): F(1), (0,): (e3 - e1) / (1 - e4)}


def test_monicity_triangularity_invariance(params4):
    for lam in enumerate_partitions(2, 3):
        hl = hl_polynomial(lam, params4)
        assert hl.expansion[lam] == 1
        down = lower_set(lam)
        for mu in hl.expansion:
            assert mu in down and dominance_leq(mu, lam)
        for g in group_generators(2):
            assert apply_w(g, hl.poly) == hl.poly
        assert reconstruct_from_expansion(hl.expansion, 2) == hl.poly


def test_expansions_are_keyed_in_decreasing_degree_lex_order(params4, params2):
    # the order in which the orbit inversion lists its weights, unsorted
    for n in range(4):
        for lam in enumerate_partitions(n, 3):
            for hl in (hl_polynomial(lam, params4), macdonald_formula(lam, params2)):
                keys = list(hl.expansion)
                assert keys == sorted(keys, key=lambda e: (sum(e), e), reverse=True), lam


@pytest.mark.parametrize("n, max_part", [(1, 5), (2, 4), (3, 3)])
def test_straightening_matches_orbit_sum_oracle(n, max_part, params4, params2):
    for lam in enumerate_partitions(n, max_part):
        hl = hl_polynomial(lam, params4)
        poly, expansion = oracle_hl(lam, params4)
        assert hl.poly == poly and hl.expansion == expansion, lam
        # CSV reports list the expansion in its dict order
        assert list(hl.expansion) == list(expansion)
        classical = macdonald_formula(lam, params2)
        poly, expansion = oracle_macdonald(lam, params2)
        assert classical.poly == poly and classical.expansion == expansion, lam


_open_unit = st.fractions(min_value=-1, max_value=1, max_denominator=9).filter(
    lambda x: x not in (-1, 0, 1)
)


@st.composite
def guarded_params(draw) -> ParamSet:
    """A rational point inside the guarded domain, any profile."""
    profile = draw(st.sampled_from(("four", "three", "two")))
    q = draw(_open_unit.filter(lambda x: x > 0))
    kept = {"four": 4, "three": 3, "two": 2}[profile]
    ts = [draw(_open_unit) for _ in range(kept)] + [Fraction(0)] * (4 - kept)
    try:
        return ParamSet(q=q, ts=tuple(ts), profile=profile)
    except ValueError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(
    guarded_params(),
    st.integers(1, 2).flatmap(lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)),
)
def test_straightening_matches_oracle_random_params(params, parts):
    lam = tuple(sorted(parts, reverse=True))
    hl = hl_polynomial(lam, params)
    assert (hl.poly, hl.expansion) == oracle_hl(lam, params)
    if params.profile == "two":
        classical = macdonald_formula(lam, params)
        assert (classical.poly, classical.expansion) == oracle_macdonald(lam, params)


def _alternant_character(mu: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """chi_mu = A(x^{mu+rho}) / A(x^rho) by exact division, with
    A(x^rho) = (-1)^{n^2} x^{-rho} prod_{alpha > 0} (1 - x^alpha)."""
    n = len(mu)
    rho = weyl_vector(n)
    top = tuple(m + r for m, r in zip(mu, rho))
    alternant = {}
    for w in hyperoctahedral_group(n):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if w.perm[i] > w.perm[j]
        )
        alternant[w.apply(top)] = (-1) ** (inversions + w.signs.count(-1))
    quotient = (-1) ** n * LaurentPoly(n, alternant).shift(rho)
    for alpha in positive_roots(n):
        quotient = div_binomial_exact(quotient, alpha)
    return expand_in_monomials(quotient)


@pytest.mark.parametrize("n, max_part", [(1, 3), (2, 3), (3, 3), (4, 2)])
def test_characters_match_alternant_division(n, max_part):
    for mu in enumerate_partitions(n, max_part):
        assert dict(character_multiplicities(mu)) == _alternant_character(mu), mu


def test_character_dimensions_match_weyl_formula():
    for n, max_part in ((1, 5), (2, 4), (3, 3), (4, 2)):
        for mu in enumerate_partitions(n, max_part):
            rho = weyl_vector(n)
            shifted = [m + r for m, r in zip(mu, rho)]
            # prod over alpha > 0 of <mu + rho, alpha> / <rho, alpha> for sp(2n)
            dim = Fraction(1)
            for alpha in positive_roots(n):
                dim *= Fraction(
                    sum(s * a for s, a in zip(shifted, alpha)),
                    sum(r * a for r, a in zip(rho, alpha)),
                )
            total = sum(k * len(orbit(nu)) for nu, k in character_multiplicities(mu))
            assert total == dim, mu


def test_freudenthal_step_not_divisible(monkeypatch):
    # without the long root 2 e_2 the multiplicity of (0, 0) in chi_(2, 0)
    # comes out as 16/12; the uncached function keeps the patch out of the cache
    roots = orbit_oracle.positive_roots
    monkeypatch.setattr(orbit_oracle, "positive_roots", lambda n: roots(n)[:-1])
    with pytest.raises(NotDivisibleError) as info:
        character_multiplicities.__wrapped__((2, 0))
    assert "16 is not divisible by 12" in str(info.value)
    assert info.value.evidence == {
        "character": [2, 0], "weight": [0, 0], "numerator": 16, "divisor": 12
    }


def _straightened(lam: tuple[int, ...], params: ParamSet) -> dict[tuple[int, ...], int]:
    """The integer character coefficients c_mu of the construction of lam."""
    n = len(lam)
    exponents, coefficients, _ = hallittlewood._seed_block(n, lam.count(0), params)
    shift = [p + r for p, r in zip(lam, weyl_vector(n))]
    return hallittlewood._straighten(exponents, coefficients, shift)


def _freudenthal_orbit_coefficients(coeffs) -> dict[tuple[int, ...], int]:
    totals: dict[tuple[int, ...], int] = {}
    for mu, c in coeffs.items():
        for nu, k in character_multiplicities(mu):
            totals[nu] = totals.get(nu, 0) + c * k
    return {nu: v for nu, v in totals.items() if v}


#: (n, max_part): parts up to 2n for n <= 3, and parts up to 2 at n = 4
ORBIT_CASES = [(1, 2), (2, 4), (3, 6), (4, 2)]


@pytest.mark.parametrize("n, max_part", ORBIT_CASES)
def test_orbit_coefficients_match_freudenthal(n, max_part, params4):
    for lam in enumerate_partitions(n, max_part):
        coeffs = _straightened(lam, params4)
        expected = _freudenthal_orbit_coefficients(coeffs)
        assert hallittlewood._orbit_coefficients(coeffs, n) == expected, lam


def test_every_weyl_row_is_needed(monkeypatch, params4, fresh_construction):
    # deleting any one row w != 1 of the (det w, rho - w rho) table changes
    # the orbit coefficients of some lam with parts up to 2n
    shifts = hallittlewood._weyl_shifts
    for n, max_part in ORBIT_CASES[:3]:
        cases = []
        for lam in enumerate_partitions(n, max_part):
            coeffs = _straightened(lam, params4)
            cases.append((coeffs, hallittlewood._orbit_coefficients(coeffs, n)))
        rows = len(shifts(n)[0])
        assert rows == 2**n * math.factorial(n) - 1
        for row in range(rows):
            def mutant(m, row=row):
                dets, moved = shifts(m)
                return np.delete(dets, row), np.delete(moved, row, axis=0)

            monkeypatch.setattr(hallittlewood, "_weyl_shifts", mutant)
            hallittlewood._inversion_entries.cache_clear()
            assert any(
                hallittlewood._orbit_coefficients(coeffs, n) != expected
                for coeffs, expected in cases
            ), (n, row)
        monkeypatch.setattr(hallittlewood, "_weyl_shifts", shifts)
        hallittlewood._inversion_entries.cache_clear()


def test_n4_family(params4, params2):
    for lam in enumerate_partitions(4, 2):
        hl = hl_polynomial(lam, params4)
        assert hl.expansion[lam] == 1
        assert set(hl.expansion) <= set(lower_set(lam))
        for g in group_generators(4):
            assert apply_w(g, hl.poly) == hl.poly
        assert principal_specialization(hl) == 1 / principal_normalizer(lam, params4)
        assert macdonald_formula(lam, params2).poly == hl_polynomial(lam, params2).poly


def test_expand_rejects_noninvariant():
    with pytest.raises(ValueError):
        expand_in_monomials(LaurentPoly(2, {(1, 0): F(1)}))
    # the dominant exponent (1, 0) is there, but its orbit lacks x_2^-1
    with pytest.raises(ValueError):
        expand_in_monomials(LaurentPoly(2, {(1, 0): F(1), (-1, 0): F(1), (0, 1): F(1)}))


def test_gram_schmidt_route(params4):
    quad = QuadratureSpec(points_per_dim=64, n=1)
    assert hl_gram_schmidt((0,), params4, quad) == {(0,): 1.0}
    exact = hl_polynomial((1,), params4)
    numeric = hl_gram_schmidt((1,), params4, quad)
    assert abs(numeric[(0,)] - float(exact.expansion[(0,)])) < 1e-10

    # higher single-variable members still match to quadrature accuracy
    for k in (2, 3):
        exact_k = hl_polynomial((k,), params4)
        numeric_k = hl_gram_schmidt((k,), params4, quad)
        for mu in set(numeric_k) | set(exact_k.expansion):
            assert abs(
                numeric_k.get(mu, 0.0) - float(exact_k.expansion.get(mu, 0))
            ) < 1e-10

    quad2 = QuadratureSpec(points_per_dim=64, n=2)
    exact2 = hl_polynomial((2, 0), params4)
    numeric2 = hl_gram_schmidt((2, 0), params4, quad2)
    assert set(numeric2) == set(lower_set((2, 0)))
    for mu, coeff in numeric2.items():
        assert abs(coeff - float(exact2.expansion.get(mu, 0))) < 1e-8


def test_normalized_polynomial_scaling(params4):
    hl = hl_polynomial((1,), params4)
    scaled = normalized_polynomial(hl)
    c = principal_normalizer((1,), params4)
    point = [F(2)]
    assert scaled.evaluate_exact(point) == c * hl.poly.evaluate_exact(point)
    # value 1 at the principal point
    assert scaled.evaluate_exact(tau_vector(1, params4)) == 1


def test_principal_specialization(params4):
    for lam in enumerate_partitions(2, 3):
        hl = hl_polynomial(lam, params4)
        assert principal_specialization(hl) * principal_normalizer(lam, params4) == 1


def test_principal_specialization_negative_t1():
    params = ParamSet(
        q=F(1, 2), ts=(F(-1, 3), F(-1, 4), F(1, 5), F(-1, 6)), profile="four"
    )
    for lam in ((1,), (2,), (1, 0)):
        hl = hl_polynomial(lam, params)
        assert principal_specialization(hl) * principal_normalizer(lam, params) == 1


_NEGATIVE_T1 = ParamSet(q=F(2, 5), ts=(F(-1, 2), F(2, 3), F(0), F(0)), profile="two")


@settings(max_examples=40, deadline=None)
@given(
    guarded_params(),
    st.integers(0, 3).flatmap(lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)),
)
@example(_NEGATIVE_T1, [3, 1, 0])
@example(_NEGATIVE_T1, [])
def test_principal_specialization_matches_evaluation(params, parts):
    # the integer (|e|, <e, delta>) table against evaluating every term
    lam = tuple(sorted(parts, reverse=True))
    hl = hl_polynomial(lam, params)
    assert principal_specialization(hl) == hl.poly.evaluate_exact(tau_vector(len(lam), params))


def test_principal_specialization_matches_evaluation_n4():
    params = ParamSet(q=F(1, 3), ts=(F(-2, 7), F(1, 2), F(-1, 5), F(3, 8)))
    hl = hl_polynomial((2, 1, 1, 0), params)
    assert principal_specialization(hl) == hl.poly.evaluate_exact(tau_vector(4, params))


def _specialization_oracles(lam, params):
    """principal_specialization of P_lam, its Laurent evaluation at tau and
    1 / principal_normalizer."""
    hl = hl_polynomial(lam, params)
    return (
        principal_specialization(hl),
        hl.poly.evaluate_exact(tau_vector(len(lam), params)),
        1 / principal_normalizer(lam, params),
    )


@pytest.mark.parametrize(
    "lam",
    [
        (1,), (3,), (3, 1), (3, 2, 1), (3, 3, 1),  # odd lambda_1: (N_j D_j)^lambda_1 < 0
        (2,), (2, 1, 1),  # even lambda_1: > 0
        (1, 0), (2, 0, 0), (3, 1, 0), (1, 1, 0, 0), (0, 0, 0),  # zero parts: f = 1, not 2
    ],
)
@pytest.mark.parametrize(
    "params",
    [
        _NEGATIVE_T1,
        ParamSet(q=F(1, 2), ts=(F(-1, 3), F(-1, 4), F(1, 5), F(-1, 6)), profile="four"),
        ParamSet(q=F(2, 7), ts=(F(-3, 5), F(1, 4), F(2, 9), F(0)), profile="three"),
    ],
    ids=["two", "four", "three"],
)
def test_principal_specialization_negative_t1_and_zero_parts(lam, params):
    value, evaluated, inverse = _specialization_oracles(lam, params)
    assert value == evaluated == inverse


@pytest.mark.parametrize("profile", ["four", "three", "two"])
def test_principal_specialization_at_a_large_height_point(profile):
    params = large_height_params(profile)
    for lam in ((2, 1, 0), (1, 1, 1), (3, 0, 0), (2, 2), (1, 1, 0, 0)):
        value, evaluated, inverse = _specialization_oracles(lam, params)
        assert value == evaluated == inverse, (profile, lam)


def test_poly_walks_no_orbit(capsys, monkeypatch):
    # the specialization sums over rearrangements; no orbit element is listed
    calls = []

    def counting_orbit(lam):
        calls.append(lam)
        return orbit(lam)

    monkeypatch.setattr(partitions, "orbit", counting_orbit)
    monkeypatch.setattr(hallittlewood, "orbit", counting_orbit)
    for argv in (
        ["poly", "--n", "3", "--lambda", "3,2,0"],
        ["poly", "--n", "4", "--lambda", "2,1,1,0", "--profile", "two", "--compare-macdonald"],
        ["poly", "--n", "2", "--lambda", "2,1", "--format", "csv"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []
    # the counter sees the orbit route
    reconstruct_from_expansion({(1, 0): F(1)}, 2)
    assert calls == [(1, 0)]


def test_pieri_residual_examples(params4):
    assert verify_pieri(1, 2, params4) == {(0,): {}, (1,): {}, (2,): {}}
    assert verify_pieri(2, 1, params4) == {(0, 0): {}, (1, 0): {}, (1, 1): {}}


def test_pieri_residual_multi_params(param_triple):
    for params in param_triple:
        residuals = verify_pieri(2, 2, params)
        assert list(residuals) == enumerate_partitions(2, 2)
        assert not any(residuals.values())


def test_characters_times_scale_are_the_expansion(params4, params3, params2):
    # P_lam = scale * sum c_mu chi_mu, with the characters expanded by Freudenthal
    for params in (params4, params3, params2):
        builds = [hl_polynomial] + [macdonald_formula] * (params.profile == "two")
        for lam in (lam for n in range(4) for lam in enumerate_partitions(n, 3)):
            for build in builds:
                hl = build(lam, params)
                totals = _freudenthal_orbit_coefficients(hl.characters)
                assert {nu: hl.scale * k for nu, k in totals.items()} == hl.expansion, lam
            assert hl_polynomial(lam, params).characters == _straightened(lam, params)


def test_vector_character_moves_a_character_by_unit_steps():
    # m_(1) chi_mu = sum of chi_nu over the unit steps nu of mu (Koike-Terada)
    for n in range(1, 4):
        vector = monomial_symmetric((1,) + (0,) * (n - 1))
        for mu in enumerate_partitions(n, 3):
            product = vector * reconstruct_from_expansion(dict(character_multiplicities(mu)), n)
            steps = {}
            for _, _, nu in partitions.unit_steps(mu):
                for kappa, k in character_multiplicities(nu):
                    steps[kappa] = steps.get(kappa, 0) + k
            assert product == reconstruct_from_expansion(steps, n), mu


def test_pieri_residual_takes_fraction_arithmetic_per_step(monkeypatch, params4):
    # with the polynomials built and the kernels' values taken, a passing
    # run multiplies two factors per state and per step and sums the step
    # coefficients: no Fraction arithmetic per orbit or character term
    n, max_part = 3, 3
    states, polys = hallittlewood.recurrence_sector(n, max_part, params4)
    steps = [(lam, j, step) for lam in states for j, step, _ in partitions.unit_steps(lam)]
    coefficients = {key: hallittlewood.pieri_coeff(*key, params4) for key in steps}
    normalizers = {lam: principal_normalizer(lam, params4) for lam in polys}
    monkeypatch.setattr(hallittlewood, "pieri_coeff", lambda *key: coefficients[key[:3]])
    monkeypatch.setattr(hallittlewood, "principal_normalizer", lambda lam, _: normalizers[lam])
    calls = []
    for name in ("__mul__", "__add__"):
        def counting(self, other, original=getattr(Fraction, name)):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Fraction, name, counting)
    residuals = verify_pieri(n, max_part, params4)
    monkeypatch.undo()
    assert residuals == {lam: {} for lam in states}
    bound = 4 * len(steps)
    assert len(calls) <= bound == 280
    # one operation per character or orbit term would be over twice that
    assert sum(len(hl.characters) + len(hl.expansion) for hl in polys.values()) > 2 * bound


def test_macdonald_formula(params2, params4):
    assert macdonald_formula((0, 0), params2).poly == LaurentPoly.one(2)
    assert macdonald_formula((1,), params2).poly == hl_polynomial((1,), params2).poly
    assert (
        macdonald_formula((2, 1), params2).poly == hl_polynomial((2, 1), params2).poly
    )
    with pytest.raises(ValueError):
        macdonald_formula((1,), params4)


def test_cross_route_agreement(params4):
    quad = QuadratureSpec(points_per_dim=64, n=2)
    for lam in enumerate_partitions(2, 2):
        exact = hl_polynomial(lam, params4)
        numeric = hl_gram_schmidt(lam, params4, quad)
        keys = set(numeric) | set(exact.expansion)
        for mu in keys:
            diff = abs(numeric.get(mu, 0.0) - float(exact.expansion.get(mu, 0)))
            assert diff < 1e-8, (lam, mu, diff)


def test_construction_bound(params4):
    with pytest.raises(ValueError):
        hl_polynomial((1, 0, 0, 0, 0), params4)


def test_gram_schmidt_conditioning_error(params4):
    # 6 basis elements sampled on 4 nodes: the Gram system is rank deficient
    quad = QuadratureSpec(points_per_dim=4, n=1)
    with pytest.raises(ConditioningError):
        hl_gram_schmidt((5,), params4, quad)
