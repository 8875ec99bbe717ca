import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaboson import hallittlewood, qboson
from octaboson.partitions import enumerate_partitions, multiplicity, raise_indices, unit_steps
from octaboson.qboson import (
    EIGEN_TOLERANCE,
    RELATION_IDS,
    LatticeFunction,
    _twist_ratio,
    annihilate,
    apply_hamiltonian,
    create,
    energy,
    hamiltonian_from_operators,
    number_op,
    orbit_sums,
    scattering_factors,
    scattering_matrix,
    sector_inner_product,
    verify_eigen,
    verify_relation,
)
from octaboson.qkernels import (
    ParamSet,
    boundary_potential,
    default_params,
    hop_coeff,
    hop_up_three,
    hop_up_two,
    norm_three,
    norm_two,
    potential_three,
    potential_two,
    qinteger,
    quadratic_norm,
)
from lattice_oracle import reduced_annihilate, reduced_create

F = Fraction


def test_lattice_function_basics():
    f = LatticeFunction.delta((2, 1))
    assert f((2, 1)) == 1 and f((1, 1)) == 0
    assert (f - f).is_zero
    with pytest.raises(ValueError):
        LatticeFunction(2, {(1,): F(1)})


def test_lattice_function_complex_mode(params4):
    f = LatticeFunction(1, {(0,): 1 + 2j, (1,): -0.5j})
    g = annihilate(0, f, params4)
    assert abs(g(()) - (1 + 2j) / (1 - float(params4.t))) < 1e-15
    assert (f - f).is_zero
    assert f.scale(2j)((0,)) == 2j * (1 + 2j)


def test_annihilate_examples(params4, params2):
    t = params4.t
    f = LatticeFunction.delta((0,))
    out = annihilate(0, f, params4)
    assert out.n == 0
    assert out(()) == 1 / (1 - t)

    g = LatticeFunction.delta((3,))
    assert annihilate(3, g, params4)(()) == 1

    # the vacuum's image is the zero function of sector -1
    assert annihilate(0, LatticeFunction.delta(()), params4).is_zero

    # reduced profile drops the denominator
    out2 = annihilate(0, LatticeFunction.delta((0,)), params2)
    assert out2(()) == 1


def test_annihilation_lowers_every_sector(params4):
    vacuum = LatticeFunction.delta(())
    image = annihilate(0, vacuum, params4)
    assert image.n == -1 and image.is_zero
    assert reduced_annihilate(0, vacuum).n == -1
    assert create(0, image, params4).n == 0
    with pytest.raises(ValueError):
        LatticeFunction.zero(0) + LatticeFunction.zero(1)
    assert hamiltonian_from_operators(vacuum, params4) == apply_hamiltonian(vacuum, params4)


def test_create_examples(params4, params2):
    f = LatticeFunction.delta((3, 1))
    out = create(2, f, params4)
    assert out((3, 2, 1)) == qinteger(1, params4.q)

    # doubled part picks up the q-integer of the multiplicity
    out = create(3, f, params4)
    assert out((3, 3, 1)) == qinteger(2, params4.q)

    # two-parameter boundary creation
    f0 = LatticeFunction.delta((2,))
    out2 = create(0, f0, params2)
    m0 = 1
    assert out2((2, 0)) == qinteger(1, params2.q) * (
        1 - params2.ts[0] * params2.ts[1] * params2.q ** (m0 - 1)
    )


def test_lattice_function_keys_are_partitions():
    # such keys are no states: the operators would carry them out of the cone
    for key in ((0, 1), (1, -1), (True, 0)):
        with pytest.raises(ValueError, match="not a partition"):
            LatticeFunction(2, {key: F(1)})


def test_cancelling_images_store_no_zero(params4):
    # (1, 0) and (2, 1) both hop to nu = (1, 1); with values weighted by the
    # other's rate, (Hf)(nu) cancels exactly and is not stored
    lam, mu, nu = (1, 0), (2, 1), (1, 1)
    h_lam, h_mu = (apply_hamiltonian(LatticeFunction.delta(s), params4) for s in (lam, mu))
    r_lam, r_mu = h_lam(nu), h_mu(nu)
    assert r_lam and r_mu
    hf = apply_hamiltonian(LatticeFunction(2, {lam: r_mu, mu: -r_lam}), params4)
    assert nu not in hf.values and all(hf.values.values())
    assert hf.values == (h_lam.scale(r_mu) - h_mu.scale(r_lam)).values


def test_number_op(params4):
    f = LatticeFunction.delta((2, 2, 0))
    assert number_op(3, f, params4)((2, 2, 0)) == 1
    assert number_op(2, f, params4)((2, 2, 0)) == params4.q**2
    g = LatticeFunction(2, {(1, 0): F(2), (2, 1): F(-1, 3)})
    ab = number_op(0, number_op(1, g, params4), params4)
    ba = number_op(1, number_op(0, g, params4), params4)
    assert (ab - ba).is_zero


def test_unit_steps_pass_values_on(params4, params2):
    # annihilation off site 0, at every site when t = 0, and the number
    # operator on an empty site multiply by 1, so they store the value itself
    value = F(3, 7)
    f = LatticeFunction(2, {(1, 0): value})
    assert annihilate(1, f, params4).values[(0,)] is value
    assert annihilate(0, f, params2).values[(1,)] is value
    assert annihilate(0, f, params4)((1,)) == value / (1 - params4.t * params4.q)
    assert number_op(2, f, params4).values[(1, 0)] is value
    assert number_op(1, f, params4)((1, 0)) == value * params4.q


def test_adjointness(params4):
    # <create(l) f, g> == <f, annihilate(l) g> on delta bases
    for sector in (0, 1, 2):
        for l in range(5):
            for mu in enumerate_partitions(sector, 4):
                f = LatticeFunction.delta(mu)
                cf = create(l, f, params4)
                for nu in enumerate_partitions(sector + 1, 4):
                    g = LatticeFunction.delta(nu)
                    assert sector_inner_product(cf, g, params4) == sector_inner_product(
                        f, annihilate(l, g, params4), params4
                    )


@pytest.mark.parametrize("relation_id", RELATION_IDS)
def test_relations_default_params(relation_id, params4):
    exchange = relation_id in ("d1", "d2", "e1", "e2")
    for n in (1, 2, 3):
        pairs = (
            [(l, k) for l in range(3) for k in range(l + 1, 4)]
            if exchange
            else [(l, k) for l in range(3) for k in range(3)]
        )
        for l, k in pairs:
            report = verify_relation(relation_id, l, k, n, 3, params4)
            assert report.residual == 0, (relation_id, l, k, n, report.residual)


def test_relations_multi_params(param_triple):
    # full sweep (n <= 3, parts <= 4, sites <= 5) at the two non-default
    # generic parameter points; the default point is swept by the
    # acceptance suite
    for params in param_triple[1:]:
        for relation_id in RELATION_IDS:
            if relation_id in ("d1", "d2", "e1", "e2"):
                pairs = [(l, k) for l in range(5) for k in range(l + 1, 6)]
            elif relation_id in ("b", "c"):
                pairs = [(l, 0) for l in range(6)]
            else:
                pairs = [(l, k) for l in range(6) for k in range(6)]
            for n in (1, 2, 3):
                for l, k in pairs:
                    report = verify_relation(relation_id, l, k, n, 4, params)
                    assert report.residual == 0, (relation_id, l, k, n, report.residual)


def test_relation_result_is_exact(params4):
    for n, max_part in ((0, 2), (2, 3), (3, 1)):
        residual, cases, worst_case = verify_relation("d1", 0, 1, n, max_part, params4)
        assert isinstance(residual, Fraction)
        assert cases == len(enumerate_partitions(n, max_part))
        # a relation that holds has no worst case to name
        assert residual == 0 and worst_case is None


def test_relation_validation(params4):
    with pytest.raises(ValueError):
        verify_relation("zz", 0, 1, 2, 3, params4)
    with pytest.raises(ValueError):
        verify_relation("d1", 1, 1, 2, 3, params4)


def test_ultralocality_breakdown_and_restoration(params4, params3, params2):
    # full profile: the untwisted exchange fails on some basis state
    report = verify_relation("d1", 0, 1, 2, 3, params4, twisted=False)
    assert report.residual != 0
    # and the twisted relation repairs it exactly
    assert verify_relation("d1", 0, 1, 2, 3, params4, twisted=True).residual == 0
    # one vanishing boundary coupling restores plain commutativity
    for params in (params3, params2):
        for rid in ("d1", "d2", "e1", "e2"):
            report = verify_relation(rid, 0, 1, 2, 3, params, twisted=False)
            assert report.residual == 0, (rid, params.profile, report.residual)


def test_hamiltonian_two_param_rows(params2):
    # rows of the matrix: (Hf)(lam) for a function with generic support
    t1, t2 = params2.ts[0], params2.ts[1]
    f = LatticeFunction(1, {(k,): F(k + 2) for k in range(5)})
    hf = apply_hamiltonian(f, params2)
    for k in (1, 2, 3):
        assert hf((k,)) == f((k + 1,)) + f((k - 1,))
    assert hf((0,)) == (1 - t1 * t2) * f((1,)) + (t1 + t2) * qinteger(
        1, params2.q
    ) * f((0,))


def test_hamiltonian_distinct_bulk_parts(params4):
    # with all parts >= 2 and distinct every rate is 1 and the potential is 0
    lam = (4, 3, 2)
    neighbors = [(5, 3, 2), (4, 4, 2), (4, 3, 3), (3, 3, 2), (4, 2, 2), (4, 3, 1)]
    f = LatticeFunction(3, {mu: F(1) for mu in neighbors + [lam]})
    hf = apply_hamiltonian(f, params4)
    assert hf(lam) == sum(f(mu) for mu in neighbors)


def test_operator_assembled_hamiltonian(params4, params3, params2):
    for params in (params4, params3, params2):
        for n in (1, 2, 3):
            for mu in enumerate_partitions(n, 4):
                f = LatticeFunction.delta(mu)
                direct = apply_hamiltonian(f, params)
                assembled = hamiltonian_from_operators(f, params)
                assert (direct - assembled).is_zero, (params.profile, mu)


def test_hamiltonian_symmetry(params4):
    for n in (1, 2):
        lams = enumerate_partitions(n, 4)
        images = {
            lam: apply_hamiltonian(LatticeFunction.delta(lam), params4) for lam in lams
        }
        for lam in lams:
            for mu in lams:
                lhs = sector_inner_product(images[lam], LatticeFunction.delta(mu), params4)
                rhs = sector_inner_product(LatticeFunction.delta(lam), images[mu], params4)
                assert lhs == rhs


def _wave(xi, lam, params):
    expansion = hallittlewood.hl_polynomial(lam, params).expansion
    norm = float(quadratic_norm(lam, params))
    m = orbit_sums(xi, expansion)
    return sum(float(coeff) * m[mu] for mu, coeff in expansion.items()) / norm


def _eigen_residual(n, max_part, params, seed):
    """The largest residual of one ``verify_eigen`` run."""
    return max(max(residuals.values()) for _, residuals in verify_eigen(n, max_part, params, seed))


def test_eigen_rates_are_taken_once_per_run(monkeypatch, params4):
    # one hop_coeff per unit step of the sector and its neighbours, not
    # one per step and sample
    calls = []

    def counting_hop(*args):
        calls.append(args)
        return hop_coeff(*args)

    monkeypatch.setattr(qboson, "hop_coeff", counting_hop)
    for n, max_part in ((1, 3), (2, 2), (3, 2)):
        calls.clear()
        verify_eigen(n, max_part, params4, 7)
        _, polys = hallittlewood.recurrence_sector(n, max_part, params4)
        assert len(calls) == sum(len(unit_steps(lam)) for lam in polys), (n, max_part)


@pytest.mark.parametrize("profile", ["four", "three", "two"])
def test_rate_table_matches_apply_hamiltonian_bit_for_bit(profile):
    params = default_params(profile)
    rng = random.Random(profile)
    for n in range(4):
        lams = enumerate_partitions(n, 3)
        rows = {
            lam: {target: float(rate) for target, rate in row.items()}
            for lam, row in qboson._hamiltonian_rows(lams, params).items()
        }
        for _ in range(5):
            phi = {lam: rng.uniform(-2.0, 2.0) for lam in lams}
            # a lattice function stores no zeros, such as the vacuum's potential
            table = {lam: v for lam, v in qboson._scatter(rows, phi).items() if v}
            direct = apply_hamiltonian(LatticeFunction(n, phi), params)
            assert table == direct.values, (profile, n)
            assert all(
                math.copysign(1.0, table[lam]) == math.copysign(1.0, v)
                for lam, v in direct.values.items()
            )


def test_wave_function_examples(params4):
    n0 = quadratic_norm((0, 0), params4)
    for xi in ((0.3, 1.2), (2.0, -0.4)):
        assert abs(_wave(xi, (0, 0), params4) - 1 / float(n0)) < 1e-14

    # closed form at n=1: (2cos(xi) + const)/norm
    t1, t2, t3, t4 = (float(t) for t in params4.ts)
    e1 = t1 + t2 + t3 + t4
    e3 = t1 * t2 * t3 + t1 * t2 * t4 + t1 * t3 * t4 + t2 * t3 * t4
    e4 = t1 * t2 * t3 * t4
    xi = math.pi / 2
    expected = (2 * math.cos(xi) + (e3 - e1) / (1 - e4)) / float(
        quadratic_norm((1,), params4)
    )
    assert abs(_wave((xi,), (1,), params4) - expected) < 1e-14

    # group invariance in the spectral parameter
    a = _wave((0.7, 2.1), (2, 1), params4)
    b = _wave((-2.1, 0.7), (2, 1), params4)
    assert abs(a - b) < 1e-12


def test_eigen_residual_examples(params4):
    assert _eigen_residual(1, 3, params4, 1) < 1e-12
    assert _eigen_residual(2, 3, params4, 2) < 1e-10
    assert abs(energy((math.pi / 2, math.pi / 2))) < 1e-15


def test_eigen_residual_other_profiles(params3, params2):
    for params in (params3, params2):
        residual = _eigen_residual(2, 3, params, 3)
        assert residual < EIGEN_TOLERANCE, residual


def test_scattering_factors(params4, params2):
    s, s0 = scattering_factors(0.0, params4)
    assert abs(s - 1) < 1e-15 and abs(s0 - 1) < 1e-15
    s_pi, _ = scattering_factors(math.pi, params4)
    assert abs(s_pi - 1) < 1e-15
    rng = random.Random(7)
    for _ in range(100):
        x = rng.uniform(-8, 8)
        s, s0 = scattering_factors(x, params4)
        assert abs(abs(s) - 1) < 1e-12
        assert abs(abs(s0) - 1) < 1e-12
        _, s0_two = scattering_factors(x, params2)
        assert abs(abs(s0_two) - 1) < 1e-12
        # two-parameter boundary factor is the explicit two-factor ratio
        t1, t2 = (float(t) for t in params2.ts[:2])
        direct = ((1 - t1 * cmath.exp(-1j * x)) * (1 - t2 * cmath.exp(-1j * x))) / (
            (1 - t1 * cmath.exp(1j * x)) * (1 - t2 * cmath.exp(1j * x))
        )
        assert abs(s0_two - direct) < 1e-12


def test_scattering_factors_are_the_plane_wave_factor_ratios(param_triple, params2):
    # the plane-wave coefficient's factors (1 - c x^beta) of the seed block,
    # each at x^beta = e^{-ix} over its reflection x^beta = e^{ix}: s on the
    # short roots beta (q), s0 on the boundary steps e_j (t_r)
    rng = random.Random(3)
    for params in (*param_triple, params2):
        seed = hallittlewood._seed_binomials(2, 0, params)
        short = [float(c) for c, beta in seed if beta in ((1, -1), (1, 1))]
        boundary = [float(c) for c, beta in seed if beta == (1, 0)]
        assert len(short) == 2 and len(boundary) == sum(1 for t in params.ts if t)
        for _ in range(20):
            x = rng.uniform(-8, 8)
            down, up = cmath.exp(-1j * x), cmath.exp(1j * x)
            s, s0 = scattering_factors(x, params)
            for c in short:
                assert abs(s - (1 - c * down) / (1 - c * up)) < 1e-13
            ratio = math.prod((1 - c * down) / (1 - c * up) for c in boundary)
            assert abs(s0 - ratio) < 1e-13


def test_scattering_matrix(params4):
    xi1 = (0.8,)
    _, s0 = scattering_factors(0.8, params4)
    assert abs(scattering_matrix(xi1, params4) - s0) < 1e-15

    rng = random.Random(11)
    for n in (1, 2, 3):
        xi = [rng.uniform(-5, 5) for _ in range(n)]
        value = scattering_matrix(xi, params4)
        assert abs(abs(value) - 1) < 1e-12

    # product structure: pairwise bulk factors times boundary factors
    xi = (0.4, 1.9, -2.5)
    expected = 1 + 0j
    for j in range(3):
        for k in range(j + 1, 3):
            expected *= scattering_factors(xi[j] - xi[k], params4)[0]
            expected *= scattering_factors(xi[j] + xi[k], params4)[0]
        expected *= scattering_factors(xi[j], params4)[1]
    assert abs(scattering_matrix(xi, params4) - expected) < 1e-13


_open_unit = st.fractions(min_value=-1, max_value=1, max_denominator=9).filter(
    lambda x: x not in (-1, 0, 1)
)

#: reduced profile -> its closed forms (norm, up-hop rate, boundary potential)
_ORACLES = {
    "three": (norm_three, hop_up_three, potential_three),
    "two": (norm_two, hop_up_two, potential_two),
}


@st.composite
def reduced_params(draw) -> ParamSet:
    """A rational point inside the guarded domain at profile three or two."""
    profile = draw(st.sampled_from(("three", "two")))
    q = draw(_open_unit.filter(lambda x: x > 0))
    kept = {"three": 3, "two": 2}[profile]
    ts = [draw(_open_unit) for _ in range(kept)] + [Fraction(0)] * (4 - kept)
    try:
        return ParamSet(q=q, ts=tuple(ts), profile=profile)
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(
    reduced_params(),
    st.integers(0, 3).flatmap(lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)),
)
def test_general_formulas_match_reduced_oracles_random_params(params, parts):
    lam = tuple(sorted(parts, reverse=True))
    q, ts = params.q, params.ts
    norm_red, hop_red, pot_red = _ORACLES[params.profile]
    assert quadratic_norm(lam, params) == norm_red(lam, q, ts)
    for j in raise_indices(lam):
        assert hop_coeff(lam, j, +1, params) == hop_red(lam, j, q, ts)
    n = len(lam)
    for m0 in range(n + 1):
        for m1 in range(n + 1 - m0):
            assert boundary_potential(m0, m1, params) == pot_red(m0, m1, q, ts)
    f = LatticeFunction.delta(lam)
    for l in range(6):
        assert create(l, f, params) == reduced_create(l, f, params, hop_red)
        assert annihilate(l, f, params) == reduced_annihilate(l, f)
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    assert _twist_ratio(m0, m1, params, False) == 1 == _twist_ratio(m0, m1, params, True)
