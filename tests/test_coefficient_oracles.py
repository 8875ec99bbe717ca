"""The integer-arithmetic coefficients against their per-state formulas.

Each coefficient of the q-boson steps, of the relations' diagonal scalars
and of the Hamiltonian, each quadratic norm, the monic and principal
normalizers and the recurrence coefficients are computed in integer
arithmetic, the occupation-keyed ones once per the occupation numbers they
read.  The oracles below compute each one from the state itself in
``Fraction`` arithmetic, as the formulas are written for a state; the two
must agree exactly on every (site, state) or step, in value and in reduced
form (``str``), and in the message of a vanishing denominator, at catalogue
points and at points of height 2^61.
"""

from fractions import Fraction

import pytest

from octaboson import qboson
from octaboson.partitions import (
    enumerate_partitions,
    lower_indices,
    multiplicity,
    raise_indices,
    remove_part,
    unit_steps,
)
from octaboson import qkernels
from octaboson.qkernels import (
    PROFILES,
    GenericityError,
    ParamSet,
    boundary_potential,
    creation_coeff,
    default_params,
    hop_coeff,
    monic_normalizer,
    occupation_key,
    pieri_coeff,
    principal_normalizer,
    qinteger,
    qpochhammer,
    quadratic_norm,
    tau_vector,
)
from test_relation_routes import large_height_params

F = Fraction

#: the default point of each profile, one more with a negative t_1, and
#: the seeded point of height 2^61 of each profile
POINTS = (
    tuple(default_params(profile) for profile in PROFILES)
    + (ParamSet(q=F(1, 3), ts=(F(-1, 2), F(1, 5), F(-2, 7), F(3, 8))),)
    + tuple(large_height_params(profile) for profile in PROFILES)
)

STATES = tuple(lam for n in range(5) for lam in enumerate_partitions(n, 3))
SITES = range(6)


def point_id(params):
    height = max(x.denominator for x in (params.q, *params.ts))
    return f"{params.profile}-{params.ts[0]}" if height < 2**61 else f"{params.profile}-2^61"


def same(got, expected) -> bool:
    """Equal values, and equal reduced forms."""
    return got == expected and str(got) == str(expected)


def quadratic_norm_oracle(lam, params):
    q, t = params.q, params.t
    m0 = multiplicity(lam, 0)
    numerator = (1 - q) ** len(lam)
    denominator = Fraction(1)
    for value in set(lam):
        denominator *= qpochhammer(q, multiplicity(lam, value), q)
    for prod in params.pair_products:
        denominator *= qpochhammer(prod, m0, q)
    if t:
        numerator *= qpochhammer(t * q ** (m0 - 1), m0, q)
        denominator *= qpochhammer(t * q ** (2 * m0), multiplicity(lam, 1), q)
    return numerator / denominator


def mult_qpoch_product(lam, q):
    out = Fraction(1)
    for value in set(lam):
        out *= qpochhammer(q, multiplicity(lam, value), q)
    return out


def monic_normalizer_oracle(lam, params):
    n, q, t = len(lam), params.q, params.t
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    return (
        (1 - q) ** (-n)
        * qpochhammer(Fraction(-1), m0, q)
        * qpochhammer(t * q ** (2 * m0), m1, q)
        * mult_qpoch_product(lam, q)
    )


def principal_normalizer_oracle(lam, params):
    n, q, ts, t = len(lam), params.q, params.ts, params.t
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    numerator = Fraction(1)
    for tau_j, part in zip(tau_vector(n, params), lam):
        numerator *= tau_j**part
    numerator *= qpochhammer(t * q ** (2 * m0), m1, q) * mult_qpoch_product(lam, q)
    denominator = qpochhammer(q, n, q)
    for r in range(1, 4):
        denominator *= qpochhammer(ts[0] * ts[r] * q**m0, n - m0, q)
    if denominator == 0:
        raise GenericityError(f"principal normalizer denominator vanishes at {lam}")
    return numerator / denominator


def pieri_coeff_oracle(lam, j, step, params):
    q, ts, t = params.q, params.ts, params.t
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    part = lam[j]
    mult = multiplicity(lam, part)
    tau_j = tau_vector(len(lam), params)[j]
    if step == 1:
        value = qinteger(mult, q) / tau_j
        value *= (1 - t * q ** (2 * m0 + m1 - 1)) ** ((part == 1) + (part == 0))
        if part == 0:
            numerator = Fraction(1)
            for r in range(1, 4):
                numerator *= 1 - ts[0] * ts[r] * q ** (m0 - 1)
            denominator = (1 - t * q ** (2 * m0 - 2)) * (1 - t * q ** (2 * m0 - 1))
            if denominator == 0:
                raise GenericityError("pieri coefficient denominator vanishes")
            value *= numerator / denominator
        return value
    value = tau_j * qinteger(mult, q)
    if part == 1:
        numerator = 1 - t * q ** (m0 - 1)
        for r, s in ((1, 2), (1, 3), (2, 3)):
            numerator *= 1 - ts[r] * ts[s] * q**m0
        denominator = (1 - t * q ** (2 * m0 - 1)) * (1 - t * q ** (2 * m0))
        if denominator == 0:
            raise GenericityError("pieri coefficient denominator vanishes")
        value *= numerator / denominator
    return value


def creation_oracle(lam, part, params):
    q, t = params.q, params.t
    m0 = multiplicity(lam, 0)
    value = qinteger(multiplicity(lam, part), q)
    if part == 0:
        for prod in params.pair_products:
            value *= 1 - prod * q ** (m0 - 1)
    if t and part <= 1:
        value *= 1 - t * q ** (2 * m0 + multiplicity(lam, 1) - 1)
        if part == 0:
            denominator = (
                (1 - t * q ** (2 * m0 - 3))
                * (1 - t * q ** (2 * m0 - 2)) ** 2
                * (1 - t * q ** (2 * m0 - 1))
            )
            value *= (1 - t * q ** (m0 - 2)) / denominator
    return value


def annihilate_step_oracle(l, mu, params):
    if multiplicity(mu, l) == 0:
        return None
    lam = remove_part(mu, l)
    if l == 0 and params.t:
        m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
        return lam, 1 / (1 - params.t * params.q ** (2 * m0 + m1))
    return lam, None


def twist_oracle(lam, params, inverse):
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    base = params.t * params.q ** (2 * m0 + m1)
    num, den = 1 - params.q * base, 1 - base
    return den / num if inverse else num / den


def pair_scalar_b_oracle(lam, l, params):
    q, t = params.q, params.t
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    value = (1 - q ** multiplicity(lam, l)) / (1 - q)
    if l == 0:
        for prod in params.pair_products:
            value *= 1 - prod * q ** (m0 - 1)
    if t and l <= 1:
        value *= 1 - t * q ** (2 * m0 + m1 - 1)
        if l == 0:
            denominator = (
                (1 - t * q ** (2 * m0 - 3))
                * (1 - t * q ** (2 * m0 - 2)) ** 2
                * (1 - t * q ** (2 * m0 - 1))
                * (1 - t * q ** (2 * m0 + m1 - 2))
            )
            value *= (1 - t * q ** (m0 - 2)) / denominator
    return value


def pair_scalar_c_oracle(lam, l, params):
    q, t = params.q, params.t
    m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
    value = (1 - q ** (multiplicity(lam, l) + 1)) / (1 - q)
    if l == 0:
        for prod in params.pair_products:
            value *= 1 - prod * q**m0
    if t and l <= 1:
        base = t * q ** (2 * m0 + m1)
        if l == 1:
            value *= 1 - base
        else:
            denominator = (
                (1 - base)
                * (1 - t * q ** (2 * m0 - 1))
                * (1 - t * q ** (2 * m0)) ** 2
                * (1 - t * q ** (2 * m0 + 1))
            )
            value *= (1 - t * q ** (m0 - 1)) * (1 - q * base) / denominator
    return value


def boundary_potential_oracle(m0, m1, params):
    q, ts, t = params.q, params.ts, params.t
    t1 = ts[0]
    n0 = q**m0
    n1 = q**m1
    ratio_a = 1 - t / q * n0
    for r, s in ((1, 2), (1, 3), (2, 3)):
        ratio_a *= 1 - ts[r] * ts[s] * n0
    ratio_b = 1 - t / q * n0**2 * n1
    for r in range(1, 4):
        ratio_b *= 1 - t1 * ts[r] / q * n0
    if t:
        ratio_a /= (1 - t * n0**2) * (1 - t / q * n0**2)
        ratio_b /= (1 - t / q**2 * n0**2) * (1 - t / q * n0**2)
    bracket_a = t / t1 * n0 + t1 * n0 * (1 - ratio_a)
    bracket_b = t1 + q / (t1 * n0) * (1 - ratio_b)
    return bracket_a * (1 - n1) / (1 - q) + bracket_b * (1 - n0) / (1 - q)


@pytest.mark.parametrize("params", POINTS, ids=point_id)
def test_step_coefficients_match_the_per_state_formulas(params):
    for lam in STATES:
        for site in SITES:
            assert same(creation_coeff(lam, site, params), creation_oracle(lam, site, params))
            assert same(
                qboson._annihilate_step(site, lam, params), annihilate_step_oracle(site, lam, params)
            )
        for j in raise_indices(lam):
            assert same(hop_coeff(lam, j, +1, params), creation_oracle(lam, lam[j], params))
        for j in lower_indices(lam):
            expected = qinteger(multiplicity(lam, lam[j]), params.q)
            assert same(hop_coeff(lam, j, -1, params), expected)


@pytest.mark.parametrize("params", POINTS, ids=point_id)
def test_relation_scalars_match_the_per_state_formulas(params):
    for lam in STATES:
        m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
        for inverse in (False, True):
            got = qboson._twist_ratio(m0, m1, params, inverse)
            assert same(got, twist_oracle(lam, params, inverse))
        for site in SITES:
            key = occupation_key(lam, site)
            assert same(qboson._pair_scalar_b(*key, params), pair_scalar_b_oracle(lam, site, params))
            assert same(qboson._pair_scalar_c(*key, params), pair_scalar_c_oracle(lam, site, params))


@pytest.mark.parametrize("params", POINTS, ids=point_id)
def test_boundary_potential_matches_its_formula(params):
    for m0 in range(6):
        for m1 in range(6 - m0):
            got = boundary_potential(m0, m1, params)
            assert same(got, boundary_potential_oracle(m0, m1, params))
    with pytest.raises(ValueError, match="nonnegative"):
        boundary_potential(-1, 0, params)


@pytest.mark.parametrize("params", POINTS, ids=point_id)
def test_quadratic_norm_matches_its_formula(params):
    for lam in STATES:
        assert same(quadratic_norm(lam, params), quadratic_norm_oracle(lam, params))


def same_outcome(formula, oracle, *args) -> bool:
    """``same`` values, or GenericityErrors with the same message."""
    try:
        expected = oracle(*args)
    except GenericityError as error:
        with pytest.raises(GenericityError) as caught:
            formula(*args)
        return str(caught.value) == str(error)
    return same(formula(*args), expected)


@pytest.mark.parametrize("params", POINTS, ids=point_id)
def test_normalizers_and_recurrence_coefficients_match_their_formulas(params):
    for lam in STATES:
        assert same_outcome(monic_normalizer, monic_normalizer_oracle, lam, params)
        assert same_outcome(principal_normalizer, principal_normalizer_oracle, lam, params)
        for j, step, _ in unit_steps(lam):
            assert same_outcome(pieri_coeff, pieri_coeff_oracle, lam, j, step, params), (j, step)


def test_a_vanishing_denominator_raises_before_any_division():
    # q = 1/2 and t = t1 t2 t3 t4 = 4, set past ParamSet's validation, so
    # that 1 - t q^2 = 0 and, for the product t3 t4 = 1, 1 - t3 t4 q^0 = 0
    point = object.__new__(ParamSet)
    for name, value in (("q", F(1, 2)), ("ts", (F(2), F(2), F(1), F(1))), ("profile", "four")):
        object.__setattr__(point, name, value)
    kernels = [
        (qkernels.quadratic_norm, ((1, 0), point)),
        (qkernels._creation_coeff, (0, 1, 2, 0, point)),
        (qkernels._boundary_potential, (1, 0, point)),
        (qboson._annihilation_coeff, (1, 0, point)),
        (qboson._pair_scalar_b, (0, 1, 2, 0, point)),
        (qboson._pair_scalar_c, (0, 1, 1, 0, point)),
        (qboson._twist_ratio, (1, 0, point, False)),
        (qboson._twist_ratio, (0, 1, point, True)),
        # the product t1 t3 = 2: (t1 t3 q^0)_2 = (1 - 2)(1 - 1) = 0
        (qkernels.principal_normalizer, ((1, 1), point)),
        # up at part 0 of (0, 0): 1 - t q^{2 m0 - 2} = 1 - 4 q^2 = 0
        (qkernels.pieri_coeff, ((0, 0), 0, 1, point)),
        # down at part 1 of (1, 0): 1 - t q^{2 m0} = 1 - 4 q^2 = 0
        (qkernels.pieri_coeff, ((1, 0), 0, -1, point)),
    ]
    for kernel, args in kernels:
        with pytest.raises(GenericityError, match="vanishes"):
            kernel(*args)


def test_occupation_key_reads_what_each_site_class_reads():
    assert occupation_key((3, 1, 1, 0), 0) == (0, 1, 1, 2)
    assert occupation_key((3, 1, 1, 0), 1) == (1, 2, 1, 2)
    # a bulk coefficient reads its own site alone
    assert occupation_key((3, 1, 1, 0), 3) == (2, 1, 0, 0)
    assert occupation_key((3, 1, 1, 0), 4) == (2, 0, 0, 0)
    with pytest.raises(ValueError):
        occupation_key((1, 0), -1)
