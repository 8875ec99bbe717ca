"""The occupation-keyed coefficients against their per-state formulas.

Each coefficient of the q-boson steps, of the relations' diagonal scalars
and of the Hamiltonian is computed once per the occupation numbers it
reads.  The oracles below compute each one from the state itself, as the
formulas are written for a state; the two must agree exactly on every
(site, state).
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
)
from octaboson.qkernels import (
    PROFILES,
    ParamSet,
    boundary_potential,
    creation_coeff,
    default_params,
    hop_coeff,
    occupation_key,
    qinteger,
)

F = Fraction

#: the default point of each profile and one more with a negative t_1
POINTS = tuple(default_params(profile) for profile in PROFILES) + (
    ParamSet(q=F(1, 3), ts=(F(-1, 2), F(1, 5), F(-2, 7), F(3, 8))),
)

STATES = tuple(lam for n in range(5) for lam in enumerate_partitions(n, 3))
SITES = range(6)


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


@pytest.mark.parametrize("params", POINTS, ids=lambda p: f"{p.profile}-{p.ts[0]}")
def test_step_coefficients_match_the_per_state_formulas(params):
    for lam in STATES:
        for site in SITES:
            assert creation_coeff(lam, site, params) == creation_oracle(lam, site, params)
            assert qboson._annihilate_step(site, lam, params) == annihilate_step_oracle(
                site, lam, params
            )
        for j in raise_indices(lam):
            assert hop_coeff(lam, j, +1, params) == creation_oracle(lam, lam[j], params)
        for j in lower_indices(lam):
            assert hop_coeff(lam, j, -1, params) == qinteger(multiplicity(lam, lam[j]), params.q)


@pytest.mark.parametrize("params", POINTS, ids=lambda p: f"{p.profile}-{p.ts[0]}")
def test_relation_scalars_match_the_per_state_formulas(params):
    for lam in STATES:
        m0, m1 = multiplicity(lam, 0), multiplicity(lam, 1)
        for inverse in (False, True):
            assert qboson._twist_ratio(m0, m1, params, inverse) == twist_oracle(lam, params, inverse)
        for site in SITES:
            key = occupation_key(lam, site)
            assert qboson._pair_scalar_b(*key, params) == pair_scalar_b_oracle(lam, site, params)
            assert qboson._pair_scalar_c(*key, params) == pair_scalar_c_oracle(lam, site, params)


@pytest.mark.parametrize("params", POINTS, ids=lambda p: f"{p.profile}-{p.ts[0]}")
def test_boundary_potential_matches_its_formula(params):
    for m0 in range(6):
        for m1 in range(6 - m0):
            assert boundary_potential(m0, m1, params) == boundary_potential_oracle(m0, m1, params)
    with pytest.raises(ValueError, match="nonnegative"):
        boundary_potential(-1, 0, params)


def test_occupation_key_reads_what_each_site_class_reads():
    assert occupation_key((3, 1, 1, 0), 0) == (0, 1, 1, 2)
    assert occupation_key((3, 1, 1, 0), 1) == (1, 2, 1, 2)
    # a bulk coefficient reads its own site alone
    assert occupation_key((3, 1, 1, 0), 3) == (2, 1, 0, 0)
    assert occupation_key((3, 1, 1, 0), 4) == (2, 0, 0, 0)
    with pytest.raises(ValueError):
        occupation_key((1, 0), -1)
