"""``verify_adjoint`` per step against the pairing of delta functions.

``verify_adjoint`` checks adjointness and Hamiltonian symmetry once per
step of the operators' images of the delta functions.  The oracle in
``lattice_oracle`` takes the inner product of every pair of delta
functions, as the suite once did.  Both routes must count the same cases
and name the same first failing pair, at sound operators and under each
mutant below, which breaks one step in a way only the full check can see;
the last mutant's failing pairs are reached only through the inverse of
the creation images, two of them at one upper state.
"""

import json
from fractions import Fraction

import pytest

from octaboson import cli, partitions, qboson, qkernels
from octaboson.qboson import verify_adjoint
from octaboson.qkernels import PROFILES, ParamSet, default_params
from lattice_oracle import adjointness_mismatch, delta_sectors, symmetry_mismatch
from test_relation_routes import large_height_params

#: the second point of each profile in the golden reports
SECOND_POINT = {
    profile: ParamSet(
        q=Fraction(1, 3),
        ts=(Fraction(1, 2), Fraction(1, 5), Fraction(-2, 7), Fraction(3, 8))[: 4 - zeros]
        + (Fraction(0),) * zeros,
        profile=profile,
    )
    for profile, zeros in (("four", 0), ("three", 1), ("two", 2))
}


def points(profile):
    return default_params(profile), SECOND_POINT[profile], large_height_params(profile)


def oracle(n, max_part, params):
    """The (adjointness, symmetry) results of the pairing route."""
    deltas = delta_sectors(n, max_part)
    sizes = [len(sector) for sector in deltas]
    adjoint_cases = (max_part + 1) * sum(a * b for a, b in zip(sizes, sizes[1:]))
    symmetry_cases = sum(size * size for size in sizes[1:])
    return (
        qboson.CheckResult(adjoint_cases, adjointness_mismatch(deltas, max_part, params)),
        qboson.CheckResult(symmetry_cases, symmetry_mismatch(deltas, params)),
    )


@pytest.mark.parametrize("profile", PROFILES)
def test_step_checks_match_the_pairing_route(profile):
    for params in points(profile):
        for n in range(5):
            for max_part in range(4):
                expected = oracle(n, max_part, params)
                assert verify_adjoint(n, max_part, params) == expected, (n, max_part, params)
                assert all(result.mismatch is None for result in expected)


def double_bulk_creation(monkeypatch):
    original = qkernels._creation_coeff

    def mutant(site, m, m0, m1, params):
        value = original(site, m, m0, m1, params)
        # a second particle created at a site >= 2
        return 2 * value if (site, m) == (2, 2) else value

    monkeypatch.setattr(qkernels, "_creation_coeff", mutant)


def double_one_annihilation(monkeypatch):
    original = qboson._annihilation_coeff

    def mutant(m0, m1, params):
        value = original(m0, m1, params)
        # one occupation pair of the state a particle is removed to
        return 2 * value if (m0, m1) == (1, 0) else value

    monkeypatch.setattr(qboson, "_annihilation_coeff", mutant)


def double_down_hop_from_site_one(monkeypatch):
    original = qboson.hop_coeff

    def mutant(lam, j, step, params):
        value = original(lam, j, step, params)
        return 2 * value if step == -1 and lam[j] == 1 else value

    monkeypatch.setattr(qboson, "hop_coeff", mutant)


def create_at_the_wrong_site(monkeypatch):
    original = qboson._create_step

    def mutant(l, mu, params):
        lam, coeff = original(l, mu, params)
        # a particle created at site 1 lands at site 2 when site 1 is taken
        return (partitions.add_part(mu, 2), coeff) if l == 1 and 1 in mu else (lam, coeff)

    monkeypatch.setattr(qboson, "_create_step", mutant)


def create_twice_onto_an_earlier_state(monkeypatch):
    original = qboson._create_step

    def mutant(l, mu, params):
        lam, coeff = original(l, mu, params)
        # at site 2, (0,) and (1,) both land on (1, 1), which comes before
        # (2,) and (2, 1) in basis order and holds no part at site 2: only
        # the inverse of the creation images reaches its two failing pairs
        return ((1, 1), coeff) if l == 2 and mu in ((0,), (1,)) else (lam, coeff)

    monkeypatch.setattr(qboson, "_create_step", mutant)


@pytest.mark.parametrize(
    "mutate, fails",
    [
        (double_bulk_creation, (True, True)),
        (double_one_annihilation, (True, False)),
        (double_down_hop_from_site_one, (False, True)),
        (create_at_the_wrong_site, (True, False)),
        (create_twice_onto_an_earlier_state, (True, False)),
    ],
    ids=["bulk-creation", "annihilation", "down-hop", "creation-target", "creation-collision"],
)
def test_mutants_fail_at_the_same_first_pair(monkeypatch, cold_caches, mutate, fails):
    mutate(monkeypatch)
    failed = [False, False]
    for profile in PROFILES:
        for params in points(profile):
            for n in range(4):
                for max_part in range(4):
                    expected = oracle(n, max_part, params)
                    got = verify_adjoint(n, max_part, params)
                    assert got == expected, (n, max_part, params)
                    for k, result in enumerate(got):
                        failed[k] = failed[k] or result.mismatch is not None
    # each mutant breaks the checks that read the mutated step, and only them
    assert tuple(failed) == fails


def test_suite_reports_the_first_failing_pair(capsys, monkeypatch, cold_caches):
    create_at_the_wrong_site(monkeypatch)
    assert cli.main(["verify", "adjoint", "--n", "3", "--maxPart", "3"]) == cli.EXIT_FAIL
    adjointness, symmetry = json.loads(capsys.readouterr().out)["checks"]
    # (1,) is created onto (2, 1), so the first upper state that (1,) is
    # annihilated from, (1, 1), meets no created state
    first = adjointness["firstFailure"]
    assert {key: first[key] for key in ("site", "lower", "upper", "lhs")} == {
        "site": 1,
        "lower": [1],
        "upper": [1, 1],
        "lhs": "0",
    }
    assert Fraction(first["rhs"]) != 0
    assert symmetry["pass"] and "firstFailure" not in symmetry
