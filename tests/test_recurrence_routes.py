"""The recurrence and the wave functions on the orbit-sum expansion against
the route through Laurent polynomials.

``verify_pieri`` multiplies orbit-sum expansions by m_(1) and returns each
state's residual as its nonzero orbit coefficients; ``orbit_sums``
evaluates each orbit sum as a real cosine sum.  The oracles in ``orbit_oracle`` multiply
and evaluate the Laurent polynomials term by term.  Neither ``verify
pieri`` nor ``verify eigen`` may read the Laurent form at all.
"""

import json
import math
import random

import pytest

import orbit_oracle
from octaboson import cli, hallittlewood
from octaboson.hallittlewood import HLPolynomial, expand_in_monomials, hl_polynomial, verify_pieri
from octaboson.partitions import enumerate_partitions
from octaboson.qboson import orbit_sums
from octaboson.qkernels import PROFILES, default_params, quadratic_norm

#: every state of n <= 3 particles with parts up to 3
STATES = [lam for n in range(4) for lam in enumerate_partitions(n, 3)]


def pieri_residuals(params) -> dict:
    """The recurrence residual of each of STATES."""
    return {lam: r for n in range(4) for lam, r in verify_pieri(n, 3, params).items()}


@pytest.mark.parametrize("profile", PROFILES)
def test_orbit_residual_is_the_expanded_laurent_residual(profile):
    params = default_params(profile)
    residuals = pieri_residuals(params)
    assert list(residuals) == STATES
    for lam in STATES:
        oracle = orbit_oracle.laurent_pieri_residual(lam, params)
        assert oracle.is_zero, (profile, lam)
        assert residuals[lam] == expand_in_monomials(oracle) == {}


@pytest.mark.parametrize("profile", PROFILES)
def test_orbit_residual_of_a_wrong_coefficient_is_the_expanded_laurent_residual(
    profile, monkeypatch
):
    original = hallittlewood.pieri_coeff

    def mutant(lam, j, step, params):
        value = original(lam, j, step, params)
        return 2 * value if (lam, step) == ((1, 0), -1) else value

    # the residuals read the coefficients afresh, so no cache holds a mutated value
    monkeypatch.setattr(hallittlewood, "pieri_coeff", mutant)
    monkeypatch.setattr(orbit_oracle, "pieri_coeff", mutant)
    params = default_params(profile)
    residuals = pieri_residuals(params)
    for lam in STATES:
        residual = residuals[lam]
        assert residual == expand_in_monomials(orbit_oracle.laurent_pieri_residual(lam, params))
        assert bool(residual) == (lam == (1, 0)), lam
    # keyed in decreasing (degree, lex) order, as the witness reads it
    assert list(residuals[(1, 0)]) == [(1, 0), (0, 0)]


@pytest.mark.parametrize("profile", PROFILES)
def test_wave_function_is_the_laurent_evaluation(profile):
    params = default_params(profile)
    rng = random.Random(11)
    for lam in STATES:
        hl = hl_polynomial(lam, params)
        norm = float(quadratic_norm(lam, params))
        for _ in range(3):
            xi = [rng.uniform(0.0, 2 * math.pi) for _ in lam]
            m = orbit_sums(xi, hl.expansion)
            value = sum(float(coeff) * m[mu] for mu, coeff in hl.expansion.items()) / norm
            expected = orbit_oracle.evaluate_on_torus(hl.poly, xi) / norm
            assert isinstance(value, float)
            assert abs(value - expected) <= 1e-12 * abs(expected), (lam, xi)


def _unread(self):
    raise AssertionError(f"the Laurent form of P_{self.lam} was read")


@pytest.mark.parametrize("suite", ["pieri", "eigen"])
@pytest.mark.parametrize("n, max_part", [(1, 3), (2, 3), (3, 3)])
def test_recurrence_suites_never_read_the_laurent_form(
    suite, n, max_part, capsys, monkeypatch, cold_caches
):
    # a data descriptor: it shadows any poly already cached on an instance
    monkeypatch.setattr(HLPolynomial, "poly", property(_unread))
    argv = ["verify", suite, "--n", str(n), "--maxPart", str(max_part)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]
