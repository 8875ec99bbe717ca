"""The operator suites still catch a wrong formula.

``verify adjoint`` checks one equation per step of the operators' images,
``verify algebra`` checks the single-site relations once per site, on
step tables shared by every check of the run, and ``verify degeneration``
compares the entries of the runtime's step tables at its reduced points
with the reduced steps, state by state, and evaluates each reduced closed
form once per occupation numbers; each mutant below breaks one formula in
a way only the full check can see, and the suite must fail on it, with a
failing algebra relation naming the mutated site in its ``worstCase``, a
failing adjointness check the mutated site and state, and a failing
degeneration check the mutated (operator, site, state) in its
``firstFailure``.  ``verify pieri`` checks the recurrence on the
orbit-sum expansions, and a failing case names its residual's size and
largest orbit; a failing ``verify eigen`` case names the state of its
largest residual.  Every package cache is emptied around a mutant, so no
mutated value outlives it.
"""

import json
from fractions import Fraction

import pytest

from octaboson import cli, hallittlewood, qboson, qkernels


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_adjoint_suite_catches_one_wrong_creation_coefficient(capsys, monkeypatch, cold_caches):
    original = qkernels._creation_coeff

    def mutant(site, m, m0, m1, params):
        value = original(site, m, m0, m1, params)
        # one bulk key: a second particle created at a site >= 2
        return 2 * value if (site, m) == (2, 2) else value

    monkeypatch.setattr(qkernels, "_creation_coeff", mutant)
    code, payload = run(capsys, "verify", "adjoint", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert {c["name"]: c["pass"] for c in payload["checks"]} == {
        "adjointness": False,
        "hamiltonian-symmetry": False,
    }
    adjointness, symmetry = (c["firstFailure"] for c in payload["checks"])
    # the mutated key: the upper state holds two parts at the site, l >= 2
    site = adjointness["site"]
    assert site >= 2 and adjointness["upper"].count(site) == 2
    assert len(adjointness["upper"]) == len(adjointness["lower"]) + 1
    for failure in (adjointness, symmetry):
        assert Fraction(failure["lhs"]) != Fraction(failure["rhs"])
    assert symmetry["left"] != symmetry["right"]
    # the CSV keeps its columns; the first failures are in the JSON alone
    argv = ["verify", "adjoint", "--n", "3", "--maxPart", "3", "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_FAIL
    assert capsys.readouterr().out.splitlines() == [
        "name,cases,pass",
        "adjointness,976,False",
        "hamiltonian-symmetry,516,False",
    ]


def test_pieri_suite_names_the_residual_of_one_wrong_coefficient(capsys, monkeypatch, cold_caches):
    original = hallittlewood.pieri_coeff

    def mutant(lam, j, step, params):
        value = original(lam, j, step, params)
        # the step (1, 0) -> (0, 0)
        return 2 * value if (lam, step) == ((1, 0), -1) else value

    monkeypatch.setattr(hallittlewood, "pieri_coeff", mutant)
    code, payload = run(capsys, "verify", "pieri", "--n", "2", "--maxPart", "2")
    assert code == cli.EXIT_FAIL
    assert payload["maxResidual"] == "nonzero" and not payload["pass"]
    (failing,) = [case for case in payload["cases"] if not case["pass"]]
    assert failing["lambda"] == [1, 0] and failing["residual"] == "nonzero"
    # the extra step term is c (P_(1,0) - P_(0,0)): its orbits (1, 0) and
    # (0, 0), the largest with the normalizer of P_(1,0) as its factor
    params = qkernels.default_params("four")
    expected = original((1, 0), 0, -1, params) * qkernels.principal_normalizer((1, 0), params)
    assert failing["nonzeroTerms"] == 2
    assert failing["firstTerm"] == {"mu": [1, 0], "coeff": str(expected)}
    passing = [case for case in payload["cases"] if case["pass"]]
    assert all(set(case) == {"lambda", "residual", "pass"} for case in passing)
    # the CSV keeps its columns; the witness is in the JSON alone
    argv = ["verify", "pieri", "--n", "2", "--maxPart", "2", "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_FAIL
    assert capsys.readouterr().out.splitlines() == [
        "lambda,pass",
        '"0,0",True',
        '"1,0",False',
        '"1,1",True',
        '"2,0",True',
        '"2,1",True',
        '"2,2",True',
    ]


def test_eigen_suite_names_the_state_of_its_largest_residual(capsys, monkeypatch, cold_caches):
    original = qboson.orbit_sums

    def mutant(xi, mus):
        values = original(xi, mus)
        # m_(3) lies in the support of the neighbour (3,) of the top state
        # (2,) alone: only the Hamiltonian's image at (2,) reads it
        values[(3,)] *= 2
        return values

    monkeypatch.setattr(qboson, "orbit_sums", mutant)
    code, payload = run(capsys, "verify", "eigen", "--n", "1", "--maxPart", "2")
    assert code == cli.EXIT_FAIL and not payload["pass"]
    assert all(not case["pass"] for case in payload["cases"])
    for case in payload["cases"]:
        assert case["maxResidual"] >= qboson.EIGEN_TOLERANCE
        assert case["worstState"] == {"lambda": [2], "residual": case["maxResidual"]}
    # the CSV keeps its columns; the witness is in the JSON alone
    argv = ["verify", "eigen", "--n", "1", "--maxPart", "2", "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "xi,maxResidual,pass" and len(lines) == 21
    assert all(line.endswith(",False") for line in lines[1:])
    # a passing case carries no witness
    monkeypatch.setattr(qboson, "orbit_sums", original)
    code, payload = run(capsys, "verify", "eigen", "--n", "1", "--maxPart", "2")
    assert code == cli.EXIT_OK
    assert all(set(case) == {"xi", "maxResidual", "pass"} for case in payload["cases"])


def test_algebra_suite_checks_relation_b_at_every_site(capsys, monkeypatch, cold_caches):
    original = qboson._RELATIONS["b"]

    def mutant(o, l, k, f):
        lhs, rhs = original(o, l, k, f)
        return lhs, o.scale(2, rhs) if l == 5 else rhs

    monkeypatch.setitem(qboson._RELATIONS, "b", mutant)
    argv = ("verify", "algebra", "--n", "2", "--maxPart", "5", "--relation", "com-b")
    code, payload = run(capsys, *argv)
    assert code == cli.EXIT_FAIL
    (report,) = payload["relations"]
    assert report["relation"] == "com-b" and report["maxResidual"] != "0"
    # 36 site pairs over the 21 states of the sector
    assert report["cases"] == 36 * 21
    # checked once per l, at (l, 0); the right side alone is doubled
    worst = report["worstCase"]
    assert worst["sites"] == [5, 0] and 5 in worst["state"]
    assert Fraction(worst["rhs"]["value"]) == 2 * Fraction(worst["lhs"]["value"])


def test_algebra_suite_catches_one_wrong_annihilation_coefficient(
    capsys, monkeypatch, cold_caches
):
    original = qboson._annihilation_coeff

    def mutant(m0, m1, params):
        value = original(m0, m1, params)
        # one occupation pair of the state a particle is removed to
        return 2 * value if (m0, m1) == (1, 0) else value

    monkeypatch.setattr(qboson, "_annihilation_coeff", mutant)
    code, payload = run(capsys, "verify", "algebra", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    failing = [report for report in payload["relations"] if not report["pass"]]
    assert failing
    for report in failing:
        worst = report["worstCase"]
        assert worst["sites"][0] == 0, report["relation"]
        assert worst["lhs"] != worst["rhs"]
    # the passing relations' reports hold no worst case
    assert all("worstCase" not in r for r in payload["relations"] if r["pass"])


def test_algebra_witness_names_its_worst_case_when_it_fails(capsys, monkeypatch, cold_caches):
    original = qboson._annihilate_step

    def mutant(l, mu, params):
        step = original(l, mu, params)
        # one state at site 1: the untwisted (0, 1) pair stops commuting at t4 = 0
        return (step[0], Fraction(2)) if (l, mu) == (1, (1, 1, 0)) else step

    monkeypatch.setattr(qboson, "_annihilate_step", mutant)
    argv = ("verify", "algebra", "--n", "3", "--maxPart", "3", "--profile", "three")
    code, payload = run(capsys, *argv, "--relation", "com-d1")
    assert code == cli.EXIT_FAIL
    witness = payload["untwistedBoundaryPair"]
    assert witness["failed"] and not witness["expectedFail"] and not witness["pass"]
    assert witness["worstCase"]["sites"] == [0, 1]


def test_degeneration_suite_catches_one_wrong_reduced_hop(capsys, monkeypatch, cold_caches):
    original = qboson.hop_up_three

    def mutant(m, at_zero, q, ts):
        value = original(m, at_zero, q, ts)
        # the rate of a doubled part other than 0, as of part 1 in (1, 1)
        return 2 * value if (m, at_zero) == (2, False) else value

    monkeypatch.setattr(qboson, "hop_up_three", mutant)
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert {c["name"]: c["pass"] for c in payload["checks"]} == {
        "t4->0": False,
        "t3,t4->0": True,
    }
    # the create comparison reaches (1, 1) before the hop comparison at it
    first = payload["checks"][0]["firstFailure"]
    assert (first["kind"], first["state"], first["site"]) == ("create", [1], 1)
    assert first["runtime"]["state"] == first["reduced"]["state"] == [1, 1]
    assert Fraction(first["reduced"]["value"]) == 2 * Fraction(first["runtime"]["value"])
    assert "firstFailure" not in payload["checks"][1]


def test_degeneration_suite_compares_whole_functions(capsys, monkeypatch, cold_caches):
    # the reduced annihilation enters only through the image comparison
    original = qboson._reduced_annihilate_step

    def mutant(l, mu):
        step = original(l, mu)
        return (step[0], Fraction(2)) if step and step[0] == (1, 0) else step

    monkeypatch.setattr(qboson, "_reduced_annihilate_step", mutant)
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert [c["pass"] for c in payload["checks"]] == [False, False]
    # the first state of sector 3 whose removal lands on (1, 0)
    for check in payload["checks"]:
        assert check["firstFailure"] == {
            "kind": "annihilate",
            "state": [1, 0, 0],
            "site": 0,
            "runtime": {"state": [1, 0], "value": "1"},
            "reduced": {"state": [1, 0], "value": "2"},
        }


def test_degeneration_suite_names_one_wrong_runtime_creation(capsys, monkeypatch, cold_caches):
    original = qboson._create_step

    def mutant(l, mu, params):
        lam, coeff = original(l, mu, params)
        # one step-table entry at the reduced points, where t4 = 0
        return (lam, 2 * coeff) if (l, mu) == (2, (2, 1)) and not params.ts[3] else (lam, coeff)

    monkeypatch.setattr(qboson, "_create_step", mutant)
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert [c["pass"] for c in payload["checks"]] == [False, False]
    for check in payload["checks"]:
        first = check["firstFailure"]
        assert (first["kind"], first["state"], first["site"]) == ("create", [2, 1], 2)
        assert first["runtime"]["state"] == first["reduced"]["state"] == [2, 2, 1]
        assert Fraction(first["runtime"]["value"]) == 2 * Fraction(first["reduced"]["value"])
    # the CSV keeps its columns; the first failure is in the JSON alone
    argv = ["verify", "degeneration", "--n", "3", "--maxPart", "3", "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_FAIL
    assert capsys.readouterr().out.splitlines() == [
        "name,cases,pass",
        "t4->0,455,False",
        '"t3,t4->0",455,False',
    ]



@pytest.mark.parametrize(
    "name, mutated, passes, first, doubled",
    [
        # the norm of the t3,t4 -> 0 closed forms at no part 0 and one
        # doubled part, first read at (1, 1)
        ("norm_two", lambda m0, mults, *_: (m0, mults) == (0, (2,)), [True, False],
         {"kind": "norm", "state": [1, 1]}, "reduced"),
        # the runtime rate of the up hop of part 1 of (2, 1, 0), which no
        # create comparison reads
        ("hop_coeff", lambda lam, j, *_: (lam, j) == ((2, 1, 0), 1), [False, False],
         {"kind": "hop", "state": [2, 1, 0], "j": 1}, "runtime"),
        # the potential of the t3,t4 -> 0 closed forms at (m0, m1) = (1, 1)
        ("potential_two", lambda m0, m1, *_: (m0, m1) == (1, 1), [True, False],
         {"kind": "potential", "occupations": [1, 1]}, "reduced"),
    ],
    ids=["norm", "hop", "potential"],
)
def test_degeneration_suite_names_one_wrong_scalar(
    capsys, monkeypatch, cold_caches, name, mutated, passes, first, doubled
):
    # ``verify_degeneration`` reads the runtime formulas and the closed forms
    # through the bindings of ``qboson``
    original = getattr(qboson, name)

    def mutant(*args):
        value = original(*args)
        return 2 * value if mutated(*args) else value

    monkeypatch.setattr(qboson, name, mutant)
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert [c["pass"] for c in payload["checks"]] == passes
    other = "reduced" if doubled == "runtime" else "runtime"
    for check in payload["checks"]:
        if not check["pass"]:
            failure = check["firstFailure"]
            assert {key: failure[key] for key in first} == first
            assert Fraction(failure[doubled]) == 2 * Fraction(failure[other])


def _doubled_creation(original):
    def mutant(site, m, m0, m1, params):
        value = original(site, m, m0, m1, params)
        # the rate of a doubled part at site 1
        return 2 * value if (site, m) == (1, 2) else value

    return mutant


def _extra_potential_term(original):
    # a spurious term q^{m1} - 1, zero at an empty site 1
    return lambda m0, m1, params: original(m0, m1, params) + params.q**m1 - 1


def _norm_without_one_factor(original):
    # each (q)_{m_l} of a part value with m_l >= 2 loses its factor (1 - q^2)
    return lambda lam, params: [factor for factor in original(lam, params) if factor != (1, 2)]


def _hop_without_one_pair(_original):
    def mutant(m, at_zero, q, ts):
        value = qkernels.qinteger(m, q)
        if at_zero:
            for r, s in ((0, 1), (0, 2)):  # the pair t_2 t_3 dropped
                value *= 1 - ts[r] * ts[s] * q ** (m - 1)
        return value

    return mutant


@pytest.mark.parametrize(
    "owner, name, make_mutant, firsts",
    [
        (qkernels, "_creation_coeff", _doubled_creation,
         [{"kind": "create", "state": [1], "site": 1}] * 2),
        (qkernels, "_boundary_potential", _extra_potential_term,
         [{"kind": "potential", "occupations": [0, 1]}] * 2),
        (qkernels, "_shared_factors", _norm_without_one_factor,
         [{"kind": "norm", "state": [0, 0]}] * 2),
        (qboson, "hop_up_three", _hop_without_one_pair,
         [{"kind": "create", "state": [], "site": 0}, None]),
    ],
    ids=["create", "potential", "norm", "hop-closed-form"],
)
def test_degeneration_first_failures_are_pinned(
    capsys, monkeypatch, cold_caches, owner, name, make_mutant, firsts
):
    # three runtime mutants and one of a closed form, each with its first
    # failure per reduced point: the witnesses of evaluating every closed
    # form at every state, which evaluating each once per occupation numbers
    # must not move
    monkeypatch.setattr(owner, name, make_mutant(getattr(owner, name)))
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    for check, first in zip(payload["checks"], firsts, strict=True):
        failure = check.get("firstFailure")
        assert (failure and {key: failure[key] for key in first}) == first, check["name"]
