"""The operator suites still catch a wrong formula.

``verify adjoint`` takes inner products only where supports meet,
``verify algebra`` checks the single-site relations once per site, on
step tables shared by every check at a point, and ``verify degeneration``
compares functions directly; each mutant below breaks one formula in a way
only the full check can see, and the suite must fail on it, with a failing
algebra relation naming the mutated site in its ``worstCase``.  Every
package cache is emptied around a mutant, so no mutated value outlives it.
"""

import json
from fractions import Fraction

import pytest

from octaboson import cli, qboson, qkernels


@pytest.fixture
def cold_caches(bench_run):
    """Every package cache emptied, by the benchmark's own rule, before and
    after the test."""
    modules = bench_run.spans.package_modules()
    bench_run.clear_caches(modules)
    yield
    bench_run.clear_caches(modules)


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
    original = cli.hop_up_three

    def mutant(lam, j, q, ts):
        value = original(lam, j, q, ts)
        return 2 * value if lam == (1, 1, 0) else value

    monkeypatch.setattr(cli, "hop_up_three", mutant)
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert {c["name"]: c["pass"] for c in payload["checks"]} == {
        "t4->0": False,
        "t3,t4->0": True,
    }


def test_degeneration_suite_compares_whole_functions(capsys, monkeypatch, cold_caches):
    # the reduced annihilation enters only through the function comparison
    original = qboson.reduced_annihilate

    def mutant(l, f):
        removed = original(l, f)
        return removed.scale(2) if (1, 0) in removed.values else removed

    monkeypatch.setattr(qboson, "reduced_annihilate", mutant)
    code, payload = run(capsys, "verify", "degeneration", "--n", "3", "--maxPart", "3")
    assert code == cli.EXIT_FAIL
    assert [c["pass"] for c in payload["checks"]] == [False, False]
