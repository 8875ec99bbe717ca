import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaboson import cli, hallittlewood, partitions, qboson, torus
from octaboson.laurent import NotDivisibleError
from octaboson.partitions import unit_steps
from octaboson.qboson import LatticeFunction


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_poly_zero_partition(capsys):
    code, out = run(capsys, "poly", "--n", "2", "--lambda", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["expansion"] == [{"mu": [0, 0], "coeff": "1"}]
    assert payload["principalSpecialization"]["equal"] is True


def test_poly_n1_expansion(capsys):
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "1")
    assert code == 0
    payload = json.loads(out)
    coeffs = {tuple(e["mu"]): e["coeff"] for e in payload["expansion"]}
    assert coeffs[(1,)] == "1"
    assert coeffs[(0,)] == "-44/359"  # (e3 - e1)/(1 - e4) at the defaults


def test_poly_compare_macdonald(capsys):
    code, out = run(
        capsys,
        "poly", "--profile", "two", "--compare-macdonald", "--n", "2",
        "--lambda", "2,1",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_poly_csv(tmp_path, capsys):
    target = tmp_path / "poly.csv"
    code, _ = run(
        capsys,
        "poly", "--n", "1", "--lambda", "1", "--format", "csv", "--out", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "mu,coeff"
    assert len(lines) == 3


def test_verify_suites_pass(capsys):
    for argv in (
        ["verify", "pieri", "--n", "2", "--maxPart", "2"],
        ["verify", "algebra", "--n", "2", "--maxPart", "2", "--relation", "com-d"],
        ["verify", "orthogonality", "--n", "1", "--M", "32", "--maxPart", "2"],
        ["verify", "norms", "--n", "1", "--M", "32", "--maxPart", "2"],
        ["verify", "adjoint", "--n", "1", "--maxPart", "2"],
        ["verify", "degeneration", "--n", "2", "--maxPart", "2"],
        ["verify", "scattering", "--n", "2"],
        ["verify", "eigen", "--n", "1", "--maxPart", "2"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0, (argv, out)
        assert json.loads(out)["pass"] is True


def test_orthogonality_csv_one_row_per_pair(tmp_path, capsys):
    target = tmp_path / "pairs.csv"
    code, _ = run(
        capsys,
        "verify", "orthogonality", "--n", "1", "--M", "32", "--maxPart", "2",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("lambda,mu,")
    assert len(lines) == 1 + 6  # header + C(3,2) + 3 diagonal pairs


def test_orthogonality_assembles_one_gram(capsys, monkeypatch):
    # one Gram assembly over one weight table for all 21 pairs (pairwise
    # inner products would assemble 21 Gram matrices)
    calls, tables = [], []
    gram_matrix, weight_fourier = cli.torus.gram_matrix, cli.torus._weight_fourier

    def counted(basis, params, quad):
        calls.append(len(basis))
        return gram_matrix(basis, params, quad)

    def counted_table(*args):
        tables.append(args)
        return weight_fourier(*args)

    monkeypatch.setattr(cli.torus, "gram_matrix", counted)
    monkeypatch.setattr(cli.torus, "_weight_fourier", counted_table)
    code, out = run(capsys, "verify", "orthogonality", "--n", "2", "--maxPart", "2", "--M", "64")
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 21
    assert calls == [6]
    assert len(tables) == 1


def test_orthogonality_chooses_grid(capsys):
    # without --M the grid comes from the aliasing bound; near-boundary
    # couplings need more nodes than the old fixed M = 64 gave
    for flags in (
        ["--t1", "8/9"],
        ["--q", "1/3", "--t1", "1/2", "--t2", "1/5", "--t3=-2/7", "--t4", "3/8"],
    ):
        code, out = run(capsys, "verify", "orthogonality", "--n", "2", "--maxPart", "2", *flags)
        payload = json.loads(out)
        assert code == 0, (flags, out)
        assert payload["pass"] is True and payload["M"] % 8 == 0
    code, out = run(capsys, "verify", "orthogonality", "--n", "2", "--maxPart", "2", "--t1", "8/9")
    assert json.loads(out)["M"] > 64


def test_orthogonality_chosen_grid_over_budget(capsys):
    # the bound asks for more than 44^4 nodes at n = 4: exit 3 with that M
    code, out = run(capsys, "verify", "orthogonality", "--n", "4", "--maxPart", "1")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert error["n"] == 4 and error["M"] % 8 == 0 and error["M"] ** 4 == error["nodes"]
    assert error["nodes"] > error["budget"]


def test_algebra_witness_below_two_particles(capsys):
    # the untwisted (0, 1) witness removes a particle from site 0 and one
    # from site 1, so it cannot fail on sectors 0 and 1, nor when maxPart 0
    # leaves site 1 empty: not applicable there, and the suite passes
    sizes = [(n, "2") for n in ("0", "1")] + [(n, "0") for n in ("2", "3", "4")]
    for n, max_part in sizes:
        code, out = run(capsys, "verify", "algebra", "--n", n, "--maxPart", max_part)
        payload = json.loads(out)
        assert code == 0, out
        witness = payload["untwistedBoundaryPair"]
        assert witness["applicable"] is False and witness["expectedFail"] is False
        assert witness["pass"] is True and payload["pass"] is True
    code, out = run(capsys, "verify", "algebra", "--n", "2", "--maxPart", "1", "--relation", "com-d1")
    witness = json.loads(out)["untwistedBoundaryPair"]
    assert "applicable" not in witness and witness["expectedFail"] is True
    assert witness["failed"] is True and witness["pass"] is True


def test_orthogonality_report_schema(capsys):
    code, out = run(
        capsys, "verify", "orthogonality", "--n", "1", "--M", "32", "--maxPart", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1 and payload["M"] == 32
    pair = payload["pairs"][0]
    assert set(pair) == {"lambda", "mu", "value", "expected", "absErr"}
    assert set(pair["value"]) == {"re", "im"}


def test_degeneration_from_two_profile(capsys):
    # t3 = 0 already, so the t4 -> 0 check has no point to start from
    code, out = run(capsys, "verify", "degeneration", "--n", "2", "--maxPart", "2", "--profile", "two")
    assert code == 0, out
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == ["t3,t4->0"]
    assert payload["pass"] is True
    code, out = run(capsys, "verify", "degeneration", "--n", "2", "--maxPart", "2", "--profile", "three")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["t4->0", "t3,t4->0"]


def test_degeneration_guards_the_sectors_and_sites_it_reads(capsys):
    # t1 t2 = q^21 passes construction, which guards q^m up to m = 20; the
    # suite reads sector n + 1 = 2 and parts up to maxPart + 1 = 21, whose
    # horizon reaches m = 21, as ``verify algebra`` and ``verify adjoint`` do
    point = ["--q", "1/2", "--t1", "1/1024", "--t2", "1/2048", "--t3", "1/3", "--t4", "1/5"]
    for suite in ("degeneration", "algebra", "adjoint"):
        code, out = run(capsys, "verify", suite, "--n", "1", "--maxPart", "20", *point)
        assert code == 1, suite
        error = json.loads(out)["error"]
        assert error == {"type": "parameter", "message": "t_r t_s = q^m degeneracy at q^m = 1/2097152"}


def test_exit_guard_violation(capsys):
    # t1 t2 = q triggers the genericity guard
    code, out = run(
        capsys,
        "poly", "--n", "1", "--lambda", "1",
        "--q", "1/6", "--t1", "1/2", "--t2", "1/3",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "parameter"


def test_guard_beyond_the_str_digit_limit_names_m(capsys):
    # q^2 = t_1 t_2 = 10^-4400 has more digits than int -> str converts
    small = f"1/{10**2200}"
    argv = ["poly", "--n", "1", "--lambda", "1", f"--q={small}", f"--t1={small}", f"--t2={small}"]
    code, out = run(capsys, *argv, "--t3=1/3", "--t4=1/5")
    assert code == cli.EXIT_FAIL
    error = json.loads(out)["error"]
    assert error == {"type": "parameter", "message": "t_r t_s = q^m degeneracy at m = 2"}


def test_exit_float_rejection(capsys):
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "1", "--q", "0.5")
    assert code == 1
    assert "exact rational" in json.loads(out)["error"]["message"]


def test_exit_zero_denominator(capsys):
    # "1/0" matches the rational pattern; Fraction would raise ZeroDivisionError
    for flag, value in (("--q", "1/0"), ("--t1", "3/0"), ("--t2", "-1/00")):
        code, out = run(capsys, "poly", "--n", "1", "--lambda", "1", flag, value)
        assert code == 1, flag
        error = json.loads(out)["error"]
        assert error["type"] == "parameter", flag
        assert "zero denominator" in error["message"] and flag in error["message"]


def test_exit_usage_error(capsys):
    # argparse rejections exit 1 with error JSON, not 2 (internal failure)
    for argv in (
        ["verify", "nosuch"],
        ["poly", "--n", "1", "--lambda", "1", "--format", "xml"],
        ["poly", "--n", "x"],
        [],
        # a negative size used to run empty sectors and pass with 0 cases
        ["verify", "adjoint", "--n", "-1"],
        ["verify", "degeneration", "--n", "-1"],
        ["verify", "scattering", "--n", "-2"],
        ["verify", "eigen", "--maxPart", "-1"],
        ["poly", "--n", "-1"],
        # the seed serves the sampled verify suites alone
        ["poly", "--n", "2", "--lambda", "2,1", "--seed", "5"],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_FAIL, argv
        assert json.loads(captured.out)["error"]["type"] == "usage", argv
        assert captured.err.startswith("usage: octaboson"), argv
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--help"])
    assert info.value.code == 0
    assert "usage: octaboson verify" in capsys.readouterr().out


def test_exit_internal_divisibility(capsys, monkeypatch):
    # only the oracles' division raises it: an unmapped fault of the program
    def boom(lam, params):
        raise NotDivisibleError("forced failure")

    monkeypatch.setattr(cli.hallittlewood, "hl_polynomial", boom)
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "1")
    assert code == cli.EXIT_INTERNAL
    error = json.loads(out)["error"]
    assert error["type"] == "internal" and error["exception"] == "NotDivisibleError"


def test_exit_internal_unmapped_exception(capsys, monkeypatch):
    # an exception that no handler maps is a fault of the program: exit 2
    # with its type named, not a traceback and exit 1, a failed identity
    def broken(args, params):
        raise RuntimeError("suite broke")

    monkeypatch.setitem(cli.SUITES, "adjoint", broken)
    code, out = run(capsys, "verify", "adjoint", "--n", "1")
    assert code == cli.EXIT_INTERNAL
    error = json.loads(out)["error"]
    assert error == {"type": "internal", "message": "suite broke", "exception": "RuntimeError"}


def test_exit_internal_not_monic(capsys, monkeypatch, fresh_construction):
    normalizer = hallittlewood.monic_normalizer
    monkeypatch.setattr(
        hallittlewood, "monic_normalizer", lambda lam, params: 2 * normalizer(lam, params)
    )
    code, out = run(capsys, "poly", "--n", "2", "--lambda", "2,1")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "internal-invariant"
    assert error["lambda"] == [2, 1] and error["mu"] == [2, 1]
    assert "not monic" in error["message"]


def test_exit_internal_outside_lower_set(capsys, monkeypatch, fresh_construction):
    monkeypatch.setattr(hallittlewood, "dominance_leq", lambda mu, lam: mu == lam)
    # the offending character named is the largest in (degree, lex) order
    for lam, mu in (([1], [0]), ([2, 1, 0], [1, 1, 1])):
        code, out = run(capsys, "poly", "--n", str(len(lam)), "--lambda", ",".join(map(str, lam)))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "internal-invariant"
        assert error["lambda"] == lam and error["mu"] == mu


def test_exit_budget(capsys, monkeypatch):
    monkeypatch.setenv("OCTABOSON_BUDGET", "100")
    code, out = run(capsys, "verify", "orthogonality", "--n", "2", "--M", "64")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget" and error["M"] == 64 and error["budget"] == 100


def test_exit_budget_bounds_construction(capsys, monkeypatch, fresh_construction):
    # the exponent box of the n = 3 seed block holds 729 > 100 terms
    monkeypatch.setenv("OCTABOSON_BUDGET", "100")
    code, out = run(capsys, "poly", "--n", "3", "--lambda", "3,3,3")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "budget"


def test_exit_budget_applies_to_cached_construction(capsys, monkeypatch, fresh_construction):
    # the second call's seed block is cached by the first, so only a check
    # ahead of the construction sees the lowered budget
    code, _ = run(capsys, "poly", "--n", "3", "--lambda", "3,3,3")
    assert code == 0
    monkeypatch.setenv("OCTABOSON_BUDGET", "100")
    code, out = run(capsys, "poly", "--n", "3", "--lambda", "3,3,2")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert (error["n"], error["terms"], error["budget"]) == (3, 729, 100)
    code, out = run(capsys, "verify", "pieri", "--n", "3", "--maxPart", "1")
    assert code == 3 and json.loads(out)["error"]["terms"] == 729


def test_exit_budget_bounds_freudenthal_work(capsys, monkeypatch):
    # the seed box of n = 1 is small, but Freudenthal's sum grows with the
    # part: C(1 + 10000, 1) * 10000 steps, refused before any construction
    monkeypatch.delenv("OCTABOSON_BUDGET", raising=False)
    start = time.perf_counter()
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "10000")
    assert time.perf_counter() - start < 2
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert (error["n"], error["terms"], error["budget"]) == (1, 100_010_000, 4_000_000)
    # the suites bound the largest part they build, unit-step neighbours included
    code, out = run(capsys, "verify", "pieri", "--n", "1", "--maxPart", "2000")
    assert code == 3 and json.loads(out)["error"]["terms"] == 2002 * 2001


def test_exit_budget_bounds_sector_states(capsys, monkeypatch):
    # suites that build no polynomial are bounded by the C(4 + 5, 4) = 126
    # states of their largest sector, before it is enumerated
    monkeypatch.setenv("OCTABOSON_BUDGET", "100")
    for suite in ("algebra", "adjoint", "degeneration"):
        code, out = run(capsys, "verify", suite, "--n", "4", "--maxPart", "5")
        assert code == 3, suite
        error = json.loads(out)["error"]
        assert error["type"] == "budget", suite
        assert (error["n"], error["maxPart"], error["states"], error["budget"]) == (4, 5, 126, 100)


def test_exit_budget_bounds_algebra_checks(capsys, monkeypatch):
    # 3 states of n = 2, maxPart = 1, times 144 distinct (relation, site
    # pair) checks and the witness
    monkeypatch.setenv("OCTABOSON_BUDGET", "435")
    assert run(capsys, "verify", "algebra", "--n", "2", "--maxPart", "1")[0] == 0
    monkeypatch.setenv("OCTABOSON_BUDGET", "434")
    code, out = run(capsys, "verify", "algebra", "--n", "2", "--maxPart", "1")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert (error["n"], error["maxPart"], error["checks"], error["budget"]) == (2, 1, 435, 434)
    # the 135,751 states of n = 4, maxPart = 40 pass their own check
    monkeypatch.delenv("OCTABOSON_BUDGET")
    code, out = run(capsys, "verify", "algebra", "--n", "4", "--maxPart", "40")
    assert code == 3 and json.loads(out)["error"]["checks"] == 135_751 * 145
    argv = ("verify", "algebra", "--n", "4", "--maxPart", "40", "--relation", "com-a1")
    code, out = run(capsys, *argv)
    assert code == 3 and json.loads(out)["error"]["checks"] == 135_751 * 37


def test_exit_budget_bounds_degeneration_applications(capsys, monkeypatch):
    # sectors of 1, 2 and 3 states at n = 2, maxPart = 1, each state at
    # maxPart + 2 = 3 sites
    monkeypatch.setenv("OCTABOSON_BUDGET", "18")
    assert run(capsys, "verify", "degeneration", "--n", "2", "--maxPart", "1")[0] == 0
    monkeypatch.setenv("OCTABOSON_BUDGET", "17")
    code, out = run(capsys, "verify", "degeneration", "--n", "2", "--maxPart", "1")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert (error["n"], error["maxPart"], error["applications"], error["budget"]) == (2, 1, 18, 17)
    monkeypatch.delenv("OCTABOSON_BUDGET")
    code, out = run(capsys, "verify", "degeneration", "--n", "4", "--maxPart", "40")
    assert code == 3 and json.loads(out)["error"]["applications"] == 148_995 * 42


def test_exit_budget_bounds_adjoint_pairs(capsys, monkeypatch):
    # sectors of 1, 7, 28, 84 states: 7 * (7 + 196 + 2352) adjointness pairs
    # and 49 + 784 + 7056 symmetry pairs, refused before any operator runs
    monkeypatch.setenv("OCTABOSON_BUDGET", "1000")
    code, out = run(capsys, "verify", "adjoint", "--n", "3", "--maxPart", "6")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert (error["n"], error["maxPart"], error["pairs"], error["budget"]) == (3, 6, 25774, 1000)
    # the 135,751 states of the top sector pass, its 8.8e10 pairs do not,
    # and no delta function is built before the refusal
    calls = []
    real_delta = LatticeFunction.delta

    def counting_delta(lam):
        calls.append(lam)
        return real_delta(lam)

    monkeypatch.setattr(LatticeFunction, "delta", staticmethod(counting_delta))
    monkeypatch.delenv("OCTABOSON_BUDGET")
    code, out = run(capsys, "verify", "adjoint", "--n", "4", "--maxPart", "40")
    assert code == 3 and json.loads(out)["error"]["pairs"] == 87_705_902_678
    assert calls == []
    # the counter sees the delta functions of a run within the budget
    code, _ = run(capsys, "verify", "adjoint", "--n", "1", "--maxPart", "1")
    assert code == 0 and len(calls) == 3


def test_adjoint_refusal_lists_no_sector(capsys, monkeypatch):
    # the pairs are counted from the sectors' sizes: the 635,376 states of
    # the top sector pass, its 1.9e12 pairs do not, and no sector is listed
    calls = []
    real_enumerate = partitions.enumerate_partitions

    def counting_enumerate(n, max_part):
        calls.append((n, max_part))
        return real_enumerate(n, max_part)

    for module in (partitions, qboson):
        monkeypatch.setattr(module, "enumerate_partitions", counting_enumerate)
    code, out = run(capsys, "verify", "adjoint", "--n", "4", "--maxPart", "60")
    assert code == 3 and json.loads(out)["error"]["pairs"] == 1_948_987_344_688
    assert calls == []
    # the counter sees the sectors of a run within the budget
    code, _ = run(capsys, "verify", "adjoint", "--n", "1", "--maxPart", "1")
    assert code == 0 and calls == [(0, 1), (1, 1)]


@pytest.mark.parametrize("suite", ["pieri", "eigen", "orthogonality", "norms"])
def test_polynomial_suite_refusal_lists_no_sector(suite, capsys, monkeypatch):
    # the orbit expansion is bounded from (n, maxPart) alone: parts up to
    # 41 for the recurrence suites, which read the neighbours too, and up to
    # 40 for the orthogonality suites; no partition is listed before the
    # refusal, whose JSON is the one that listing the states gave
    calls = []
    real_enumerate = partitions.enumerate_partitions

    def counting_enumerate(n, max_part):
        calls.append((n, max_part))
        return real_enumerate(n, max_part)

    for module in (partitions, hallittlewood, qboson, torus):
        monkeypatch.setattr(module, "enumerate_partitions", counting_enumerate)
    code, out = run(capsys, "verify", suite, "--n", "4", "--maxPart", "40")
    top = 41 if suite in ("pieri", "eigen") else 40
    terms = math.comb(4 + top, 4) * 16 * top
    assert code == 3 and json.loads(out)["error"] == {
        "type": "budget",
        "message": f"orbit expansion for parts up to {top} at n = 4 may take {terms} steps, "
        "over the budget 4000000 (set OCTABOSON_BUDGET to raise it)",
        "n": 4,
        "terms": terms,
        "budget": 4_000_000,
    }
    assert calls == []
    # the counter sees the sector of a run within the budget
    code, _ = run(capsys, "verify", suite, "--n", "1", "--maxPart", "1", "--M", "32")
    assert code == 0 and calls[0] == (1, 1)


@pytest.mark.parametrize("suite", ["orthogonality", "norms"])
def test_gram_kernel_refused_before_any_polynomial(suite, capsys, monkeypatch):
    # with --M the orbit Gram kernel is counted from (n, maxPart): each P_lam
    # is monic, so the supports cover the sector, (2 * 6 + 1)^4 = 28,561
    # orbit elements against C(10, 4) = 210 weights; no polynomial is built
    calls = []
    builder = hallittlewood.sector_polynomials

    def counting_builder(lams, params, **kwargs):
        calls.extend(lams)
        return builder(lams, params, **kwargs)

    monkeypatch.setattr(hallittlewood, "sector_polynomials", counting_builder)
    code, out = run(capsys, "verify", suite, "--n", "4", "--maxPart", "6", "--M", "8")
    assert code == 3 and json.loads(out)["error"] == {
        "type": "budget",
        "message": "an orbit Gram kernel of 28561 x 210 = 5997810 entries, "
        "over the budget 4000000 (set OCTABOSON_BUDGET to raise it)",
        "n": 4,
        "entries": 5_997_810,
        "budget": 4_000_000,
    }
    assert calls == []
    # the count is the one the assembly checks: (2 * 3 + 1)^2 = 49 elements
    # against the 10 weights with parts <= 3 at n = 2
    monkeypatch.setenv("OCTABOSON_BUDGET", "489")
    code, out = run(capsys, "verify", suite, "--n", "2", "--maxPart", "3", "--M", "8")
    assert code == 3 and json.loads(out)["error"]["entries"] == 490
    assert calls == []
    monkeypatch.setenv("OCTABOSON_BUDGET", "490")
    code, _ = run(capsys, "verify", suite, "--n", "2", "--maxPart", "3", "--M", "8")
    assert code in (0, 1) and len(calls) == 10


def test_sector_budget_reads_the_zero_counts_of_the_states(capsys, monkeypatch):
    # the seed blocks at n = 3 hold up to 729, 567, 441 and 343 terms for 0
    # to 3 zero parts; at maxPart 0 the states are 0^3 alone, read with their
    # neighbour (1, 0, 0) by the recurrence suites
    monkeypatch.setenv("OCTABOSON_BUDGET", "566")
    assert run(capsys, "verify", "pieri", "--n", "3", "--maxPart", "0")[0] == 0
    # an 8^3 grid within this budget: the report may fail, but it is made
    code, out = run(capsys, "verify", "orthogonality", "--n", "3", "--maxPart", "0", "--M", "8")
    assert code in (0, 1) and "pairs" in json.loads(out)
    code, out = run(capsys, "verify", "pieri", "--n", "3", "--maxPart", "1")
    assert code == 3 and json.loads(out)["error"]["terms"] == 729
    monkeypatch.setenv("OCTABOSON_BUDGET", "440")
    code, out = run(capsys, "verify", "eigen", "--n", "3", "--maxPart", "0")
    assert code == 3 and json.loads(out)["error"]["terms"] == 441
    code, out = run(capsys, "verify", "norms", "--n", "3", "--maxPart", "0", "--M", "4")
    assert code in (0, 1) and "pairs" in json.loads(out)


def test_sector_budget_refuses_the_fewest_zeros_block(capsys, monkeypatch):
    # one below the block without zero parts (729 terms at n = 3), which
    # bounds every other block of the sector
    monkeypatch.setenv("OCTABOSON_BUDGET", "728")
    code, out = run(capsys, "verify", "pieri", "--n", "3", "--maxPart", "2")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "budget",
        "message": "seed block of n = 3 may hold 729 terms, over the budget 728 "
        "(set OCTABOSON_BUDGET to raise it)",
        "n": 3,
        "terms": 729,
        "words": 1,
        "budget": 728,
    }


def test_malformed_lambda_names_the_flag(capsys):
    for raw in ("a,b", "1,,0", "2.0,1"):
        code, out = run(capsys, "poly", "--n", "2", "--lambda", raw)
        assert code == 1, raw
        error = json.loads(out)["error"]
        assert error["type"] == "parameter", raw
        assert "--lambda" in error["message"] and repr(raw) in error["message"], raw


def test_empty_lambda_is_the_empty_partition(capsys):
    code, out = run(capsys, "poly", "--n", "0", "--lambda=")
    assert code == 0 and json.loads(out)["lambda"] == []
    code, out = run(capsys, "poly", "--n", "2", "--lambda=")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "parameter", "message": "--lambda has 0 parts but --n is 2"
    }


@pytest.mark.parametrize("flag", ["--q", "--t1", "--t2", "--t3", "--t4"])
def test_empty_rational_names_its_flag(flag, capsys):
    # an empty value used to run at the default point
    code, out = run(capsys, "verify", "scattering", "--n", "1", f"{flag}=")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "parameter",
        "message": f"{flag} must be an exact rational like '1/2' or '-3'; got ''",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "scattering", "--n", "1", "--out="], "--out must not be empty"),
        (["poly", "--n", "1", "--out="], "--out must not be empty"),
        (
            ["verify", "algebra", "--n", "1", "--maxPart", "1", "--relation="],
            "--relation must not be empty",
        ),
        (
            ["verify", "algebra", "--n", "1", "--maxPart", "1", "--relation", "com-"],
            "--relation 'com-' names no relation",
        ),
        (
            ["verify", "pieri", "--n", "1", "--maxPart", "1", "--relation", "com-x"],
            "--relation restricts the algebra suite alone, not pieri",
        ),
    ],
    ids=["scattering-out", "poly-out", "algebra-relation", "algebra-relation-prefix", "pieri-relation"],
)
def test_empty_string_flag_names_itself(argv, message, capsys):
    # an empty --out used to write the report to stdout, and an empty
    # --relation, or the bare prefix com-, to run all eight relations; a
    # suite other than algebra used to ignore --relation
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "parameter", "message": message}}


@pytest.mark.parametrize("missing", [False, True])
def test_unwritable_out_is_a_parameter_error_on_stdout(missing, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json" if missing else tmp_path
    reason = "No such file or directory" if missing else "Is a directory"
    expected = {
        "type": "parameter", "message": f"--out {str(target)!r} cannot be written: {reason}"
    }
    # the report, and an error report, each tried once at the path
    for argv in (["verify", "scattering", "--n", "1"], ["poly", "--n", "1", "--q", "2"]):
        code = cli.main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_FAIL, argv
        assert json.loads(captured.out)["error"] == expected, argv
        assert captured.err == "", argv
        assert list(tmp_path.iterdir()) == [], argv


def test_exit_budget_bounds_scattering_factors(capsys, monkeypatch):
    # 100 samples of up to n^2 factors each: 400 at n = 2
    monkeypatch.setenv("OCTABOSON_BUDGET", "400")
    assert run(capsys, "verify", "scattering", "--n", "2")[0] == 0
    monkeypatch.setenv("OCTABOSON_BUDGET", "399")
    code, out = run(capsys, "verify", "scattering", "--n", "2")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert (error["n"], error["factors"], error["budget"]) == (2, 400, 399)


def test_too_many_variables_refused_before_any_neighbour(capsys, monkeypatch):
    # the variable limit is read off (n, maxPart), so no unit-step
    # neighbour of the sector is listed before the refusal
    calls = []

    def counting_unit_steps(lam):
        calls.append(lam)
        return unit_steps(lam)

    for module in (hallittlewood, qboson):
        monkeypatch.setattr(module, "unit_steps", counting_unit_steps)
    for suite in ("pieri", "eigen"):
        code, out = run(capsys, "verify", suite, "--n", "5", "--maxPart", "1")
        assert code == 1, suite
        error = json.loads(out)["error"]
        assert error["type"] == "parameter" and "at most 4 variables" in error["message"]
    assert calls == []


def test_too_many_variables_refused_before_any_partition(capsys, monkeypatch):
    # --n is checked against the variable limit before the 1.2M states of
    # --n 5 --maxPart 40 would be listed
    def no_listing(n, max_part):
        raise AssertionError(f"partitions listed at n = {n}, maxPart = {max_part}")

    for module in (hallittlewood, torus):
        monkeypatch.setattr(module, "enumerate_partitions", no_listing)
    for suite in ("orthogonality", "norms", "pieri", "eigen"):
        code, out = run(capsys, "verify", suite, "--n", "5", "--maxPart", "40")
        assert code == 1, suite
        error = json.loads(out)["error"]
        assert error == {
            "type": "parameter",
            "message": "exact construction supports at most 4 variables",
        }, suite


def test_budget_setting_must_be_a_nonnegative_integer(capsys, monkeypatch):
    for raw in ("abc", "-5", "1e6", " 100"):
        monkeypatch.setenv("OCTABOSON_BUDGET", raw)
        code, out = run(capsys, "poly", "--n", "2", "--lambda", "2,1")
        assert code == 1, raw
        error = json.loads(out)["error"]
        assert error["type"] == "parameter" and "OCTABOSON_BUDGET" in error["message"], raw
    # an empty setting is the default; a cap of 0 is valid and refuses any work
    monkeypatch.setenv("OCTABOSON_BUDGET", "")
    assert run(capsys, "poly", "--n", "2", "--lambda", "2,1")[0] == 0
    monkeypatch.setenv("OCTABOSON_BUDGET", "0")
    assert run(capsys, "poly", "--n", "2", "--lambda", "2,1")[0] == 3


def test_separated_negative_rational(capsys):
    # the README's form: a negative value after its flag, not --t2=-1/4
    code, out = run(
        capsys,
        "poly", "--n", "2", "--lambda", "2,1",
        "--q", "1/2", "--t1", "1/3", "--t2", "-1/4", "--t3", "1/5", "--t4", "-1/6",
    )
    assert code == 0
    code_default, out_default = run(capsys, "poly", "--n", "2", "--lambda", "2,1")
    assert code_default == 0 and out == out_default
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "1", "--t2", "-1/3")
    assert code == 0
    assert json.loads(out)["principalSpecialization"]["equal"] is True


def test_separated_negative_lambda(capsys):
    # argparse reads a separated value starting with '-' as an option, a
    # usage error, unless it is joined to its flag
    separated = run(capsys, "poly", "--n", "2", "--lambda", "-1,0")
    assert separated == run(capsys, "poly", "--n", "2", "--lambda=-1,0")
    assert separated[0] == 1
    assert json.loads(separated[1]) == {
        "error": {"type": "parameter", "message": "not a partition: (-1, 0)"}
    }


@pytest.mark.parametrize(
    "flag, value, joined",
    [
        ("--lam", "-1,0", "--lambda=-1,0"),
        ("--l", "-1,0", "--lambda=-1,0"),
        ("--lambd", "-1,0", "--lambda=-1,0"),
        ("--t", "-1/4", None),
    ],
    ids=["lam", "l", "lambd", "ambiguous-t"],
)
def test_separated_negative_value_of_a_flag_prefix(flag, value, joined, capsys):
    # argparse accepts a unique prefix of a flag: its separated negative
    # value is joined as that of the whole flag, and an ambiguous prefix
    # keeps argparse's usage error
    separated = run(capsys, "poly", "--n", "2", flag, value)
    assert separated[0] == 1
    if joined:
        assert separated == run(capsys, "poly", "--n", "2", joined)
        assert json.loads(separated[1])["error"]["type"] == "parameter"
    else:
        assert json.loads(separated[1]) == {"error": {
            "type": "usage", "message": "ambiguous option: --t could match --t1, --t2, --t3, --t4"
        }}


def test_report_bytes_reproducible(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["verify", "eigen", "--n", "1", "--maxPart", "2", "--seed", "17"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # and a different seed changes the sampled points
    third = tmp_path / "c.json"
    assert cli.main(argv[:-1] + ["3", "--out", str(third)]) == 0
    assert first.read_bytes() != third.read_bytes()

#: report-like JSON values: every leaf the encoder writes (non-ASCII,
#: control and escaped characters, -0.0, NaN and the infinities, integers
#: past 64 bits), empty and nested lists, tuples and dicts, keyed by
#: strings, integers or floats
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
    | st.floats() | st.text()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3)
    | st.dictionaries(st.floats(), children, max_size=3),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"\u00e9\u2028": "\x00\"\\/\ud83d", "x": [-0.0, math.nan, math.inf, -math.inf, 1e300]})
@example({"": {}, "a": [], "b": (), "c": [[], {}], "d": {"e": [True, False, None]}})
@example({True: 1, False: 2})
@example({None: [0.1, 2**70]})
def test_report_json_is_the_encoders_layout(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_report_json_refuses_what_the_encoder_refuses():
    for value in ({"a": {1, 2}}, [Fraction(1, 2)], {(1, 2): 0}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json(value)
