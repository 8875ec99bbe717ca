import json
import time

import pytest

from octaboson import cli, hallittlewood
from octaboson.laurent import NotDivisibleError
from octaboson.partitions import unit_steps
from octaboson.qkernels import default_params


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
    # one Gram assembly over one weight FFT for all 21 pairs (pairwise
    # inner products would assemble 21 Gram matrices)
    calls = []
    gram_matrix = cli.torus.gram_matrix

    def counted(basis, params, quad):
        calls.append(len(basis))
        return gram_matrix(basis, params, quad)

    monkeypatch.setattr(cli.torus, "gram_matrix", counted)
    cli.torus._weight_fourier.cache_clear()
    code, out = run(capsys, "verify", "orthogonality", "--n", "2", "--maxPart", "2", "--M", "64")
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 21
    assert calls == [6]
    assert cli.torus._weight_fourier.cache_info().misses == 1


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


def test_exit_guard_violation(capsys):
    # t1 t2 = q triggers the genericity guard
    code, out = run(
        capsys,
        "poly", "--n", "1", "--lambda", "1",
        "--q", "1/6", "--t1", "1/2", "--t2", "1/3",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "parameter"


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
    def boom(lam, params):
        raise NotDivisibleError("forced failure")

    monkeypatch.setattr(cli.hallittlewood, "hl_polynomial", boom)
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "internal-divisibility"


def test_exit_internal_freudenthal_step(capsys, monkeypatch, fresh_construction):
    # without the long root 2 e_2 the multiplicity of (0, 0) in chi_(2, 0)
    # comes out as 16/12; the seed block of (2, 0) is built first, so the
    # patched list reaches Freudenthal's sum alone
    hallittlewood._seed_block(2, 1, default_params())
    roots = hallittlewood.positive_roots
    monkeypatch.setattr(hallittlewood, "positive_roots", lambda n: roots(n)[:-1])
    code, out = run(capsys, "poly", "--n", "2", "--lambda", "2,0")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "internal-divisibility"
    assert "16 is not divisible by 12" in error["message"]
    assert error["character"] == [2, 0] and error["weight"] == [0, 0]
    assert error["numerator"] == 16 and error["divisor"] == 12
    assert hallittlewood._seed_block.cache_info().misses == 1


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
    monkeypatch.setattr(hallittlewood, "lower_set", lambda lam: [lam])
    code, out = run(capsys, "poly", "--n", "1", "--lambda", "1")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "internal-invariant"
    assert error["lambda"] == [1] and error["mu"] == [0]


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
    # the variable limit is read off the first partition, so no unit-step
    # neighbour of the sector is listed before the refusal
    calls = []

    def counting_unit_steps(lam):
        calls.append(lam)
        return unit_steps(lam)

    monkeypatch.setattr(cli, "unit_steps", counting_unit_steps)
    for suite in ("pieri", "eigen"):
        code, out = run(capsys, "verify", suite, "--n", "5", "--maxPart", "1")
        assert code == 1, suite
        error = json.loads(out)["error"]
        assert error["type"] == "parameter" and "at most 4 variables" in error["message"]
    assert calls == []


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