"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _cycles(workload: str, seed: int, count: int) -> list[workloads.Op]:
    return list(islice(workloads.ops(workload, seed), count * len(workloads.kinds(workload))))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    first = [op.argv for op in islice(workloads.ops(workload, 11), 300)]
    again = [op.argv for op in islice(workloads.ops(workload, 11), 300)]
    other = [op.argv for op in islice(workloads.ops(workload, 12), 300)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_give_same_kind_multiset(workload):
    kinds = {k.name for k in workloads.kinds(workload)}
    for seed in (1, 2, 3):
        ops = _cycles(workload, seed, 4)
        for cycle in range(4):
            names = [op.kind.name for op in ops if op.cycle == cycle]
            assert sorted(names) == sorted(kinds)
    counts = [Counter(op.kind.name for op in _cycles(workload, s, 4)) for s in (1, 2)]
    assert counts[0] == counts[1]


def test_exact_construct_runs_every_fourth_op_at_profile_two():
    ops = _cycles("exact-construct", 5, 3)
    assert len(workloads.kinds("exact-construct")) == 20
    for i, op in enumerate(ops):
        assert (op.kind.profile == "two") == (i % 4 == 3)
        assert ("--compare-macdonald" in op.argv) == (op.kind.profile == "two")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_parameter_point_repeats_within_a_run(workload):
    ops = list(islice(workloads.ops(workload, 3), 3000))
    points = [op.point for op in ops]
    assert len(set(points)) == len(points)
    defaults = {workloads.default_point(p) for p in workloads.ZERO_TAIL}
    for op in ops:
        assert op.point not in defaults
        assert workloads.is_generic(op.point)
        zeros = workloads.ZERO_TAIL[op.kind.profile]
        assert all(t == 0 for t in op.point[5 - zeros :])
        assert all(0 < abs(v) <= 0.5 for v in op.point[: 5 - zeros])


def test_rationals_are_passed_with_equals_sign():
    op = next(workloads.ops("operator-algebra", 1))
    flags = [a for a in op.argv if a.startswith("--q") or a.startswith("--t")]
    assert len(flags) == 5 and all("=" in f for f in flags)


def test_is_generic_rejects_guard_loci():
    half = workloads.Fraction(1, 2)
    third = workloads.Fraction(1, 3)
    assert not workloads.is_generic((half, half, half, third, -third))  # t1 t2 = q^2
    assert workloads.is_generic((half, third, -third, workloads.Fraction(1, 5), workloads.Fraction(-1, 7)))


def test_self_time_on_synthetic_tree():
    # span: parent, start, end
    tree = {
        0: (-1, 0, 100),
        1: (0, 10, 30),
        2: (0, 20, 50),  # overlaps span 1
        3: (1, 12, 18),
        4: (0, 60, 70),
        5: (0, 90, 120),  # runs past its parent's end
        6: (-1, 200, 210),
    }
    expected = {0: 100 - 40 - 10 - 10, 1: 20 - 6, 2: 30, 3: 6, 4: 10, 5: 30, 6: 10}
    for order in (sorted(tree), [5, 3, 0, 6, 2, 4, 1]):
        index = {sid: i for i, sid in enumerate(order)}
        parents = [index[tree[s][0]] if tree[s][0] >= 0 else -1 for s in order]
        starts = [tree[s][1] for s in order]
        ends = [tree[s][2] for s in order]
        got = spans.self_times(parents, starts, ends)
        assert {s: got[index[s]] for s in order} == expected


def _fake_package():
    def hyperoctahedral_group(n):
        yield from range(n)

    def enumerate_partitions(n, max_part):
        return list(partitions.hyperoctahedral_group(n))

    partitions = types.ModuleType("fake.partitions")
    partitions.hyperoctahedral_group = hyperoctahedral_group
    partitions.enumerate_partitions = enumerate_partitions
    package = types.ModuleType("fake")
    package.hyperoctahedral_group = hyperoctahedral_group
    return {"": package, "partitions": partitions}


def test_wrappers_cover_every_binding_and_are_removed():
    modules = _fake_package()
    originals = dict(vars(modules["partitions"]))
    tracer = spans.Tracer()
    tracer.current_op = 0
    with spans.installed(tracer, modules) as missing:
        assert modules[""].hyperoctahedral_group is modules["partitions"].hyperoctahedral_group
        assert list(modules[""].hyperoctahedral_group(2)) == [0, 1]
        assert modules["partitions"].enumerate_partitions(3, 0) == [0, 1, 2]
    assert "cli.main" in missing
    assert vars(modules["partitions"]) == originals
    names = [tracer.names[i] for i in tracer.name]
    # two group spans and the end of the first walk, then the call and
    # its nested walk of three elements plus its end
    assert names.count("partitions.hyperoctahedral_group") == 3 + 4
    assert names.count("partitions.enumerate_partitions") == 1
    assert tracer.counters[(0, "partitions.hyperoctahedral_group.elements")] == 5
    nested = [
        tracer.parent[sid]
        for sid in range(len(tracer))
        if tracer.parent[sid] >= 0
    ]
    assert set(nested) == {names.index("partitions.enumerate_partitions")}


def test_failure_classes():
    usage = checks.Result(2, "", "usage: octaboson ...")
    internal = checks.Result(2, json.dumps({"error": {"type": "internal-divisibility"}}), "")
    assert checks.exit_class(usage) == "cli.exit_2_usage"
    assert checks.exit_class(internal) == "cli.exit_2_internal"
    assert checks.exit_class(checks.Result(1, "{}", "")) == "cli.exit_1"
    assert checks.exit_class(checks.Result(3, "{}", "")) == "cli.exit_3"
    assert checks.exit_class(checks.Result(None, "", "", "Traceback")) == "cli.exception"
    assert checks.exit_class(checks.Result(0, "{}", "")) is None


def test_exact_fields_skip_floats_only():
    report = {"pass": True, "n": 2, "expected": "1/3", "value": {"re": 0.5}, "cases": [1, "0"]}
    assert checks.exact_fields(report) == {
        ".cases[0]": 1,
        ".cases[1]": "0",
        ".expected": "1/3",
        ".n": 2,
        ".pass": True,
    }


def test_tolerance_check_uses_report_tolerance():
    pair = {"lambda": [1, 0], "mu": [1, 0], "expected": "2", "value": {"re": 2.0 + 1e-9, "im": 0.0}}
    report = {"pass": True, "tolerance": 1e-8, "pairs": [pair]}
    point = workloads.default_point("four")
    assert checks.check(checks.Result(0, json.dumps(report), ""), point) is None
    pair["value"]["re"] = 2.0 + 1e-6
    assert checks.check(checks.Result(0, json.dumps(report), ""), point) == "check.tolerance"


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    records = [
        {
            "kind": "ab"[i % 2],
            "seconds": 0.01 * (i + 1),
            "reference_loop_s": 2 * speed.REFERENCE_LOOP_S,
            "peak_rss_kib": 1024 * i,
        }
        for i in range(100)
    ]
    speed.scale_to_reference(records)
    printed = run.end_to_end(records, setup_s=0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in printed.items()}
    assert printed["peak_rss_mb"][0] == run.RSS_AFTER_OPS - 1


def test_op_times_are_scaled_to_the_reference_speed():
    # kind a takes 1, 2, 3 s and kind b 4, 8, 16 s: medians 2 and 8
    times = {"a": (1, 2, 3), "b": (4, 8, 16)}
    records = [
        {"kind": k, "seconds": t, "reference_loop_s": 2 * speed.REFERENCE_LOOP_S, "peak_rss_kib": 0}
        for k, ts in times.items()
        for t in ts
    ]
    raw = run.op_times(records)
    assert raw["op_s_p50"] == pytest.approx(4.0)  # geometric mean of 2 and 8
    assert raw["ops_per_s"] == pytest.approx(6 / 34)
    # the machine ran the reference loop at half speed: times halve, rates double
    speed.scale_to_reference(records)
    printed = run.end_to_end(records, setup_s=0.1)
    assert printed["op_s_p50_norm"][0] == pytest.approx(2.0)
    assert printed["op_s_p90_norm"][0] == pytest.approx(raw["op_s_p90"] / 2)
    assert printed["ops_per_s_norm"][0] == pytest.approx(2 * 6 / 34)


def test_each_op_is_scaled_by_its_neighbours_loop_times():
    loops = [1, 1, 1, 9, 1, 1, 2, 2, 2, 2, 2]
    records = [{"seconds": 1.0, "reference_loop_s": x * speed.REFERENCE_LOOP_S} for x in loops]
    speed.scale_to_reference(records)
    scaled = [r["scaled_seconds"] for r in records]
    assert speed.SPEED_WINDOW == 2
    # one slow loop sample is outvoted; a lasting slowdown is followed
    assert scaled[:5] == [1.0] * 5
    assert scaled[-3:] == [0.5] * 3


def test_reference_loop_is_fixed_work():
    assert speed.reference_loop() == speed.reference_loop()
    assert speed.time_reference_loop() > 0


def test_anchor_and_traced_run_match_reference():
    cli = run.load_program()
    kind = next(k for k in workloads.kinds("operator-algebra") if k.name == "adjoint:3:3:two")
    reference = json.loads(run.REFERENCES.read_text())["operator-algebra"][kind.name]
    argv = workloads.anchor_argv(kind)
    point = workloads.default_point(kind.profile)
    plain = run.call(cli, argv)
    assert checks.check(plain, point, reference["exact"]) is None
    tracer = spans.Tracer()
    with spans.installed(tracer, spans.package_modules()) as missing:
        traced = run.call(cli, argv)
    assert missing == []
    assert checks.check(traced, point, reference["exact"]) is None
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.main", "qboson.create", "qboson.sector_inner_product"} <= names
    assert cli.main.__module__ == "octaboson.cli" and not hasattr(cli.main, "__wrapped__")
