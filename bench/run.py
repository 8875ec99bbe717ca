#!/usr/bin/env python3
"""Benchmark of the octaboson command line.

    python3 bench/run.py --workload exact-construct --seed 1 --seconds 40 --trace 0

Runs ``octaboson.cli.main(argv)`` in this process, from one single-threaded
client as a closed loop: the next op starts when the previous one has
returned and its report has been checked.  The program is imported from
``src/`` of the checkout that holds this file.

The program's caches are emptied before every op, as in a fresh process.
With ``--trace 0`` each op is preceded by the reference loop, a fixed piece
of pure-Python work that measures how fast the machine runs at that moment,
and the last line of stdout holds the end-to-end metrics.  With
``--trace 1`` every op runs twice, untraced and traced, and the last line
holds the per-layer metrics.  See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCES = Path(__file__).with_name("reference.json")
BUDGET_ENV = "OCTABOSON_BUDGET"
SETUP_REPEATS = 11
#: reference loops each set-up interpreter runs after the import
SETUP_LOOPS = 5
RSS_AFTER_OPS = 60

#: spans reported with calls and self time per op
CALLS_AND_SELF = (
    "hallittlewood.hl_polynomial",
    "hallittlewood.macdonald_formula",
    "laurent.apply_w",
    "laurent.div_binomial_exact",
    "laurent.mul",
    "torus.inner_product",
    "torus.gram_matrix",
)
#: spans reported with self time per op only
SELF_ONLY = (
    "hallittlewood.expand_in_monomials",
    "hallittlewood.principal_specialization",
    "laurent.evaluate_exact",
    "partitions.hyperoctahedral_group",
    "partitions.enumerate_partitions",
    "cli.main",
)
#: spans reported with calls and self time per op, also split by profile
PROFILE_SPLIT = (
    "qboson.create",
    "qboson.annihilate",
    "qboson.number_op",
    "qboson.sector_inner_product",
    "qboson.verify_relation",
    "qboson.apply_hamiltonian",
    "qkernels.quadratic_norm",
    "qkernels.monic_normalizer",
    "qkernels.principal_normalizer",
    "qkernels.hop_coeff",
    "qkernels.boundary_potential",
)
#: counters reported per op, with their units
COUNTERS = (
    ("hallittlewood.hl_polynomial.result_terms", "terms/op"),
    ("partitions.hyperoctahedral_group.elements", "count/op"),
    ("torus.grid_point_evals", "evals/op"),
    ("cli.report_bytes", "B/op"),
)
PROFILE_COUNTERS = (("qboson.verify_relation.cases", "cases/op"),)
PROFILES = ("four", "three", "two")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units: dict[str, str] = {}
    for span in CALLS_AND_SELF:
        units[f"{span}.calls"] = "calls/op"
        units[f"{span}.self_s"] = "s/op"
    units["hallittlewood.hl_polynomial.cache_hit_ratio"] = "ratio"
    for span in SELF_ONLY:
        units[f"{span}.self_s"] = "s/op"
    for name, unit in COUNTERS:
        units[name] = unit
    for suffix in ("", *(f".{p}" for p in PROFILES)):
        for span in PROFILE_SPLIT:
            units[f"{span}.calls{suffix}"] = "calls/op"
            units[f"{span}.self_s{suffix}"] = "s/op"
        for name, unit in PROFILE_COUNTERS:
            units[f"{name}{suffix}"] = unit
    units["trace_overhead_frac"] = "ratio"
    return units


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# the program
# ---------------------------------------------------------------------------


def load_program():
    """Import ``octaboson.cli`` from this checkout's sources, and no other."""
    if not (SRC / "octaboson" / "cli.py").is_file():
        raise SetupError(f"no program sources at {SRC / 'octaboson'}")
    if os.environ.get(BUDGET_ENV):
        raise SetupError(f"{BUDGET_ENV} is set; runs are only comparable with it unset")
    sys.path.insert(0, str(SRC))
    import octaboson.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"octaboson was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median time to import ``octaboson.cli`` in a fresh interpreter,
    each scaled to the reference machine speed by the reference loop that
    the same interpreter runs after the import."""
    code = (
        "import time; t = time.perf_counter(); import octaboson.cli; "
        "elapsed = time.perf_counter() - t; import speed; "
        f"print(elapsed, speed.loop_time_after_import({SETUP_LOOPS}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH)))}
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, loop_s = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append(elapsed * speed.REFERENCE_LOOP_S / loop_s)
    return statistics.median(times)


def call(cli, argv: list[str]) -> checks.Result:
    """One op: ``cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the loop must go on; the op counts as failed
            exception = traceback.format_exc(limit=-3)
    return checks.Result(code, out.getvalue(), err.getvalue(), exception)


def clear_caches(modules: dict[str, object]) -> None:
    """Empty every ``lru_cache`` of the program, as in a fresh process."""
    seen = set()
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        BUDGET_ENV: os.environ.get(BUDGET_ENV),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_anchors(cli, workload: str) -> list[tuple[str, str]]:
    """Each op kind once at the default point; returns (kind, failure) pairs."""
    references = json.loads(REFERENCES.read_text())[workload]
    failures = []
    for kind in workloads.kinds(workload):
        argv = workloads.anchor_argv(kind)
        reference = references.get(kind.name)
        if reference is None or reference["argv"] != argv:
            failures.append((kind.name, "check.no_reference"))
            continue
        point = workloads.default_point(kind.profile)
        failure = checks.check(call(cli, argv), point, reference["exact"])
        if failure is not None:
            failures.append((kind.name, failure))
    return failures


def timed_records(records: list[dict], cycle_len: int) -> list[dict]:
    """The records of whole cycles, so every run times the same op mix;
    all records if no cycle finished."""
    per_cycle = Counter(r["cycle"] for r in records)
    whole = [r for r in records if per_cycle[r["cycle"]] == cycle_len]
    return whole or records


def run_plain(cli, workload: str, seed: int, seconds: float) -> list[dict]:
    """Each op from empty caches and a collected heap, after the reference
    loop; neither the emptying nor the loop is part of the op's time."""
    modules = spans.package_modules()
    records = []
    start = time.perf_counter()
    for op in workloads.ops(workload, seed):
        if time.perf_counter() - start >= seconds:
            break
        clear_caches(modules)
        gc.collect()
        loop_s = speed.time_reference_loop()
        t0 = time.perf_counter()
        result = call(cli, op.argv)
        elapsed = time.perf_counter() - t0
        records.append(
            {
                "kind": op.kind.name,
                "cycle": op.cycle,
                "seconds": elapsed,
                "reference_loop_s": loop_s,
                "failure": checks.check(result, op.point),
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    speed.scale_to_reference(records)
    return records


def run_traced(cli, workload: str, seed: int, seconds: float, tracer: spans.Tracer):
    """Each op untraced and traced; caches are emptied before each call."""
    modules = spans.package_modules()
    records, missing = [], set()
    start = time.perf_counter()
    for op in workloads.ops(workload, seed):
        if time.perf_counter() - start >= seconds:
            break
        tracer.current_op = len(records)
        # alternate which call goes first: the second call of an op runs
        # faster, on memory the first one has just freed
        for traced_now in (True, False) if len(records) % 2 else (False, True):
            clear_caches(modules)
            gc.collect()
            if traced_now:
                with spans.installed(tracer, modules) as absent:
                    t0 = time.perf_counter()
                    traced = call(cli, op.argv)
                    traced_s = time.perf_counter() - t0
                missing.update(absent)
            else:
                t0 = time.perf_counter()
                plain = call(cli, op.argv)
                plain_s = time.perf_counter() - t0
        tracer.count("cli.report_bytes", len(traced.out.encode()))
        failure = checks.check(plain, op.point) or checks.check(traced, op.point)
        if failure is None and checks.exact_fields(plain.report()) != checks.exact_fields(
            traced.report()
        ):
            failure = "trace.report_mismatch"
        records.append(
            {
                "kind": op.kind.name,
                "profile": op.kind.profile,
                "cycle": op.cycle,
                "argv": op.argv,
                "seconds": plain_s,
                "traced_seconds": traced_s,
                "failure": failure,
            }
        )
    return records, sorted(missing)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def op_times(records: list[dict], key: str = "seconds") -> dict[str, float]:
    """Op-time statistics of ``record[key]``: the geometric mean over op
    kinds of each kind's median, the 90th percentile over all ops, and ops
    per second of op time."""
    times = [r[key] for r in records]
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(r[key])
    medians = [statistics.median(v) for v in by_kind.values()]
    return {
        "op_s_p50": math.exp(statistics.fmean(map(math.log, medians))),
        "op_s_p90": statistics.quantiles(times, n=10)[-1],
        "ops_per_s": len(times) / sum(times),
    }


def end_to_end(records: list[dict], setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; the op-time ones from the times scaled to the
    reference machine speed (``speed.scale_to_reference``)."""
    scaled = op_times(records, "scaled_seconds")
    # peak RSS after a fixed number of ops, so that every run reads it
    # after the same work
    rss_kib = records[min(RSS_AFTER_OPS, len(records)) - 1]["peak_rss_kib"]
    return {
        "op_s_p50_norm": (scaled["op_s_p50"], "s"),
        "op_s_p90_norm": (scaled["op_s_p90"], "s"),
        "ops_per_s_norm": (scaled["ops_per_s"], "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(records: list[dict], tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    """Per-op averages over the traced ops in ``records`` (records are
    indexed by op id); the profile-suffixed metrics average over the ops
    of that profile only."""
    op_ids = {i for i, r in enumerate(records) if r.get("timed")}
    profile_of = {i: records[i]["profile"] for i in op_ids}
    ops_of = Counter(profile_of.values())
    totals: dict[tuple[str, str], float] = defaultdict(float)
    self_ns = spans.self_times(tracer.parent, tracer.start, tracer.end)
    for sid in range(len(tracer)):
        op = tracer.op[sid]
        if op in op_ids:
            name = tracer.names[tracer.name[sid]]
            totals[f"{name}.calls", profile_of[op]] += 1
            totals[f"{name}.self_s", profile_of[op]] += self_ns[sid] / 1e9
    for (op, key), value in tracer.counters.items():
        if op in op_ids:
            totals[key, profile_of[op]] += value

    def average(key: str, profile: str | None = None) -> float:
        if profile is None:
            return sum(v for (k, _), v in totals.items() if k == key) / len(op_ids)
        count = ops_of[profile]
        return totals.get((key, profile), 0.0) / count if count else 0.0

    hl = "hallittlewood.hl_polynomial"
    lookups = average(f"{hl}.hits") + average(f"{hl}.misses")
    plain = statistics.median(records[i]["seconds"] for i in op_ids)
    traced = statistics.median(records[i]["traced_seconds"] for i in op_ids)
    special = {
        f"{hl}.cache_hit_ratio": average(f"{hl}.hits") / lookups if lookups else 0.0,
        "trace_overhead_frac": traced / plain - 1,
    }
    out = {}
    for name, unit in per_layer_units().items():
        if name in special:
            value = special[name]
        else:
            base, _, suffix = name.rpartition(".")
            if suffix in PROFILES:
                value = average(base, suffix)
            else:
                value = average(name)
        out[name] = (value, unit)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_program()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    phases = {"start": time.perf_counter()}
    setup_s = measure_setup() if not args.trace else None
    phases["setup"] = time.perf_counter()
    anchor_failures = run_anchors(cli, args.workload)
    phases["anchors"] = time.perf_counter()
    cycle_len = len(workloads.kinds(args.workload))
    tracer = spans.Tracer()
    if args.trace:
        records, missing = run_traced(cli, args.workload, args.seed, args.seconds, tracer)
    else:
        records, missing = run_plain(cli, args.workload, args.seed, args.seconds), []
    phases["loop"] = time.perf_counter()
    timed = timed_records(records, cycle_len)
    for record in timed:
        record["timed"] = True
    if args.trace:
        metrics = per_layer(records, tracer)
    else:
        metrics = end_to_end(timed, setup_s)
    phases["metrics"] = time.perf_counter()

    failures = Counter(r["failure"] for r in records if r["failure"])
    failures.update(failure for _, failure in anchor_failures)
    attempted = len(records) + cycle_len
    failed = sum(failures.values())
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_timed": len(timed),
        "phase_seconds": {
            phase: round(phases[phase] - phases[before], 3)
            for before, phase in zip(phases, list(phases)[1:])
        },
        "op_times_as_measured": op_times(timed) if not args.trace else None,
        "reference_loop_s_median": (
            statistics.median(r["reference_loop_s"] for r in timed) if not args.trace else None
        ),
        "failure_classes": dict(failures),
        "anchor_failures": anchor_failures,
        "missing_trace_targets": missing,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**summary, "metrics": metrics, "ops": records}, indent=1) + "\n"
    )
    if args.trace:
        ops_info = [{k: r[k] for k in ("kind", "profile", "argv")} for r in records]
        tracer.write_jsonl(OUT / f"{stem}-spans.jsonl.gz", ops_info)
    if len(timed) < 100:
        print(f"bench: only {len(timed)} timed ops; op_s_p90_norm wants at least 100", file=sys.stderr)
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
