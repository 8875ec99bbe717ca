import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from octaboson import hallittlewood
from octaboson.qkernels import ParamSet, default_params

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def params4() -> ParamSet:
    return default_params("four")


@pytest.fixture(scope="session")
def params3() -> ParamSet:
    return default_params("three")


@pytest.fixture(scope="session")
def params2() -> ParamSet:
    return default_params("two")


@pytest.fixture(scope="session")
def param_triple(params4) -> tuple[ParamSet, ParamSet, ParamSet]:
    """Three distinct generic rational parameter points (identity-in-parameters
    claims are certified by multi-point sampling)."""
    second = ParamSet(
        q=Fraction(1, 3),
        ts=(Fraction(1, 2), Fraction(1, 5), Fraction(-2, 7), Fraction(3, 8)),
    )
    third = ParamSet(
        q=Fraction(2, 5),
        ts=(Fraction(-1, 2), Fraction(2, 3), Fraction(1, 7), Fraction(-1, 9)),
    )
    return (params4, second, third)


@pytest.fixture
def fresh_construction():
    """Empty the construction caches before and after a test, so the test
    builds from scratch and leaves nothing built under a monkeypatch."""
    caches = (
        hallittlewood.hl_polynomial,
        hallittlewood.macdonald_formula,
        hallittlewood._inversion_entries,
        hallittlewood._seed_block,
    )
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py``, whose ``clear_caches`` runs before every benchmark op."""
    names = ("run", "checks", "spans", "speed", "workloads")
    monkeypatch.syspath_prepend(str(BENCH))
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("run")
    for name in names:
        sys.modules.pop(name, None)


@pytest.fixture
def cold_caches(bench_run):
    """Every package cache emptied, by the benchmark's own rule, before and
    after the test."""
    modules = bench_run.spans.package_modules()
    bench_run.clear_caches(modules)
    yield
    bench_run.clear_caches(modules)
