"""The package's caches change no result, stay bounded and are reread.

Each coefficient and relation scalar is cached per occupation numbers and
point, and each q-series factor per its arguments; a norm is computed where
it is read.  Every suite runs whole in its module on tables it owns: the
operator checks' step tables and Hamiltonian rows, and the polynomials
and normalizers of the polynomial suites, each built once per run by
``sector_polynomials``, which reads no polynomial cache; an eigen run
evaluates each orbit sum once per sample.  A result must not depend on
what an earlier point left in a cache, and the benchmark, which empties
every module-level ``lru_cache`` before each op, must reach each cache.  A
cache that no benchmark anchor run rereads from cold has no place.
"""

from fractions import Fraction

import pytest

from octaboson import cli, hallittlewood, qboson, qkernels
from octaboson.qboson import (
    EXCHANGE_RELATIONS,
    RELATION_IDS,
    LatticeFunction,
    apply_hamiltonian,
    sector_inner_product,
    verify_relation,
)
from octaboson.qkernels import ParamSet, default_params

F = Fraction

#: the caches keyed by occupation numbers and the q-series caches
STEP_CACHES = (
    qboson._annihilation_coeff,
    qboson._pair_scalar_b,
    qboson._pair_scalar_c,
    qboson._twist_ratio,
    qkernels._creation_coeff,
    qkernels._boundary_potential,
    qkernels.qpochhammer,
    qkernels.qinteger,
)

#: (relation, l, k, twisted) at boundary and bulk sites, with the untwisted
#: witness, whose residual is nonzero in the full profile
CASES = tuple(
    (rid, l, k, True)
    for rid in RELATION_IDS
    for l, k in (((0, 1), (1, 2)) if rid in EXCHANGE_RELATIONS else ((0, 0), (0, 1), (1, 0)))
) + (("d1", 0, 1, False),)


def _other_point(params: ParamSet) -> ParamSet:
    """A second generic point with the profile of ``params``."""
    nonzero = sum(1 for t in params.ts if t)
    ts = (F(1, 2), F(1, 5), F(-2, 7), F(3, 8))[:nonzero] + (F(0),) * (4 - nonzero)
    return ParamSet(q=F(1, 3), ts=ts, profile=params.profile)


def _residuals(params: ParamSet) -> list:
    return [
        verify_relation(rid, l, k, 2, 2, params, twisted=twisted)
        for rid, l, k, twisted in CASES
    ]


@pytest.mark.parametrize("profile", ["four", "three", "two"])
def test_results_do_not_depend_on_warm_caches(profile, bench_run):
    params = default_params(profile)
    modules = bench_run.spans.package_modules()
    bench_run.clear_caches(modules)
    cold = _residuals(params)
    bench_run.clear_caches(modules)
    _residuals(_other_point(params))
    assert _residuals(params) == cold
    assert any(result.residual for result in cold) == (profile == "four")


def test_benchmark_empties_every_step_cache(bench_run, params4):
    for rid, l, k, twisted in CASES:
        verify_relation(rid, l, k, 2, 2, params4, twisted=twisted)
    f = LatticeFunction.delta((1, 0))
    sector_inner_product(f, f, params4)
    apply_hamiltonian(f, params4)
    # the reduced closed forms read the q-series factors, which the integer kernels do not
    qkernels.norm_three((1, 0), params4.q, params4.ts)
    assert all(cache.cache_info().currsize for cache in STEP_CACHES)
    bench_run.clear_caches(bench_run.spans.package_modules())
    assert [cache.cache_info().currsize for cache in STEP_CACHES] == [0] * len(STEP_CACHES)


def test_benchmark_empties_the_seed_block_cache(bench_run, params4):
    # the cached seed holds a numpy exponent matrix; a cold op must rebuild it
    hallittlewood.hl_polynomial((1, 0), params4)
    assert hallittlewood._seed_block.cache_info().currsize
    bench_run.clear_caches(bench_run.spans.package_modules())
    assert hallittlewood._seed_block.cache_info().currsize == 0


def test_eigen_run_builds_each_polynomial_once(capsys, monkeypatch, cold_caches):
    # 120 states and 15 neighbours (15, k): more polynomials than the
    # 128 that hl_polynomial's cache holds, each built once for the run
    built = []
    builder = hallittlewood.sector_polynomials

    def counting(lams, params, **kwargs):
        built.extend(lams)
        return builder(lams, params, **kwargs)

    monkeypatch.setattr(hallittlewood, "sector_polynomials", counting)
    argv = ["verify", "eigen", "--n", "2", "--maxPart", "14"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(built) == len(set(built)) == 135


def test_eigen_run_takes_each_orbit_sum_once_per_sample(capsys, monkeypatch, params4):
    calls = []
    original = qboson.orbit_sums

    def recording(xi, mus):
        mus = list(mus)
        calls.append(mus)
        return original(xi, mus)

    monkeypatch.setattr(qboson, "orbit_sums", recording)
    assert cli.main(["verify", "eigen", "--n", "2", "--maxPart", "3"]) == cli.EXIT_OK
    capsys.readouterr()
    _, polys = hallittlewood.recurrence_sector(2, 3, params4)
    support = {mu for hl in polys.values() for mu in hl.expansion}
    assert len(calls) == 20
    for mus in calls:
        assert len(mus) == len(support) and set(mus) == support


def _module_caches(modules: dict) -> dict:
    """Every module-level ``lru_cache`` of the loaded package, by dotted name."""
    return {
        f"{name}.{attr}": value
        for name, module in modules.items()
        for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None))
    }


def test_every_cache_is_bounded(bench_run):
    caches = _module_caches(bench_run.spans.package_modules())
    assert set(STEP_CACHES) <= set(caches.values())
    assert [name for name, cache in caches.items() if cache.cache_info().maxsize is None] == []


def test_every_cache_is_reread_in_a_cold_anchor_run(capsys, bench_run):
    # every anchor op of the three workloads, each from emptied caches as
    # the benchmark runs it; a cache that none of them rereads is waste
    workloads = bench_run.workloads
    modules = bench_run.spans.package_modules()
    caches = _module_caches(modules)
    hits = dict.fromkeys(caches, 0)
    for workload in workloads.WORKLOADS:
        for kind in workloads.kinds(workload):
            bench_run.clear_caches(modules)
            assert cli.main(workloads.anchor_argv(kind)) == cli.EXIT_OK, kind.name
            capsys.readouterr()
            for name, cache in caches.items():
                hits[name] += cache.cache_info().hits
    bench_run.clear_caches(modules)
    # no CLI run rereads a polynomial; these two stay because the
    # benchmark's traced spans read their cache_info (spans._cached_wrapper)
    exempt = {hallittlewood.hl_polynomial, hallittlewood.macdonald_formula}
    assert [name for name, count in hits.items() if not count and caches[name] not in exempt] == []
