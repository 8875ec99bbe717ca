"""The package's caches change no result and stay bounded.

Each operator step is cached per (site, state, parameter point), each
coefficient and relation scalar per occupation numbers and point, each
norm per (state, point) and each q-series factor per its arguments; a
result must not depend on what an earlier point left in a cache, and the
benchmark, which empties every module-level ``lru_cache`` before each op,
must reach each cache.
"""

from fractions import Fraction

import pytest

from octaboson import hallittlewood, qboson, qkernels
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

#: the (site, state) step caches, the caches keyed by occupation numbers
#: and the q-series caches
STEP_CACHES = (
    qboson._annihilate_step,
    qboson._create_step,
    qboson._number_step,
    qboson._annihilation_coeff,
    qboson._pair_scalar_b,
    qboson._pair_scalar_c,
    qboson._twist_ratio,
    qkernels._creation_coeff,
    qkernels._boundary_potential,
    qkernels._quadratic_norm,
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
    assert all(cache.cache_info().currsize for cache in STEP_CACHES)
    bench_run.clear_caches(bench_run.spans.package_modules())
    assert [cache.cache_info().currsize for cache in STEP_CACHES] == [0] * len(STEP_CACHES)


def test_benchmark_empties_the_seed_block_cache(bench_run, params4):
    # the cached seed holds a numpy exponent matrix; a cold op must rebuild it
    hallittlewood.hl_polynomial((1, 0), params4)
    assert hallittlewood._seed_block.cache_info().currsize
    bench_run.clear_caches(bench_run.spans.package_modules())
    assert hallittlewood._seed_block.cache_info().currsize == 0


def test_every_cache_is_bounded(bench_run):
    caches = {
        f"{name}.{attr}": value
        for name, module in bench_run.spans.package_modules().items()
        for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None))
    }
    assert set(STEP_CACHES) <= set(caches.values())
    assert [name for name, cache in caches.items() if cache.cache_info().maxsize is None] == []
