"""Operator checks through whole ``LatticeFunction``s, kept as test oracles.

The library checks the degenerations and the adjoint identities on the step
tables of a parameter point and builds no function per state.  This module
keeps the routes through functions: the reduced operators apply the reduced
steps to a function's values, as the public operators apply theirs, and the
adjoint loops take the inner product of every pair of delta functions, as
``verify adjoint`` once did.  Each returns what the library's route must
return: the same images, and the same first failing pair.
"""

from __future__ import annotations

from typing import Callable

from octaboson import qboson
from octaboson.partitions import enumerate_partitions
from octaboson.qboson import LatticeFunction, Mismatch, _apply_steps
from octaboson.qkernels import ParamSet


def reduced_create(
    l: int, f: LatticeFunction, params: ParamSet, hop_up: Callable
) -> LatticeFunction:
    """Degeneration oracle for create at a reduced profile: each state of f
    takes its ``_reduced_create_step``."""
    return _apply_steps(
        lambda site, mu, params: qboson._reduced_create_step(site, mu, params, hop_up),
        l, f, params, f.n + 1,
    )


def reduced_annihilate(l: int, f: LatticeFunction) -> LatticeFunction:
    """Degeneration oracle for annihilate at t = 0: each state of f takes
    its ``_reduced_annihilate_step``."""
    return _apply_steps(
        lambda site, mu, _params: qboson._reduced_annihilate_step(site, mu), l, f, None, f.n - 1
    )


def pairing(f: LatticeFunction, g: LatticeFunction, params: ParamSet):
    """<f, g>, taken only where the supports meet; elsewhere it is 0, the
    empty sum ``sector_inner_product`` would return."""
    if f.values.keys().isdisjoint(g.values.keys()):
        return 0
    return qboson.sector_inner_product(f, g, params)


def delta_sectors(n: int, max_part: int) -> list[dict]:
    """The delta function of each state of sectors 0..n, per sector."""
    return [
        {mu: LatticeFunction.delta(mu) for mu in enumerate_partitions(sector, max_part)}
        for sector in range(n + 1)
    ]


def adjointness_mismatch(deltas: list[dict], max_part: int, params: ParamSet) -> Mismatch | None:
    """The first (site l, lower state mu, upper state lam) of consecutive
    sectors with <create(l) delta_mu, delta_lam> != <delta_mu,
    annihilate(l) delta_lam>, both sides exact, or None when none is."""
    for lower, upper in zip(deltas, deltas[1:]):
        for l in range(max_part + 1):
            created = [(mu, f, qboson.create(l, f, params)) for mu, f in lower.items()]
            for lam, g in upper.items():
                annihilated = qboson.annihilate(l, g, params)
                for mu, f, created_f in created:
                    lhs = pairing(created_f, g, params)
                    rhs = pairing(f, annihilated, params)
                    if lhs != rhs:
                        where = {"site": l, "lower": mu, "upper": lam}
                        return Mismatch(where, {"lhs": lhs, "rhs": rhs})
    return None


def symmetry_mismatch(deltas: list[dict], params: ParamSet) -> Mismatch | None:
    """The first states (lam, mu) of one sector 1..n with <H delta_lam,
    delta_mu> != <delta_lam, H delta_mu>, both sides exact, or None when
    none is."""
    for sector in deltas[1:]:
        images = {lam: qboson.apply_hamiltonian(f, params) for lam, f in sector.items()}
        for lam, f in sector.items():
            for mu, g in sector.items():
                lhs = pairing(images[lam], g, params)
                rhs = pairing(f, images[mu], params)
                if lhs != rhs:
                    return Mismatch({"left": lam, "right": mu}, {"lhs": lhs, "rhs": rhs})
    return None
