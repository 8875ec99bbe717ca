"""``verify_relation`` on basis images against the route through functions.

``verify_relation`` applies both sides of a relation to the whole delta
basis at once, each delta function's image a (state, numerator,
denominator) triple.  The oracle below applies the same relation table to
one whole ``LatticeFunction`` per delta function through the public
operators, so the relation checks still exercise ``_apply_steps``; both
routes must give the same exact worst residual, case count and worst case.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from octaboson import cli, qboson
from octaboson.partitions import enumerate_partitions, multiplicity
from octaboson.qboson import (
    EXCHANGE_RELATIONS,
    RELATION_IDS,
    SINGLE_SITE_RELATIONS,
    LatticeFunction,
    Mismatch,
    RelationResidual,
    annihilate,
    create,
    number_op,
    verify_relation,
)
from octaboson.qkernels import PROFILES, ParamSet, default_params, occupation_key


class FunctionOps:
    """The sector operators of a relation check on whole functions."""

    def __init__(self, l, k, params, twisted):
        self.params = params
        self.q = params.q
        self.twist_on = twisted and l == 0 and k == 1

    def a(self, site, f):
        return annihilate(site, f, self.params)

    def c(self, site, f):
        return create(site, f, self.params)

    def n(self, site, f):
        return number_op(site, f, self.params)

    def scale(self, factor, f):
        return f.scale(factor)

    def diag(self, scalar, site, f):
        return LatticeFunction(
            f.n,
            {lam: scalar(*occupation_key(lam, site), self.params) * v for lam, v in f.values.items()},
        )

    def twist(self, f, inverse):
        if not self.twist_on:
            return f
        return LatticeFunction(
            f.n,
            {
                lam: qboson._twist_ratio(
                    multiplicity(lam, 0), multiplicity(lam, 1), self.params, inverse
                )
                * v
                for lam, v in f.values.items()
            },
        )


def function_image(f):
    """The one (state, value) pair of a function, or None for zero."""
    assert len(f.values) <= 1
    return next(iter(f.values.items()), None)


def function_route(relation_id, l, k, n, max_part, params, twisted=True):
    sides = qboson._RELATIONS[relation_id]
    ops = FunctionOps(l, k, params, twisted)
    states = enumerate_partitions(n, max_part)
    worst, worst_case = Fraction(0), None
    for mu in states:
        lhs, rhs = sides(ops, l, k, LatticeFunction.delta(mu))
        residual = max([Fraction(0), *(abs(v) for v in (lhs - rhs).values.values())])
        if residual > worst:
            worst = residual
            images = {"lhs": function_image(lhs), "rhs": function_image(rhs)}
            worst_case = Mismatch({"sites": (l, k), "state": mu}, images)
    return RelationResidual(worst, len(states), worst_case)


def large_height_params(profile, seed=61):
    """A seeded point of ``profile`` whose parameters are a / 2^61: the
    cross-multiplied numerators and denominators run far past 64 bits."""
    rng = random.Random(seed)
    height = 2**61
    q = Fraction(rng.randrange(1, height, 2), height)
    ts = [Fraction(rng.choice((-1, 1)) * rng.randrange(1, height, 2), height) for _ in range(4)]
    zeros = {"four": 0, "three": 1, "two": 2}[profile]
    return ParamSet(q=q, ts=tuple(ts[: 4 - zeros]) + (Fraction(0),) * zeros, profile=profile)


def suite_cases():
    """(relation, l, k, twisted) of every check ``verify algebra`` runs."""
    site_max = 5
    for rid in RELATION_IDS:
        for l in range(site_max + 1):
            for k in range(site_max + 1):
                if rid not in EXCHANGE_RELATIONS or l < k:
                    yield rid, l, k, True
    yield "d1", 0, 1, False


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("max_part", [2, 3])
def test_basis_images_match_the_function_route(profile, max_part):
    for params in (default_params(profile), large_height_params(profile)):
        for n in range(4):
            # the checks of one sector share its tables and batches, as in a
            # ``verify algebra`` run
            ops = qboson._BasisOps(n, max_part, params)
            for rid, l, k, twisted in suite_cases():
                expected = function_route(rid, l, k, n, max_part, params, twisted)
                got = ops.residual(rid, l, k, twisted)
                assert got == expected, (rid, l, k, twisted, n, params)
                assert type(got.residual) is Fraction


def test_untwisted_witness_residual_is_exact_and_nonzero(params4):
    for n in (2, 3):
        expected = function_route("d1", 0, 1, n, 3, params4, twisted=False)
        assert expected.residual != 0 and expected.worst_case.where["sites"] == (0, 1)
        assert verify_relation("d1", 0, 1, n, 3, params4, twisted=False) == expected


def as_function(image, n):
    if image is None:
        return LatticeFunction.zero(n)
    mu, value = image
    return LatticeFunction(n, {mu: value})


def test_image_residual_is_the_largest_difference():
    # the suites' relations send both sides to one state; a broken relation
    # could send them to two, or to a zero coefficient
    images = (None, ((1,), Fraction(1)), ((1,), Fraction(-3)), ((1,), Fraction(0)))
    images += (((0,), Fraction(2)),)
    for lhs in images:
        for rhs in images:
            difference = (as_function(lhs, 1) - as_function(rhs, 1)).values.values()
            expected = max([Fraction(0), *(abs(v) for v in difference)])
            assert qboson._image_residual(lhs, rhs) == expected, (lhs, rhs)


def test_images_equal_cross_multiplies():
    # integer images are not reduced: equal values can have different
    # numerators, equal numerators different values, and a zero image any
    # state
    images = (
        None,
        ((1,), 0, 3),
        ((1,), 2, 4),
        ((1,), 1, 2),
        ((1,), 2, 3),
        ((1,), -2, 4),
        ((0,), 1, 2),
        ((0,), 0, 5),
    )
    for lhs in images:
        for rhs in images:
            left, right = (
                LatticeFunction(1, {} if image is None else {image[0]: Fraction(image[1], image[2])})
                for image in (lhs, rhs)
            )
            assert qboson._images_equal(lhs, rhs) == (left - right).is_zero, (lhs, rhs)


@pytest.mark.parametrize("profile", PROFILES)
def test_single_site_relations_read_l_alone(profile):
    # ``verify algebra`` checks these relations once per l and counts the
    # result at every k; both sides, not only the residual, must not read k
    params = default_params(profile)
    sites = range(6)
    for rid in SINGLE_SITE_RELATIONS:
        sides = qboson._RELATIONS[rid]
        for n in range(4):
            for max_part in (2, 3):
                ops = qboson._BasisOps(n, max_part, params)
                basis = ops.basis
                for l in sites:
                    at_zero = ops.residual(rid, l, 0)
                    images_at_zero = sides(ops, l, 0, basis)
                    assert all(len(side) == len(basis) for side in images_at_zero)
                    for k in sites:
                        got = ops.residual(rid, l, k)
                        assert got == at_zero, (rid, l, k, n, max_part)
                        # every delta function's image on both sides
                        assert sides(ops, l, k, basis) == images_at_zero, (rid, l, k, n)


def test_algebra_run_fills_each_step_once(capsys, monkeypatch):
    # one ``verify algebra`` run builds one ``_BasisOps``, whose step tables
    # every relation check and the witness share: each (operator, site,
    # state) step is evaluated once
    built, steps = [], Counter()

    class CountedOps(qboson._BasisOps):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counted(name, step):
        def wrapper(l, mu, params):
            steps[name, l, mu] += 1
            return step(l, mu, params)
        return wrapper

    monkeypatch.setattr(qboson, "_BasisOps", CountedOps)
    for name in ("_annihilate_step", "_create_step"):
        monkeypatch.setattr(qboson, name, counted(name, getattr(qboson, name)))
    assert cli.main(["verify", "algebra", "--n", "3", "--maxPart", "3"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]
    assert len(built) == 1
    # both operators at each of the sites 0..5
    assert {(name, l) for name, l, _ in steps} == {
        (name, l) for name in ("_annihilate_step", "_create_step") for l in range(6)
    }
    assert set(steps.values()) == {1}
