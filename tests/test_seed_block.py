"""The seed block's packed product against a tuple-keyed oracle, its
decoded exponent matrix, and the exponent box that bounds it before any
work."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaboson import hallittlewood
from octaboson.budget import BudgetExceededError
from octaboson.hallittlewood import _binomial_product, _exponent_box, _seed_binomials, _seed_block
from octaboson.qkernels import default_params

F = Fraction


def tuple_binomial_product(n, binomials):
    """prod (1 - c x^e) keyed by exponent tuples, as integer terms over the
    common denominator prod b, c = a/b: the product before packing."""
    acc = {(0,) * n: 1}
    denominator = 1
    for c, exp in binomials:
        a, b = c.numerator, c.denominator
        product = {key: b * v for key, v in acc.items()}
        for key, v in acc.items():
            key = tuple(x + y for x, y in zip(key, exp))
            new = product.get(key, 0) - a * v
            if new:
                product[key] = new
            else:
                product.pop(key, None)
        acc = product
        denominator *= b
    return acc, denominator


_coefficients = st.one_of(
    st.sampled_from((F(1), F(-1))),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)


@st.composite
def binomial_lists(draw):
    n = draw(st.integers(1, 4))
    exponent = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(st.tuples(_coefficients, exponent), max_size=7))


@settings(max_examples=200, deadline=None)
@given(binomial_lists())
@example((2, []))
@example((3, [(F(1), (0, 0, 0))]))
@example((2, [(F(-1), (1, -2)), (F(1), (0, 0)), (F(2, 3), (2, 2))]))
@example((4, [(F(1), (1, 0, -1, 2)), (F(-1), (-2, 2, 0, 1)), (F(1), (-1, 0, 1, -2))]))
def test_packed_product_matches_tuple_product(case):
    n, binomials = case
    exponents, coefficients, denominator = _binomial_product(n, binomials)
    assert exponents.shape == (len(coefficients), n)
    assert exponents.dtype == np.int64 and not exponents.flags.writeable
    rows = list(map(tuple, exponents.tolist()))
    assert (dict(zip(rows, coefficients)), denominator) == tuple_binomial_product(n, binomials)
    assert len(set(rows)) == len(rows)
    assert all(type(c) is int for c in coefficients)
    lo, size = _exponent_box(n, binomials)
    for exp in rows:
        assert all(l <= e < l + s for e, l, s in zip(exp, lo, size))


def _as_terms(seed):
    exponents, coefficients, denominator = seed
    return exponents.shape, list(zip(map(tuple, exponents.tolist()), coefficients)), denominator


def test_full_cancellation_and_empty_list():
    # a factor (1 - x^0) is the zero polynomial
    assert _as_terms(_binomial_product(2, [(F(1, 2), (1, 0)), (F(1), (0, 0))])) == ((0, 2), [], 2)
    assert _as_terms(_binomial_product(3, [])) == ((1, 3), [((0, 0, 0), 1)], 1)
    assert _as_terms(_binomial_product(0, [])) == ((1, 0), [((), 1)], 1)


@pytest.mark.parametrize("profile", ["four", "two"])
def test_box_bounds_every_seed_block(profile):
    params = default_params(profile)
    for n in range(5):
        for zero_count in range(n + 1):
            lo, size = _exponent_box(n, _seed_binomials(n, zero_count, params))
            assert math.prod(size) >= len(_seed_block(n, zero_count, params)[0]), (n, zero_count)
            if profile == "two":
                # one box for every block, so the classical formula's block,
                # without zero parts, needs no check of its own
                assert (lo, size) == _exponent_box(n, _seed_binomials(n, 0, params)), (n, zero_count)


def test_budget_checked_before_the_first_factor(monkeypatch, params4):
    binomials = _seed_binomials(3, 0, params4)
    box = math.prod(_exponent_box(3, binomials)[1])
    monkeypatch.setenv("OCTABOSON_BUDGET", str(box))
    _binomial_product(3, binomials)
    monkeypatch.setenv("OCTABOSON_BUDGET", str(box - 1))
    with pytest.raises(BudgetExceededError) as info:
        _binomial_product(3, binomials)
    assert info.value.evidence == {"n": 3, "terms": box, "budget": box - 1}
    with pytest.raises(BudgetExceededError):
        hallittlewood.check_budget([(1, 1, 1)], params4)
    hallittlewood.check_budget([(0, 0, 0)], params4)


def test_keys_beyond_int64_are_refused(monkeypatch):
    # a box of 2^64 terms fits a raised budget but not the int64 keys
    binomials = [(F(1), (2**32 - 1, 0)), (F(1), (0, 2**32 - 1))]
    assert math.prod(_exponent_box(2, binomials)[1]) == 2**64
    monkeypatch.setenv("OCTABOSON_BUDGET", str(2**70))
    with pytest.raises(BudgetExceededError, match="int64"):
        _binomial_product(2, binomials)
