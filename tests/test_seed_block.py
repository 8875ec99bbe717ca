"""The seed block's packed product against a tuple-keyed oracle, its
decoded exponent matrix, and the exponent box that bounds it before any
work."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaboson import cli, hallittlewood
from octaboson.budget import BudgetExceededError
from octaboson.hallittlewood import _binomial_product, _exponent_box, _seed_binomials, _seed_block
from octaboson.qkernels import PROFILES, default_params
from test_relation_routes import large_height_params

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
# the l1 bound prod (|a| + b) sets the word count: 2^63 - 1 still packs in
# one word, and the products 2^63 and 2^64 (2^64 is the bound itself) in two
@example((1, [(F(2**63 - 2), (1,))]))
@example((1, [(F(-(2**63 - 2)), (1,))]))
@example((1, [(F(-1), (0,))] * 63))
@example((1, [(F(-1), (0,))] * 64))
# coefficients +-2^63: 2^63 (1 - x)
@example((1, [(F(-1), (0,))] * 63 + [(F(1), (1,))]))
# height-2^61 binomials: digits of several words, signs on both sides
@example((2, [(F(2**61 - 1, 2**61), (1, 0)), (F(-(2**61 - 3), 2**61), (0, 1)),
              (F(2**60 + 1, 2**61), (1, -1)), (F(-(2**59 + 7), 2**61), (-1, 1)),
              (F(3, 2**61), (1, 1))]))
# the first factor moves every key down
@example((2, [(F(3), (0, -2)), (F(-1, 2), (1, 1)), (F(2), (-1, 0))]))
@example((0, []))
@example((0, [(F(2), ()), (F(-3, 4), ())]))
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
                # one box for every block; the classical formula's block,
                # without zero parts, has the widest words, and check_budget
                # checks it at profile two
                classical = _seed_binomials(n, 0, params)
                assert (lo, size) == _exponent_box(n, classical), (n, zero_count)
                assert (
                    hallittlewood._check_box(n, _seed_binomials(n, zero_count, params))[2]
                    <= hallittlewood._check_box(n, classical)[2]
                ), (n, zero_count)


@pytest.mark.parametrize("profile", PROFILES)
def test_more_zero_parts_never_grow_the_box(profile):
    # so the block of the fewest zero parts is the one the budget checks
    for params in (default_params(profile), large_height_params(profile)):
        for n in range(5):
            boxes = []
            for zero_count in range(n + 1):
                _, size, width = hallittlewood._check_box(n, _seed_binomials(n, zero_count, params))
                boxes.append((math.prod(size), width // 64))
            for (terms, words), (more_terms, more_words) in zip(boxes, boxes[1:]):
                # so neither does terms x words, the size the budget checks
                assert more_terms <= terms and more_words <= words, (n, params, boxes)


def test_budget_checked_before_the_first_factor(monkeypatch, params4):
    binomials = _seed_binomials(3, 0, params4)
    box = math.prod(_exponent_box(3, binomials)[1])
    monkeypatch.setenv("OCTABOSON_BUDGET", str(box))
    _binomial_product(3, binomials)
    monkeypatch.setenv("OCTABOSON_BUDGET", str(box - 1))
    with pytest.raises(BudgetExceededError) as info:
        _binomial_product(3, binomials)
    assert info.value.evidence == {"n": 3, "terms": box, "words": 1, "budget": box - 1}
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


def test_int64_bound_is_numpy_int64_max():
    # the bound is written as 2^63 - 1 so that the module loads without numpy
    assert hallittlewood._INT64_MAX == np.iinfo(np.int64).max


@pytest.mark.parametrize(
    "binomials, words",
    [
        ([(F(2**63 - 2), (1,))], 1),  # bound 2^63 - 1
        ([(F(-1), (0,))] * 63, 2),  # bound 2^63
        ([(F(-1), (0,))] * 64, 2),  # bound 2^64
        ([(F(-1), (0,))] * 126, 2),  # bound 2^126
        ([(F(-1), (0,))] * 127, 3),  # bound 2^127
        ([], 1),
    ],
)
def test_width_holds_the_l1_bound_with_a_sign_bit(binomials, words):
    n = len(binomials[0][1]) if binomials else 1
    assert hallittlewood._check_box(n, binomials)[2] == 64 * words


def test_words_of_a_large_height_point_are_budgeted(capsys, monkeypatch, fresh_construction):
    # at a 2^61-height point the n = 3 block holds 729 terms of several
    # words; a budget between terms and terms x words refuses it before
    # any construction, with the words in the evidence
    params = large_height_params("four")
    binomials = _seed_binomials(3, 0, params)
    bound = math.prod(abs(c.numerator) + c.denominator for c, _ in binomials)
    words = bound.bit_length() // 64 + 1
    assert words > 1
    calls = []
    monkeypatch.setattr(hallittlewood, "_binomial_product", lambda *a: calls.append(a))
    monkeypatch.setattr(hallittlewood, "hl_polynomial", lambda *a: calls.append(a))
    monkeypatch.setenv("OCTABOSON_BUDGET", str(729 * words - 1))
    flags = [f"--q={params.q}", *(f"--t{r}={t}" for r, t in enumerate(params.ts, 1))]
    code = cli.main(["poly", "--n", "3", "--lambda", "1,1,1", *flags])
    assert code == 3 and calls == []
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "budget",
        "message": f"seed block of n = 3 may hold 729 terms of {words} words, "
        f"over the budget {729 * words - 1} (set OCTABOSON_BUDGET to raise it)",
        "n": 3,
        "terms": 729,
        "words": words,
        "budget": 729 * words - 1,
    }
    # at profile two the block without zero parts, read by the classical
    # formula, is checked for a partition with zero parts too
    params = large_height_params("two")
    # a box of 7^3 = 343 terms
    words = [hallittlewood._check_box(3, _seed_binomials(3, z, params))[2] // 64 for z in (0, 2)]
    assert words[0] > words[1]
    monkeypatch.setenv("OCTABOSON_BUDGET", str(343 * words[0] - 1))
    flags = [f"--q={params.q}", f"--t1={params.ts[0]}", f"--t2={params.ts[1]}", "--profile", "two"]
    code = cli.main(["poly", "--n", "3", "--lambda", "1,0,0", "--compare-macdonald", *flags])
    assert code == 3 and calls == []
    assert json.loads(capsys.readouterr().out)["error"]["words"] == words[0]
    # the default point packs each block in one word, so its refusal is unchanged
    monkeypatch.setenv("OCTABOSON_BUDGET", "728")
    assert cli.main(["poly", "--n", "3", "--lambda", "1,1,1"]) == 3 and calls == []
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "seed block of n = 3 may hold 729 terms, over the budget 728 "
        "(set OCTABOSON_BUDGET to raise it)"
    )
