"""The vectorized straightening against the row-at-a-time oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaboson.hallittlewood import _straighten
from octaboson.partitions import weyl_vector

INT64_MAX = int(np.iinfo(np.int64).max)


def straighten_oracle(terms, shift):
    """c_mu with A(x^{-shift} g) = sum_mu c_mu A(x^{mu + rho}), g = sum of
    the (exponent tuple, coefficient) terms, one term at a time.

    Each exponent is sorted by absolute value into the dominant chamber;
    the sign is (-1)^(negative entries) times the sign of the sort.  An
    exponent with a zero entry or a repeated absolute value is fixed by a
    reflection, so its alternant vanishes.
    """
    n = len(shift)
    rho = weyl_vector(n)
    out = {}
    for exp, coeff in terms:
        e = [x - s for x, s in zip(exp, shift)]
        if 0 in e:
            continue
        a = [abs(x) for x in e]
        dom = sorted(a, reverse=True)
        if any(dom[i] == dom[i + 1] for i in range(n - 1)):
            continue
        negative = sum(1 for x in e if x < 0)
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if a[i] < a[j])
        if (negative + inversions) % 2:
            coeff = -coeff
        mu = tuple(d - r for d, r in zip(dom, rho))
        out[mu] = out.get(mu, 0) + coeff
    return out


def _matrix(n, terms):
    return np.array([exp for exp, _ in terms], dtype=np.int64).reshape(len(terms), n)


@st.composite
def seeds(draw):
    """(terms, shift): rows may repeat, coefficients reach 2^100 and may be 0."""
    n = draw(st.integers(0, 5))
    vector = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))
    terms = draw(st.lists(st.tuples(vector, coefficient), max_size=40))
    return terms, draw(vector)


@settings(max_examples=300, deadline=None)
@given(seeds())
@example(([], ()))
@example(([], (3, 1)))
@example(([((), 7), ((), -2**100)], ()))
# x^1 and x^-1 straighten to one mu with opposite signs: a 0 entry survives
@example(([((1,), 2**100), ((-1,), 2**100)], (0,)))
# zero entries and repeated absolute values drop the row
@example(([((2, 1), 5), ((1, -1), 3), ((-2, 2), 1), ((3, 0), 0)], (0, 0)))
@example(([((4, -4, 3, -1, 2), 2**100 + 1), ((-4, 3, 4, 2, -1), -(2**99))], (0, 0, 0, 0, 0)))
def test_vectorized_straightening_matches_oracle(case):
    terms, shift = case
    n = len(shift)
    coefficients = tuple(c for _, c in terms)
    got = _straighten(_matrix(n, terms), coefficients, [shift])[0]
    expected = straighten_oracle(terms, shift)
    assert got == expected
    assert all(type(c) is int for c in got.values())


def test_shift_beyond_int64_is_refused():
    exponents = np.array([[2, -1]], dtype=np.int64)
    _straighten(exponents, (1,), [(INT64_MAX - 2, 0)])
    with pytest.raises(ValueError, match="int64"):
        _straighten(exponents, (1,), [(INT64_MAX - 1, 0)])
    with pytest.raises(ValueError, match="int64"):
        _straighten(exponents, (1,), [(0, 0), (0, -(2**80))])
