from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaboson.laurent import (
    LaurentPoly,
    NotDivisibleError,
    apply_w,
    div_binomial_exact,
)
from octaboson.partitions import (
    SignedPermutation,
    hyperoctahedral_group,
)


def x(j, n=1, power=1):
    return LaurentPoly.variable(n, j, power)


def test_product_example():
    p = (x(0) - x(0, power=-1)) * (x(0) + x(0, power=-1))
    assert p == LaurentPoly(1, {(2,): 1, (-2,): -1})


def test_additive_identity():
    p = LaurentPoly(2, {(1, -1): Fraction(3, 7)})
    assert p + LaurentPoly.zero(2) == p


def test_telescoping():
    p = (LaurentPoly.one(1) - x(0)) * (LaurentPoly.one(1) + x(0) + x(0) ** 2)
    assert p == LaurentPoly(1, {(0,): 1, (3,): -1})


def test_nvars_mismatch():
    with pytest.raises(ValueError):
        LaurentPoly.one(1) + LaurentPoly.one(2)
    with pytest.raises(ValueError):
        LaurentPoly.one(1) * LaurentPoly.one(2)


def test_powers():
    p = x(0) + LaurentPoly.one(1)
    assert p**0 == LaurentPoly.one(1)
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p**-1


def test_div_binomial_inverts_multiplication():
    quotient = LaurentPoly(2, {(1, -2): Fraction(2, 3), (0, 0): 1, (-1, 1): Fraction(-1, 5)})
    alpha = (1, 1)
    p = (LaurentPoly.one(2) - x(0, 2) * x(1, 2)) * quotient
    assert div_binomial_exact(p, alpha) == quotient
    with pytest.raises(NotDivisibleError) as info:
        div_binomial_exact(LaurentPoly.one(2) + x(0, 2), alpha)
    assert set(info.value.evidence) == {"term", "coefficient"}


def test_apply_w_examples():
    p = x(0, 2) + x(1, 2)
    identity = SignedPermutation.identity(2)
    assert apply_w(identity, p) == p
    flip0 = SignedPermutation((0, 1), (-1, 1))
    assert apply_w(flip0, p) == LaurentPoly(2, {(-1, 0): 1, (0, 1): 1})
    swap = SignedPermutation((1, 0), (1, 1))
    assert apply_w(swap, LaurentPoly(2, {(1, -1): 1})) == LaurentPoly(2, {(-1, 1): 1})
    with pytest.raises(ValueError):
        apply_w(identity, LaurentPoly.one(1))


def test_apply_w_is_ring_homomorphism():
    p = LaurentPoly(2, {(1, 0): 1, (0, -2): Fraction(1, 3)})
    q = LaurentPoly(2, {(1, 1): -2, (0, 0): 1})
    for w in hyperoctahedral_group(2):
        assert apply_w(w, p * q) == apply_w(w, p) * apply_w(w, q)


def test_evaluate():
    p = x(0) + x(0, power=-1)
    assert LaurentPoly.one(3).evaluate_exact([Fraction(1, 2), 2, -1]) == 1
    assert p.evaluate_exact([Fraction(2)]) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        p.evaluate_exact([Fraction(0)])


small_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys_strategy(nvars: int, max_terms: int):
    exps = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.dictionaries(exps, small_coeffs, max_size=max_terms).map(
        lambda d: LaurentPoly(nvars, d)
    )


@st.composite
def poly_triples(draw):
    nvars = draw(st.integers(1, 3))
    strat = polys_strategy(nvars, 3)
    return draw(strat), draw(strat), draw(strat)


@given(poly_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@st.composite
def poly_root_pairs(draw):
    """A polynomial and a root e_j +- e_k (j != k) or 2 e_j."""
    nvars = draw(st.integers(1, 3))
    p = draw(polys_strategy(nvars, 4))
    j = draw(st.integers(0, nvars - 1))
    alpha = [0] * nvars
    if nvars > 1 and draw(st.booleans()):
        k = draw(st.integers(0, nvars - 1).filter(lambda k: k != j))
        alpha[j], alpha[k] = 1, draw(st.sampled_from((-1, 1)))
    else:
        alpha[j] = 2
    return p, tuple(alpha)


@settings(max_examples=80)
@given(poly_root_pairs())
def test_div_exact_roundtrip(pair):
    p, alpha = pair
    binomial = LaurentPoly(p.nvars, {(0,) * p.nvars: 1, alpha: -1})
    assert div_binomial_exact(p * binomial, alpha) == p
