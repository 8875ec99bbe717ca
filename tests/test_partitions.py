import itertools

import pytest

from octaboson.partitions import (
    SignedPermutation,
    add_part,
    dominance_leq,
    enumerate_partitions,
    group_order,
    hyperoctahedral_group,
    is_partition,
    lower_indices,
    lower_set,
    multiplicity,
    orbit,
    positive_roots,
    raise_indices,
    remove_part,
    unit_step,
    unit_steps,
    weyl_vector,
)


def test_multiplicity():
    assert multiplicity((2, 2, 0), 2) == 2
    assert multiplicity((2, 2, 0), 0) == 1
    assert multiplicity((), 0) == 0


def test_is_partition():
    assert is_partition((2, 1, 1, 0)) and is_partition(())
    assert not is_partition((1, 2)) and not is_partition((1, -1))
    assert not is_partition((True, False)) and not is_partition((2, True))


def test_dominance_examples():
    assert dominance_leq((1, 1), (2, 0))
    assert not dominance_leq((1, 1, 1), (2, 0, 0))
    assert not dominance_leq((2, 0, 0), (1, 1, 1))
    # comparability does not require equal degree
    assert dominance_leq((1, 0), (2, 0))


def test_dominance_length_mismatch():
    with pytest.raises(ValueError):
        dominance_leq((1,), (1, 0))


@pytest.mark.parametrize("n,max_part", [(n, l) for n in range(1, 5) for l in range(1, 5)])
def test_dominance_is_partial_order(n, max_part):
    lams = enumerate_partitions(n, max_part)
    for a in lams:
        assert dominance_leq(a, a)
    for a, b in itertools.combinations(lams, 2):
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
    for a, b, c in itertools.product(lams, repeat=3):
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)


def test_lower_set_examples():
    assert lower_set((0, 0)) == [(0, 0)]
    assert lower_set((1, 0)) == [(0, 0), (1, 0)]
    assert set(lower_set((2, 0))) == {(0, 0), (1, 0), (1, 1), (2, 0)}


def test_lower_set_downward_closed():
    for lam in enumerate_partitions(3, 3):
        down = lower_set(lam)
        for mu in down:
            for nu in lower_set(mu):
                assert nu in down


def test_orbit_examples():
    assert set(orbit((1, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert orbit((0, 0)) == [(0, 0)]
    assert set(orbit((1, 1))) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_orbit_size_divides_group_order():
    for lam in enumerate_partitions(3, 3):
        size = len(orbit(lam))
        assert group_order(3) % size == 0
        distinct_positive = len(set(lam)) == len(lam) and all(p > 0 for p in lam)
        assert (size == group_order(3)) == distinct_positive


def test_add_remove_part():
    assert add_part((1, 0), 2) == (2, 1, 0)
    assert add_part((), 0) == (0,)
    assert add_part((2, 2), 2) == (2, 2, 2)
    assert remove_part((2, 1, 0), 1) == (2, 0)
    assert remove_part((0,), 0) == ()
    with pytest.raises(ValueError):
        remove_part((2, 2), 1)


def test_add_remove_roundtrip():
    for lam in enumerate_partitions(3, 3):
        for l in range(5):
            assert remove_part(add_part(lam, l), l) == lam


def test_enumerate():
    assert enumerate_partitions(2, 1) == [(0, 0), (1, 0), (1, 1)]
    assert len(enumerate_partitions(2, 2)) == 6
    assert enumerate_partitions(0, 5) == [()]


def test_enumerate_graded_lex_and_count():
    import math

    for n in range(4):
        for l in range(4):
            lams = enumerate_partitions(n, l)
            assert len(lams) == math.comb(n + l, n)
            keys = [(sum(p), p) for p in lams]
            assert keys == sorted(keys)


def test_unit_steps():
    assert raise_indices((2, 1, 1)) == [0, 1]
    assert lower_indices((2, 1, 1)) == [0, 2]
    assert unit_step((2, 1, 1), 1, 1) == (2, 2, 1)
    with pytest.raises(ValueError):
        unit_step((2, 1, 1), 2, 1)  # would break monotonicity


def test_unit_steps_list_the_valid_steps():
    assert unit_steps((2, 1, 1)) == [
        (0, 1, (3, 1, 1)), (1, 1, (2, 2, 1)), (0, -1, (1, 1, 1)), (2, -1, (2, 1, 0)),
    ]
    for n in range(4):
        for lam in enumerate_partitions(n, 3):
            expected = [(j, 1, unit_step(lam, j, 1)) for j in raise_indices(lam)]
            expected += [(j, -1, unit_step(lam, j, -1)) for j in lower_indices(lam)]
            assert unit_steps(lam) == expected
            assert all(is_partition(target) for _, _, target in unit_steps(lam))


def test_positive_roots_and_weyl_vector():
    assert positive_roots(0) == () and positive_roots(1) == ((2,),)
    assert list(positive_roots(3)) == [
        (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1), (0, 1, -1), (0, 1, 1),
        (2, 0, 0), (0, 2, 0), (0, 0, 2),
    ]
    for n in range(6):
        roots = positive_roots(n)
        assert len(roots) == len(set(roots)) == n * n
        # rho is half the sum of the positive roots
        assert tuple(2 * r for r in weyl_vector(n)) == tuple(map(sum, zip(*roots)))


def test_signed_permutation_action():
    w = SignedPermutation((1, 0), (1, -1))
    assert w.apply((3, 5)) == (-5, 3)
    assert len(list(hyperoctahedral_group(2))) == group_order(2) == 8
    with pytest.raises(ValueError):
        SignedPermutation((0, 0), (1, 1))
