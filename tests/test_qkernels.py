import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest

from octaboson.partitions import (
    enumerate_partitions,
    lower_indices,
    multiplicity,
    raise_indices,
    unit_step,
    unit_steps,
)
from octaboson.qkernels import (
    _PAIRS_BEYOND_T1,
    GenericityError,
    ParamSet,
    boundary_potential,
    default_params,
    exact_ratio,
    hop_coeff,
    monic_normalizer,
    pieri_coeff,
    principal_normalizer,
    qinteger,
    qpochhammer,
    quadratic_norm,
    tau_vector,
    norm_three,
    norm_two,
)

F = Fraction


def pair_product(ts, pairs):
    out = F(1)
    for r, s in pairs:
        out *= 1 - ts[r] * ts[s]
    return out


def test_qpochhammer():
    q = F(1, 2)
    assert qpochhammer(F(7, 9), 0, q) == 1
    x = F(2, 5)
    assert qpochhammer(x, 2, q) == (1 - x) * (1 - x * q)
    assert qpochhammer(F(1, 3), 2, q) == F(5, 9)


def test_qinteger():
    q = F(1, 2)
    assert qinteger(0, q) == 0
    assert qinteger(2, q) == 1 + q
    assert qinteger(3, q) == F(7, 4)


def test_paramset_validation():
    with pytest.raises(ValueError):
        ParamSet(q=F(3, 2), ts=(F(1, 3), F(-1, 4), F(1, 5), F(-1, 6)))
    with pytest.raises(ValueError):
        ParamSet(q=F(1, 2), ts=(F(1, 3), F(0), F(1, 5), F(-1, 6)))
    with pytest.raises(ValueError):
        ParamSet(q=F(1, 2), ts=(F(1, 3), F(-1, 4), F(1, 5), F(-1, 6)), profile="two")
    with pytest.raises(TypeError):
        ParamSet(q=0.5, ts=(F(1, 3), F(-1, 4), F(1, 5), F(-1, 6)))
    # genericity: t1 t2 = q
    with pytest.raises(GenericityError):
        ParamSet(q=F(1, 6), ts=(F(1, 2), F(1, 3), F(1, 5), F(-1, 7)))


def test_guard_beyond_construction_horizon():
    # t1 t2 = q^22 lies past the m <= 20 that construction checks, so only
    # ensure_generic catches it, once its horizon 2n + maxPart + 3 reaches 22
    params = ParamSet(q=F(1, 2), ts=(F(1, 2**11), F(1, 2**11), F(1, 3), F(1, 5)))
    params.ensure_generic(4, 10)
    with pytest.raises(GenericityError):
        params.ensure_generic(4, 11)
    with pytest.raises(GenericityError):
        params.ensure_generic(4, 14)


def test_guard_names_m_beyond_the_str_digit_limit():
    # t_1 t_2 = q^2 = 10^-4400 has more digits than int -> str converts at
    # the default limit of 4300; the message names m instead of the value
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        q = F(1, 10**2200)
        with pytest.raises(GenericityError) as info:
            ParamSet(q=q, ts=(q, q, F(1, 3), F(1, 5)))
        assert str(info.value) == "t_r t_s = q^m degeneracy at m = 2"
        # within the limit the message keeps the value
        q = F(1, 10**2000)
        with pytest.raises(GenericityError) as info:
            ParamSet(q=q, ts=(q, q, F(1, 3), F(1, 5)))
        assert str(info.value) == f"t_r t_s = q^m degeneracy at q^m = 1/{10**4000}"
    finally:
        sys.set_int_max_str_digits(limit)


def fraction_degeneracy(q, ts, horizon, start=1):
    """The genericity guard as a loop over Fraction powers of q: (m, message)
    of the first degeneracy, t before the pairs at each m, or None."""
    t = ts[0] * ts[1] * ts[2] * ts[3]
    pairs = [ts[r] * ts[s] for r, s in itertools.combinations(range(4), 2) if ts[r] * ts[s]]
    qpow = q ** (start - 1)
    for m in range(start, horizon + 1):
        qpow *= q
        if t == qpow:
            return m, f"t = q^m degeneracy at q^m = {qpow}"
        for prod in pairs:
            if prod == qpow:
                return m, f"t_r t_s = q^m degeneracy at q^m = {qpow}"
    return None


def fraction_guard(q, ts, horizon, start=1):
    """The message of ``fraction_degeneracy``, or None."""
    found = fraction_degeneracy(q, ts, horizon, start)
    return found and found[1]


#: (q, ts, profile): t = q^m and t_r t_s = q^m at m = 1, 20 and 21, their
#: negatives, and t = 0 at profiles three and two
GUARD_CASES = [
    (F(1, 2), (F(9, 10), F(9, 10), F(9, 10), F(500, 729)), "four"),  # t = q
    (F(1, 2), (F(3, 5), F(5, 7), F(7, 9), F(3, 2**20)), "four"),  # t = q^20
    (F(1, 2), (F(3, 5), F(5, 7), F(7, 9), F(3, 2**21)), "four"),  # t = q^21
    (F(1, 2), (F(-3, 5), F(5, 7), F(7, 9), F(3, 2**20)), "four"),  # t = -q^20
    (F(1, 2), (F(1, 2), F(1, 2), F(1, 2), F(1, 2**17)), "four"),  # t_1 t_2 = q^2, t = q^20
    (F(1, 2), (F(3, 4), F(2, 3), F(1, 5), F(-1, 7)), "four"),  # t_1 t_2 = q
    (F(1, 2), (F(1, 2**10), F(1, 2**10), F(1, 3), F(1, 5)), "four"),  # t_1 t_2 = q^20
    (F(1, 2), (F(1, 2**10), F(1, 2**11), F(1, 3), F(1, 5)), "four"),  # t_1 t_2 = q^21
    (F(1, 2), (F(-1, 2**10), F(1, 2**10), F(1, 3), F(1, 5)), "four"),  # t_1 t_2 = -q^20
    (F(2, 3), (F(2, 3), F(2, 3), F(1, 5), F(1, 7)), "four"),  # t_1 t_2 = q^2
    (F(1, 2), (F(1, 2**10), F(1, 2**10), F(1, 3), F(0)), "three"),  # t = 0, pair q^20
    (F(1, 2), (F(1, 2**10), F(1, 2**11), F(1, 3), F(0)), "three"),  # t = 0, pair q^21
    (F(1, 2), (F(3, 4), F(2, 3), F(0), F(0)), "two"),  # t = 0, pair q
    (F(1, 2), (F(-3, 4), F(2, 3), F(0), F(0)), "two"),  # t = 0, pair -q
    (F(1, 2), (F(1, 3), F(-1, 4), F(0), F(0)), "two"),
    # far past construction: t = q^12000, t_1 t_2 = q^5000 and, at q = 2/3,
    # t_1 t_2 = q^1000; t_1 t_2 = t_3 t_4 = q^21 before t = q^42
    (F(1, 2), (F(3, 5), F(5, 7), F(7, 9), F(3, 2**12_000)), "four"),
    (F(1, 2), (F(1, 2**2500), F(1, 2**2500), F(1, 3), F(1, 5)), "four"),
    (F(2, 3), (F(2**500, 3**500), F(2**500, 3**500), F(1, 5), F(1, 7)), "four"),
    (F(1, 2), (F(1, 2**10), F(1, 2**11), F(3, 2**10), F(1, 3 * 2**11)), "four"),
    # t_1 t_2 = q^22 + 3^-22 has the denominator of q^22 but not its
    # numerator; t_3 t_4 = q^30
    (F(2, 3), (F(2**22 + 1, 3**21), F(1, 3), F(2**15, 3**15), F(2**15, 3**15)), "four"),
]


@pytest.mark.parametrize("q, ts, profile", GUARD_CASES)
def test_integer_guard_matches_the_fraction_loop(q, ts, profile):
    def outcome(*sector):
        try:
            params = ParamSet(q=q, ts=ts, profile=profile)
            if sector:
                params.ensure_generic(*sector)
        except GenericityError as exc:
            return str(exc)
        return None

    expected = fraction_guard(q, ts, 20)
    assert outcome() == expected
    if expected is None:
        # the edge of ensure_generic: 2n + maxPart + 3 = 20 checks nothing
        # beyond construction, 21 checks m = 21
        for n, max_part in ((0, 0), (4, 9), (4, 10), (9, 0), (4, 14)):
            horizon = 2 * n + max_part + 3
            assert outcome(n, max_part) == fraction_guard(q, ts, horizon, start=21)
        # horizons on either side of the far degeneracies, up to 10^5, read
        # from one loop: the guard's cost does not grow with the horizon
        far = fraction_degeneracy(q, ts, 100_000, start=21)
        for horizon in (999, 1000, 4999, 5000, 11_999, 12_000, 99_999, 100_000):
            expected = far[1] if far and far[0] <= horizon else None
            assert outcome(1, horizon - 5) == expected


def test_guard_cases_reach_both_degeneracies_within_and_past_construction():
    within = [fraction_guard(q, ts, 20) for q, ts, _ in GUARD_CASES]
    past = [fraction_guard(q, ts, 21, start=21) for q, ts, _ in GUARD_CASES]
    for kind in ("t = q^m", "t_r t_s = q^m"):
        assert any(m and m.startswith(kind) for m in within)
        assert any(m and m.startswith(kind) for m in past)


def test_q_powers_is_one_growing_table_per_point():
    point = default_params("two")
    num, den = point.q_powers(3)
    assert [F(a, b) for a, b in zip(num, den)] == [point.q**k for k in range(len(num))]
    again, _ = point.q_powers(7)
    assert again is num and len(num) >= 7
    assert [F(a, b) for a, b in zip(num, den)] == [point.q**k for k in range(len(num))]


def test_exact_ratio_sizes_the_powers_from_its_factors():
    # a new point's table holds q^0 alone; the factor at k = -3 reads q^3
    point = ParamSet(q=F(1, 2), ts=(F(1, 3), F(-1, 4), F(1, 5), F(-1, 6)))
    value = exact_ratio(((F(1, 3), -3),), ((1, 2),), point, "unused")
    assert value == (1 - F(1, 3) * 8) / (1 - F(1, 4)) and type(value) is Fraction
    assert exact_ratio((), (), point, "unused") == 1
    # 1 - 4 q^2 = 0; the message is formatted with the details
    with pytest.raises(GenericityError, match=r"^denominator vanishes at \(1, 0\)$"):
        exact_ratio(((F(1, 3), 1),), ((4, 2),), point, "denominator vanishes at {}", (1, 0))


def test_equal_points_hash_equal():
    point = default_params("three")
    again = ParamSet(q=F(2, 4), ts=(F(1, 3), F(-2, 8), F(1, 5), 0), profile="three")
    assert again == point and again is not point
    assert hash(again) == hash(point)
    assert {point: "cached"}[again] == "cached"


def test_tau_vector(params4):
    q, t1 = params4.q, params4.ts[0]
    tau = tau_vector(3, params4)
    assert tau == (q**2 * t1, q * t1, t1)
    for j in range(2):
        assert tau[j] == q * tau[j + 1]


def test_norm_examples(params4, params2):
    ts = params4.ts
    t = params4.t
    pairs = [(r, s) for r in range(4) for s in range(r + 1, 4)]
    assert quadratic_norm((0,), params4) == (1 - t) / pair_product(ts, pairs)
    for k in (2, 3, 5):
        assert quadratic_norm((k,), params4) == 1
    # reduced formula: (1-q)^n / ((t1 t2)_{m0} prod_l (q)_{m_l})
    q = params2.q
    for lam in enumerate_partitions(2, 3):
        m0 = multiplicity(lam, 0)
        expected = (1 - q) ** 2 / (
            qpochhammer(params2.ts[0] * params2.ts[1], m0, q)
            * _mult_product(lam, q)
        )
        assert quadratic_norm(lam, params2) == expected


def _mult_product(lam, q):
    out = F(1)
    for v in set(lam):
        out *= qpochhammer(q, multiplicity(lam, v), q)
    return out


def test_monic_normalizer_examples(params4):
    t = params4.t
    assert monic_normalizer((1,), params4) == 1 - t
    assert monic_normalizer((0,), params4) == 2
    for k in (2, 3, 4):
        assert monic_normalizer((k,), params4) == 1


def wave_normalizer(lam, params):
    """h with wave function = (principally normalized polynomial) / h.

    Closed form:  tau^lam (t q^{m0-1})_{m0} prod_{1<r<s} (t_r t_s q^{m0})_{n-m0}
    divided by (t q^{n-1})_n, times the norm of the zero partition.  Equals
    principal_normalizer * quadratic_norm identically.
    """
    n = len(lam)
    q, ts, t = params.q, params.ts, params.t
    m0 = multiplicity(lam, 0)
    value = F(1)
    for tau_j, part in zip(tau_vector(n, params), lam):
        value *= tau_j**part
    value *= qpochhammer(t * q ** (m0 - 1), m0, q)
    for r, s in _PAIRS_BEYOND_T1:
        value *= qpochhammer(ts[r] * ts[s] * q**m0, n - m0, q)
    return value / qpochhammer(t * q ** (n - 1), n, q) * quadratic_norm((0,) * n, params)


def potential_from_step_coeffs(lam, params):
    """The boundary potential from the recurrence data: sum_j (tau_j + 1/tau_j)
    minus the recurrence coefficient of every valid unit step."""
    value = sum((tj + 1 / tj for tj in tau_vector(len(lam), params)), F(0))
    for j, step, _ in unit_steps(lam):
        value -= pieri_coeff(lam, j, step, params)
    return value


def test_principal_normalizer_examples(params4):
    ts, t = params4.ts, params4.t
    expected = ts[0] * (1 - t)
    for r in range(1, 4):
        expected /= 1 - ts[0] * ts[r]
    assert principal_normalizer((1,), params4) == expected
    assert principal_normalizer((0,), params4) == 1


def test_wave_normalizer_is_product(params4):
    for lam in enumerate_partitions(2, 2):
        assert wave_normalizer(lam, params4) == principal_normalizer(
            lam, params4
        ) * quadratic_norm(lam, params4)
    # n=1 zero partition: bare norm
    assert wave_normalizer((0,), params4) == quadratic_norm((0,), params4)
    # n=2 double part: two independently coded routes agree
    assert wave_normalizer((1, 1), params4) == principal_normalizer(
        (1, 1), params4
    ) * quadratic_norm((1, 1), params4)


def test_pieri_coeff_generic_parts(params4):
    q = params4.q
    lam = (3, 3, 0)
    tau = tau_vector(3, params4)
    assert pieri_coeff(lam, 0, +1, params4) == qinteger(2, q) / tau[0]
    assert pieri_coeff(lam, 1, -1, params4) == tau[1] * qinteger(2, q)


def test_pieri_coeff_boundary_part(params4):
    # raising a zero part carries the occupation-dependent correction
    lam = (2, 0, 0)
    q, ts, t = params4.q, params4.ts, params4.t
    m0, m1 = 2, 0
    tau = tau_vector(3, params4)
    expected = qinteger(2, q) / tau[1]
    expected *= 1 - t * q ** (2 * m0 + m1 - 1)
    num = F(1)
    for r in range(1, 4):
        num *= 1 - ts[0] * ts[r] * q ** (m0 - 1)
    expected *= num / ((1 - t * q ** (2 * m0 - 2)) * (1 - t * q ** (2 * m0 - 1)))
    assert pieri_coeff(lam, 1, +1, params4) == expected


def test_pieri_coeff_invalid_step(params4):
    with pytest.raises(ValueError):
        pieri_coeff((2, 2), 1, +1, params4)
    with pytest.raises(ValueError):
        pieri_coeff((2, 2), 0, -1, params4)


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
)


def test_tau_powers_are_integer_pairs(monkeypatch, param_triple):
    # tau_j = q^{n-1-j} t_1 is read from the point's integer powers of q, so
    # each principal normalizer and recurrence coefficient builds one
    # Fraction and does no Fraction arithmetic; the values match the
    # tau_vector formulas, also at a point with t_1 < 0
    lams = enumerate_partitions(3, 3)
    steps = [(lam, j, step) for lam in lams for j, step, _ in unit_steps(lam)]
    for params in param_triple:
        for lam in lams:
            assert wave_normalizer(lam, params) == principal_normalizer(
                lam, params
            ) * quadratic_norm(lam, params)
        values = [principal_normalizer(lam, params) for lam in lams]
        values += [pieri_coeff(*step, params) for step in steps]
        calls = []
        for name in FRACTION_ARITHMETIC:
            def counting(self, *args, original=getattr(Fraction, name)):
                calls.append(1)
                return original(self, *args)

            monkeypatch.setattr(Fraction, name, counting)
        again = [principal_normalizer(lam, params) for lam in lams]
        again += [pieri_coeff(*step, params) for step in steps]
        monkeypatch.undo()
        assert again == values and calls == []
    assert param_triple[2].ts[0] < 0


def test_hop_coeff_examples(params4):
    q = params4.q
    for lam in enumerate_partitions(2, 3):
        for j in lower_indices(lam):
            assert hop_coeff(lam, j, -1, params4) == qinteger(
                multiplicity(lam, lam[j]), q
            )
    assert hop_coeff((3, 2), 0, +1, params4) == qinteger(1, q)


def test_hop_equals_pieri_times_normalizer_ratio(param_triple):
    # hopping rates are the recurrence coefficients conjugated by the
    # wave normalizer
    for params in param_triple:
        for lam in enumerate_partitions(2, 3):
            h = wave_normalizer(lam, params)
            for j, step, target in unit_steps(lam):
                assert hop_coeff(lam, j, step, params) == pieri_coeff(
                    lam, j, step, params
                ) * wave_normalizer(target, params) / h


def test_boundary_potential_examples(params4, params2):
    assert boundary_potential(0, 0, params4) == 0
    for m0 in range(4):
        assert boundary_potential(m0, 1, params2) == (
            params2.ts[0] + params2.ts[1]
        ) * qinteger(m0, params2.q)


def test_boundary_potential_consistency(param_triple, params3, params2):
    for params in (*param_triple, params3, params2):
        for lam in enumerate_partitions(2, 3):
            assert boundary_potential(
                multiplicity(lam, 0), multiplicity(lam, 1), params
            ) == potential_from_step_coeffs(lam, params)


def test_elementary_identity(params4):
    # sum (tau + 1/tau) - sum of bare up terms - sum of bare down terms
    # collapses to t1 [m0]
    q = params4.q
    t1 = params4.ts[0]
    for lam in enumerate_partitions(3, 3):
        tau = tau_vector(3, params4)
        value = sum((tj + 1 / tj for tj in tau), F(0))
        for j, step, _ in unit_steps(lam):
            value -= tau[j] ** -step * qinteger(multiplicity(lam, lam[j]), q)
        assert value == t1 * qinteger(multiplicity(lam, 0), q)


def test_self_adjointness_balance(params4):
    for lam in enumerate_partitions(3, 3):
        n_lam = quadratic_norm(lam, params4)
        for j in raise_indices(lam):
            up = unit_step(lam, j, 1)
            assert hop_coeff(lam, j, +1, params4) * n_lam == hop_coeff(
                up, j, -1, params4
            ) * quadratic_norm(up, params4)


def test_degeneration_coherence(params4):
    q = params4.q
    t1, t2, t3, _ = params4.ts
    three = ParamSet(q=q, ts=(t1, t2, t3, F(0)), profile="three")
    two = ParamSet(q=q, ts=(t1, t2, F(0), F(0)), profile="two")
    for lam in enumerate_partitions(3, 3):
        multiplicities = sorted(Counter(lam).values())
        assert quadratic_norm(lam, three) == norm_three(lam.count(0), multiplicities, q, three.ts)
        assert quadratic_norm(lam, two) == norm_two(lam.count(0), multiplicities, q, two.ts)


def test_json_round_trip(params4):
    data = params4.to_json_dict()
    assert data == {
        "q": "1/2",
        "t": ["1/3", "-1/4", "1/5", "-1/6"],
        "profile": "four",
    }
