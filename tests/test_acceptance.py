"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured residuals and runtimes.
"""

import random
import time
from fractions import Fraction

import pytest

from octaboson.hallittlewood import (
    hl_polynomial,
    macdonald_formula,
    principal_specialization,
    verify_pieri,
)
from octaboson.partitions import enumerate_partitions, raise_indices
from octaboson.qboson import (
    RELATION_IDS,
    LatticeFunction,
    annihilate,
    apply_hamiltonian,
    create,
    scattering_factors,
    scattering_matrix,
    sector_inner_product,
    verify_eigen,
    verify_relation,
)
from octaboson.qkernels import (
    ParamSet,
    boundary_potential,
    default_params,
    hop_coeff,
    hop_up_three,
    norm_three,
    potential_three,
    principal_normalizer,
    quadratic_norm,
)
from octaboson.torus import QuadratureSpec, inner_product
from lattice_oracle import reduced_annihilate, reduced_create
from orbit_oracle import hl_gram_schmidt

PARAMS = default_params("four")
PARAMS_TWO = default_params("two")
PARAM_TRIPLE = (
    PARAMS,
    ParamSet(
        q=Fraction(1, 3),
        ts=(Fraction(1, 2), Fraction(1, 5), Fraction(-2, 7), Fraction(3, 8)),
    ),
    ParamSet(
        q=Fraction(2, 5),
        ts=(Fraction(-1, 2), Fraction(2, 3), Fraction(1, 7), Fraction(-1, 9)),
    ),
)


def report(number: int, name: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail}; {elapsed:.1f}s)")


def test_criterion_01_orthogonality_n2():
    start = time.time()
    lams = enumerate_partitions(2, 3)
    assert len(lams) == 10
    quad = QuadratureSpec(points_per_dim=64, n=2)
    polys = {lam: hl_polynomial(lam, PARAMS) for lam in lams}
    worst_off = 0.0
    worst_diag = 0.0
    pairs = 0
    for i, lam in enumerate(lams):
        for mu in lams[i:]:
            value = inner_product(polys[lam].expansion, polys[mu].expansion, PARAMS, quad)
            pairs += 1
            if lam == mu:
                expected = float(quadratic_norm(lam, PARAMS))
                worst_diag = max(worst_diag, abs(value - expected) / (1 + abs(expected)))
            else:
                worst_off = max(worst_off, abs(value))
    elapsed = time.time() - start
    passed = pairs == 55 and worst_off < 1e-8 and worst_diag < 1e-8 and elapsed < 60
    report(
        1,
        "orthogonality-n2",
        passed,
        f"max offdiag {worst_off:.2e} < 1e-8, max rel diag err {worst_diag:.2e} < 1e-8",
        elapsed,
    )
    assert passed


def test_criterion_02_noncomparable_orthogonality_n3():
    start = time.time()
    quad = QuadratureSpec(points_per_dim=32, n=3)
    p_a = hl_polynomial((1, 1, 1), PARAMS)
    p_b = hl_polynomial((2, 0, 0), PARAMS)
    value = abs(inner_product(p_a.expansion, p_b.expansion, PARAMS, quad))
    elapsed = time.time() - start
    passed = value < 1e-6 and elapsed < 120
    report(
        2,
        "noncomparable-orthogonality-n3",
        passed,
        f"|<p_(1,1,1), p_(2,0,0)>| = {value:.2e} < 1e-6",
        elapsed,
    )
    assert passed


def test_criterion_03_pieri_identity():
    start = time.time()
    checked = 0
    all_zero = True
    for params in PARAM_TRIPLE:
        for n, max_part in ((1, 5), (2, 3)):
            residuals = verify_pieri(n, max_part, params)
            all_zero = all_zero and not any(residuals.values())
            checked += len(residuals)
    elapsed = time.time() - start
    passed = all_zero and elapsed < 60
    report(
        3,
        "pieri-identity",
        passed,
        f"{checked} residuals exactly zero at 3 parameter points",
        elapsed,
    )
    assert passed


def test_criterion_04_principal_specialization():
    start = time.time()
    ok = True
    for lam in enumerate_partitions(2, 3):
        hl = hl_polynomial(lam, PARAMS)
        ok = ok and principal_specialization(hl) * principal_normalizer(lam, PARAMS) == 1
    elapsed = time.time() - start
    passed = ok and elapsed < 10
    report(4, "principal-specialization", passed, "exact equality on enumerate(2,3)", elapsed)
    assert passed


def test_criterion_05_commutation_relations():
    start = time.time()
    site_max = 5
    all_zero = True
    cases = 0
    for n in (1, 2, 3):
        for rid in RELATION_IDS:
            if rid in ("d1", "d2", "e1", "e2"):
                pairs = [(l, k) for l in range(site_max) for k in range(l + 1, site_max + 1)]
            elif rid in ("b", "c"):
                pairs = [(l, 0) for l in range(site_max + 1)]
            else:
                pairs = [(l, k) for l in range(site_max + 1) for k in range(site_max + 1)]
            for l, k in pairs:
                rep = verify_relation(rid, l, k, n, 4, PARAMS)
                all_zero = all_zero and rep.residual == 0
                cases += rep.cases
    # documented breakdown of ultralocality at the boundary pair, and its
    # disappearance once t_4 = 0
    witness = verify_relation("d1", 0, 1, 2, 4, PARAMS, twisted=False)
    restored = verify_relation(
        "d1", 0, 1, 2, 4, default_params("three"), twisted=False
    )
    elapsed = time.time() - start
    passed = all_zero and witness.residual != 0 and restored.residual == 0 and elapsed < 60
    report(
        5,
        "commutation-relations",
        passed,
        f"{cases} exact cases, untwisted (0,1) fails as documented, "
        "restored at t4=0",
        elapsed,
    )
    assert passed


def test_criterion_06_adjointness_and_symmetry():
    start = time.time()
    ok = True
    for sector in (0, 1, 2):
        lower = enumerate_partitions(sector, 4)
        upper = enumerate_partitions(sector + 1, 4)
        for l in range(5):
            for mu in lower:
                f = LatticeFunction.delta(mu)
                cf = create(l, f, PARAMS)
                for nu in upper:
                    g = LatticeFunction.delta(nu)
                    ok = ok and sector_inner_product(cf, g, PARAMS) == (
                        sector_inner_product(f, annihilate(l, g, PARAMS), PARAMS)
                    )
    for n in (1, 2):
        lams = enumerate_partitions(n, 4)
        images = {lam: apply_hamiltonian(LatticeFunction.delta(lam), PARAMS) for lam in lams}
        for lam in lams:
            for mu in lams:
                lhs = sector_inner_product(images[lam], LatticeFunction.delta(mu), PARAMS)
                rhs = sector_inner_product(LatticeFunction.delta(lam), images[mu], PARAMS)
                ok = ok and lhs == rhs
    elapsed = time.time() - start
    passed = ok and elapsed < 30
    report(6, "adjointness-and-H-symmetry", passed, "exact on delta bases, n <= 2, parts <= 4", elapsed)
    assert passed


def test_criterion_07_eigenvalue_equation():
    start = time.time()
    worst = 0.0
    for n in (1, 2, 3):
        for _, residuals in verify_eigen(n, 4, PARAMS, 2024):
            worst = max(worst, *residuals.values())
    elapsed = time.time() - start
    passed = worst < 1e-10 and elapsed < 120
    report(
        7,
        "eigenvalue-equation",
        passed,
        f"max relative residual {worst:.2e} < 1e-10 over n=1,2,3 x 20 xi",
        elapsed,
    )
    assert passed


def test_criterion_08_two_formula_equivalence():
    start = time.time()
    ok = True
    for lam in enumerate_partitions(2, 3):
        ok = ok and (
            hl_polynomial(lam, PARAMS_TWO).poly == macdonald_formula(lam, PARAMS_TWO).poly
        )
    elapsed = time.time() - start
    passed = ok and elapsed < 30
    report(
        8,
        "two-formula-equivalence",
        passed,
        "exact polynomial equality at t3=t4=0 on enumerate(2,3)",
        elapsed,
    )
    assert passed


def test_criterion_09_degeneration_coherence():
    start = time.time()
    q = PARAMS.q
    t1, t2, t3, _ = PARAMS.ts
    zts = (t1, t2, t3, Fraction(0))
    three = ParamSet(q=q, ts=zts, profile="three")
    ok = True
    cases = 0
    for n in (0, 1, 2, 3):
        for lam in enumerate_partitions(n, 4):
            ok = ok and quadratic_norm(lam, three) == norm_three(lam, q, zts)
            cases += 1
            for j in raise_indices(lam):
                ok = ok and hop_coeff(lam, j, +1, three) == hop_up_three(lam, j, q, zts)
                cases += 1
            f = LatticeFunction.delta(lam)
            for l in range(6):
                ok = ok and (
                    create(l, f, three) - reduced_create(l, f, three, hop_up_three)
                ).is_zero
                ok = ok and (annihilate(l, f, three) - reduced_annihilate(l, f)).is_zero
                cases += 2
    for m0 in range(4):
        for m1 in range(4 - m0):
            ok = ok and boundary_potential(m0, m1, three) == potential_three(m0, m1, q, zts)
            cases += 1
    elapsed = time.time() - start
    passed = ok and elapsed < 30
    report(9, "degeneration-coherence", passed, f"{cases} exact comparisons at t4=0", elapsed)
    assert passed


def test_criterion_10_scattering_unimodularity():
    start = time.time()
    rng = random.Random(99)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-10, 10)
        s, s0 = scattering_factors(x, PARAMS)
        worst = max(worst, abs(abs(s) - 1), abs(abs(s0) - 1))
        for n in (1, 2, 3):
            xi = [rng.uniform(-10, 10) for _ in range(n)]
            worst = max(worst, abs(abs(scattering_matrix(xi, PARAMS)) - 1))
    elapsed = time.time() - start
    passed = worst < 1e-12 and elapsed < 5
    report(
        10,
        "scattering-unimodularity",
        passed,
        f"max | |.| - 1 | = {worst:.2e} < 1e-12 at 100 random points, n <= 3",
        elapsed,
    )
    assert passed


def test_criterion_11_cross_route_construction():
    start = time.time()
    quad = QuadratureSpec(points_per_dim=64, n=2)
    worst = 0.0
    for lam in enumerate_partitions(2, 3):
        exact = hl_polynomial(lam, PARAMS)
        numeric = hl_gram_schmidt(lam, PARAMS, quad)
        for mu in set(numeric) | set(exact.expansion):
            diff = abs(numeric.get(mu, 0.0) - float(exact.expansion.get(mu, 0)))
            worst = max(worst, diff)
    elapsed = time.time() - start
    passed = worst < 1e-8 and elapsed < 60
    report(
        11,
        "cross-route-construction",
        passed,
        f"max coefficient difference {worst:.2e} < 1e-8 on enumerate(2,3)",
        elapsed,
    )
    assert passed
