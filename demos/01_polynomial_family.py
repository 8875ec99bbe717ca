#!/usr/bin/env python3
"""Tour of the five-parameter hyperoctahedral polynomial family.

Builds a few members exactly, prints their expansions in the orbit-sum
basis, and demonstrates the identities that pin the family down: monic
triangularity, the principal evaluation, and the lattice recurrence.
"""

from fractions import Fraction

from octaboson import (
    default_params,
    enumerate_partitions,
    hl_polynomial,
    principal_normalizer,
    principal_specialization,
    tau_vector,
    verify_pieri,
)

params = default_params()
print("parameters:", params.to_json_dict())
print()

# --- expansions ------------------------------------------------------------
# Every member is the orbit sum of its leading exponent plus a combination
# of strictly dominated orbit sums.
print("monomial expansions at n = 2 (parts <= 2):")
for lam in enumerate_partitions(2, 2):
    hl = hl_polynomial(lam, params)
    terms = ", ".join(
        f"m_{list(mu)} * {coeff}"
        for mu, coeff in sorted(hl.expansion.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    )
    print(f"  p_{list(lam)} = {terms}")
print()

# --- principal evaluation ---------------------------------------------------
# Evaluating at the geometric point x_j = q^(n-j) t_1 produces exactly the
# reciprocal of the normalizing constant.
lam = (2, 1)
hl = hl_polynomial(lam, params)
tau = tau_vector(2, params)
value = principal_specialization(hl)
print(f"principal evaluation at x = {[str(t) for t in tau]}:")
print(f"  p_{list(lam)}(tau) = {value}")
print(f"  1 / c_{list(lam)}  = {1 / principal_normalizer(lam, params)}")
print(f"  equal: {value == 1 / principal_normalizer(lam, params)}")
print()

# --- the lattice recurrence --------------------------------------------------
# The normalized family satisfies a unit-step recurrence whose left minus
# right side is the literal zero polynomial.  Both sides are invariant, so
# the residual is computed on the Sp(2n) characters of the construction:
# multiplying by m_(1) = sum_j (x_j + 1/x_j), the vector character, moves
# each character to its unit-step neighbours, and the residual is the dict
# of its nonzero orbit coefficients.  One run checks every state of a sector, each polynomial
# (of the states and their unit-step neighbours) built once for the run.
print("recurrence residuals (exact, in the orbit-sum basis):")
for n, max_part in [(1, 3), (2, 3)]:
    residuals = verify_pieri(n, max_part, params)
    nonzero = sum(len(residual) for residual in residuals.values())
    print(f"  n = {n}, parts <= {max_part}: {len(residuals)} states, "
          f"nonzero orbit coefficients -> {nonzero}")
