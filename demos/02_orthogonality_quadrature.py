#!/usr/bin/env python3
"""Orthogonality on the torus, checked by spectrally accurate quadrature.

The weight is analytic on the torus, so the plain trapezoidal rule
converges geometrically; the Gram matrix of the family comes out diagonal
with the predicted exact norms on the diagonal.  Every polynomial enters
as its orbit-sum expansion mu -> coefficient.
"""

import numpy as np

from octaboson import (
    QuadratureSpec,
    default_params,
    enumerate_partitions,
    gram_matrix,
    hl_polynomial,
    inner_product,
    quadratic_norm,
)

params = default_params()

# --- convergence of the rule -------------------------------------------------
one = {(0,): 1}
exact = float(quadratic_norm((0,), params))
print("trapezoid convergence for <1, 1> at n = 1 (exact %.15f):" % exact)
for m in [8, 16, 32, 64]:
    v = inner_product(one, one, params, QuadratureSpec(points_per_dim=m, n=1))
    print(f"  M = {m:3d}:  {v.real:.15f}   error {abs(v - exact):.2e}")
print()

# --- Gram matrix of the family ------------------------------------------------
lams = enumerate_partitions(2, 2)
quad = QuadratureSpec(points_per_dim=64, n=2)
basis = [hl_polynomial(lam, params).expansion for lam in lams]
gram = gram_matrix(basis, params, quad)
off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
print("Gram matrix over enumerate(2,2), M = 64:")
print("  max |off-diagonal| =", f"{off:.2e}")
print("  diagonal vs exact norms:")
for lam, diag in zip(lams, np.diag(gram).real):
    expected = float(quadratic_norm(lam, params))
    print(f"    {str(list(lam)):9s} quad {diag: .12f}  exact {expected: .12f}")
print()

# --- a noncomparable pair -------------------------------------------------------
# (1,1,1) and (2,0,0) are incomparable in the dominance order, so their
# orthogonality is invisible to the triangular construction; the integral
# still vanishes.
quad3 = QuadratureSpec(points_per_dim=32, n=3)
pa = hl_polynomial((1, 1, 1), params)
pb = hl_polynomial((2, 0, 0), params)
value = inner_product(pa.expansion, pb.expansion, params, quad3)
print(f"noncomparable pair at n = 3: |<p_(1,1,1), p_(2,0,0)>| = {abs(value):.2e}")
