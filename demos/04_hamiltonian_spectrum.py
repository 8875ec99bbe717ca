#!/usr/bin/env python3
"""Diagonalizing the lattice Hamiltonian with the polynomial family.

The Hamiltonian hops particles by one site with multiplicity-weighted
rates and carries a diagonal boundary potential; the wave functions built
from the polynomial family are its eigenfunctions with the free-lattice
dispersion 2 sum cos(xi_j).  Large-time dynamics is encoded in unimodular
scattering factors.
"""

from octaboson import (
    LatticeFunction,
    apply_hamiltonian,
    boundary_potential,
    default_params,
    hamiltonian_from_operators,
    hl_polynomial,
    orbit_sums,
    quadratic_norm,
    scattering_factors,
    scattering_matrix,
    verify_eigen,
)

params = default_params()

# --- the Hamiltonian row at a boundary state ---------------------------------
lam = (1, 0)
f = LatticeFunction(2, {mu: 1 for mu in [(1, 0), (2, 0), (1, 1), (0, 0), (2, 1)]})
hf = apply_hamiltonian(f, params)
print(f"(H f)({list(lam)}) with f = 1 near the boundary:", hf(lam))
print("boundary potential at occupations (m0, m1) = (1, 1):",
      boundary_potential(1, 1, params))

# assembling H from creation/annihilation pairs gives the same operator
g = LatticeFunction.delta((2, 1, 1))
assert (apply_hamiltonian(g, params) - hamiltonian_from_operators(g, params)).is_zero
print("operator-assembled Hamiltonian matches the coefficient form exactly")
print()

# --- eigenvalue equation -------------------------------------------------------
# at 20 seeded xi, on the states with parts <= 3; the polynomials of the
# states and their unit-step neighbours are built once for the run
for n in (1, 2, 3):
    residual = max(max(r.values()) for _, r in verify_eigen(n, 3, params, 5))
    print(f"n = {n}: max over 20 xi of |H phi - E phi| / max(1, |phi|) = {residual:.2e}")
# each wave function is a real cosine sum: the orbit sum m_mu at x = e^{i xi}
# is the sum over the distinct permutations pi of mu of prod 2 cos(pi_j xi_j)
expansion = hl_polynomial((2, 1), params).expansion
norm = float(quadratic_norm((2, 1), params))
m = orbit_sums((1.0, 2.0), expansion)
value = sum(float(coeff) * m[mu] for mu, coeff in expansion.items()) / norm
print("sample wave-function value phi_(1,2)((2,1)) =", value)
print()

# --- scattering data -------------------------------------------------------------
print("scattering factors (all unimodular):")
for x in (0.5, 1.5, 3.0):
    s, s0 = scattering_factors(x, params)
    print(f"  x = {x}: |s| - 1 = {abs(s) - 1:+.1e}, |s0| - 1 = {abs(s0) - 1:+.1e}")
xi = (0.4, 1.9, -2.5)
print("factorized matrix at xi =", xi, "-> |S| =", abs(scattering_matrix(xi, params)))
