#!/usr/bin/env python3
"""The boundary-deformed q-boson field algebra on particle sectors.

Shows the operators acting on basis states, verifies a commutation
relation exactly, and exhibits the breakdown of ultralocality: the
annihilators at the two boundary sites fail to commute unless corrected
by a diagonal twist, and plain commutativity returns once one boundary
coupling is switched off.
"""

from octaboson import (
    LatticeFunction,
    annihilate,
    create,
    default_params,
    number_op,
    sector_inner_product,
    verify_relation,
)

params = default_params()
params3 = default_params("three")

# --- operator actions -----------------------------------------------------
f = LatticeFunction.delta((2, 1, 0))
print("state: delta_(2,1,0)")
print("  annihilate site 1 ->", dict(annihilate(1, f, params).values))
print("  annihilate site 0 ->", {k: str(v) for k, v in annihilate(0, f, params).values.items()})
print("  create at site 2  ->", {k: str(v) for k, v in create(2, f, params).values.items()})
print("  number op site 0  ->", {k: str(v) for k, v in number_op(0, f, params).values.items()})
print()

# --- a relation, verified exactly -------------------------------------------
rep = verify_relation("c", 0, 0, 2, 3, params)
print(f"normal-ordering relation at the boundary site: residual {rep.residual} over {rep.cases} states")
print()

# --- ultralocality and its breakdown -----------------------------------------
untwisted = verify_relation("d1", 0, 1, 2, 3, params, twisted=False)
twisted = verify_relation("d1", 0, 1, 2, 3, params)
print("annihilators at sites 0 and 1, full profile:")
print(f"  plain commutator residual: {untwisted.residual}  (nonzero!)")
print(f"  twisted relation residual: {twisted.residual}")
restored = verify_relation("d1", 0, 1, 2, 3, params3, twisted=False)
print(f"  with t4 = 0 the plain commutator residual: {restored.residual}")
print()

# --- adjointness ---------------------------------------------------------------
f = LatticeFunction.delta((1, 0))
g = LatticeFunction.delta((3, 1, 0))
lhs = sector_inner_product(create(3, f, params), g, params)
rhs = sector_inner_product(f, annihilate(3, g, params), params)
print("adjointness <create(3) f, g> == <f, annihilate(3) g>:", lhs == rhs, "=", lhs)
