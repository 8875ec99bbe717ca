"""Hyperoctahedral Hall-Littlewood polynomials and the boundary-deformed
q-boson lattice model they diagonalize.

The package constructs the five-parameter polynomial family exactly
(Laurent polynomials over rationals), realizes the deformed creation,
annihilation, and number operators on finite particle sectors, and machine
verifies the identities tying the two together: orthogonality and norms,
the lattice recurrence, the field-algebra commutation relations (including
the boundary twist that breaks ultralocality), the eigenvalue equation,
the parameter degenerations, and the factorized scattering data.
"""

from .laurent import LaurentPoly, NotDivisibleError, apply_w
from .partitions import (
    SignedPermutation,
    add_part,
    dominance_leq,
    enumerate_partitions,
    hyperoctahedral_group,
    lower_set,
    multiplicity,
    orbit,
    remove_part,
)
from .qkernels import (
    GenericityError,
    ParamSet,
    boundary_potential,
    default_params,
    hop_coeff,
    monic_normalizer,
    pieri_coeff,
    principal_normalizer,
    qinteger,
    qpochhammer,
    quadratic_norm,
    tau_vector,
    wave_normalizer,
)
from .hallittlewood import (
    ConditioningError,
    HLPolynomial,
    hl_gram_schmidt,
    hl_polynomial,
    macdonald_formula,
    monomial_symmetric,
    normalized_polynomial,
    pieri_residual,
    principal_specialization,
)
from .budget import BudgetExceededError
from .torus import (
    QuadratureSpec,
    convergence_probe,
    gram_matrix,
    inner_product,
)
from .qboson import (
    EXCHANGE_RELATIONS,
    RELATION_IDS,
    LatticeFunction,
    annihilate,
    apply_hamiltonian,
    create,
    eigen_residual,
    energy,
    hamiltonian_from_operators,
    number_op,
    scattering_factors,
    scattering_matrix,
    sector_inner_product,
    verify_relation,
    wave_function,
)

__version__ = "0.1.0"
