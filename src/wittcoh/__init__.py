"""Exact computation of the restricted cohomology of the modular Witt algebra.

The package constructs W = Der(GF(p)[x]/(x^p - 1)), computes its ordinary
and restricted cohomology in degrees 0..2 over GF(p), and builds and
verifies every one-dimensional restricted central extension, certifying
each dimension and cocycle identity for concrete primes.
"""

from .extensions import (
    CentralExtension,
    Classification,
    ExtElement,
    build_extension,
    classify_extension,
    cohomologous,
    extract_cocycle,
    omega_extension,
    verify_restricted_axioms,
    virasoro_extension,
)
from .gfp import PrimeField, is_prime
from .ordinary import (
    Cochain1,
    Cochain2Ord,
    Cochain3Ord,
    delta1_cl,
    delta2_cl,
    virasoro_cocycle,
)
from .restricted import (
    Cochain2Res,
    Cochain3Res,
    CochainComplex,
    NotACocycleError,
    cochain_complex,
    delta1_res,
    delta2_res,
    eval_beta,
    eval_omega,
    graded_component_kernel_dim,
    ind2,
    omega_coordinate,
    omega_functional,
    ordinary_cohomology_dims,
    project_class_to_ordinary,
    restricted_h2,
    star_correction,
    starstar_correction,
    virasoro_cochain,
)
from .witt import (
    ProportionalityError,
    WittElement,
    basis_element,
    bracket,
    gamma,
    jacobson_s,
    normalize_index,
    pth_power,
    pth_power_basis,
    pth_power_via_derivation,
)

__version__ = "0.1.0"
