"""convkern: kernels of discrete convolution and subdivision operators.

Constructs and certifies the homogeneous solution spaces of multivariate
FIR filters and stationary subdivision schemes as exponential-polynomial
sequences attached to the zeros and multiplicity spaces of the symbols.
"""

from .apolar import (DInvariantSpace, adjoint_check, bombieri, bombieri_norm,
                     fat_point_space, is_d_invariant, lower_set_space,
                     ortho_expansion_residual, ortho_homog_basis,
                     taylor_identity_residual)
from .filters import (ExpPolySeq, Impulse, Window, certified_window, convolve,
                      eigen_residual, kernel_residual)
from .mpoly import (LaurentPoly, apply_poly_diff, falling_factorial,
                    laurent_normalize)
from .newton import (PThetaBasis, WITH_SIGMA_MINUS, L_inv, L_op, build_p_theta,
                     forward_difference, newton_coeffs, shift_matrix)
from .spectrum import (FundamentalSystem, Spectrum, Zero, certify_eigen, certify_hermite,
                       certify_kernel, dual_apply, hermite_fundamentals, ideal_complement_filters,
                       kernel_basis, quotient_dim_estimate, verify_zero_dim)
from .subdivision import (Dilation, canonical_zero_representative, coset_reps,
                          is_expanding, is_symmetric_zero, modulation_points, subdivide,
                          subdivision_kernel_check, subsymbols, symmetric_zero_order,
                          z_pow_Xi)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly", "apply_poly_diff", "falling_factorial", "laurent_normalize",
    "DInvariantSpace", "bombieri", "bombieri_norm", "adjoint_check",
    "is_d_invariant", "ortho_homog_basis", "ortho_expansion_residual",
    "taylor_identity_residual", "lower_set_space", "fat_point_space",
    "forward_difference", "newton_coeffs", "L_op", "L_inv", "PThetaBasis",
    "build_p_theta", "shift_matrix", "WITH_SIGMA_MINUS",
    "Impulse", "ExpPolySeq", "Window", "convolve", "certified_window", "kernel_residual",
    "eigen_residual", "certify_eigen",
    "Zero", "Spectrum", "FundamentalSystem", "dual_apply", "verify_zero_dim",
    "hermite_fundamentals", "certify_hermite", "ideal_complement_filters", "certify_kernel",
    "kernel_basis",
    "quotient_dim_estimate",
    "Dilation", "is_expanding", "coset_reps", "subsymbols", "z_pow_Xi",
    "modulation_points", "is_symmetric_zero", "subdivide",
    "subdivision_kernel_check", "canonical_zero_representative",
    "symmetric_zero_order",
]
