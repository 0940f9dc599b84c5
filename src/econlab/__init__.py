"""econlab: a numerical laboratory for growth-theory classroom math.

Each submodule implements one cluster of worked examples (determinant
geometry, Taylor series, sphere-constrained quadratic forms, a carbon
box model, CRRA utility, the Ramsey saddle path) plus the fixed-step
numerical kernels used to cross-check every closed form.
"""

from . import carbon, crra, matgeo, numerics, ramsey, series, spectra
from .carbon import (CarbonParams, airborne_fraction, airborne_fraction_limit,
                     concentration_closed, concentration_rhs, emissions)
from .crra import CrraSpec, arrow_pratt, marginal, utility
from .errors import (BracketError, ComplexSpectrumError, ConvergenceError,
                     DegenerateVectorError, DivergenceError, DomainError,
                     EconLabError, HorizonError, InfeasibleParametersError,
                     NotDiagonalizableError, SingularSystemError,
                     StabilityStructureError)
from .matgeo import (EigenDecomp2, MatrixComplex, change_of_basis_apply,
                     companion_det, cramer_solve, det2, detN, eig2, mc_mul,
                     mc_square_is_minus_identity, parallelogram_area,
                     rotation_scaling)
from .numerics import (Grid, Trajectory, bisect, central_diff_gradient,
                       cumulative_simpson, rk4_integrate, rk4_step, simpson)
from .ramsey import (BASELINE, HouseholdPath, LinearizedSystem, RamseyParams,
                     SteadyState, TransversalityReport, assets_path,
                     budget_identity_residual, eigen_closed, euler_residual,
                     firm_foc_r, foc_c_residual, hamiltonian,
                     household_path_from_trajectory, is_diagonalizable,
                     jacobian_closed, linearize, linearized_solution,
                     production, production_mp, rhs, saddle_path_linear,
                     shoot_nonlinear, simulate, steady_state,
                     transversality_check, wage)
from .series import (TaylorSpec, cos_taylor, exp_i_taylor,
                     sin_diff_identity_residual, sin_taylor)
from .spectra import (SphereExtrema, lagrange_residual, quadform_eval,
                      quadform_grad, sphere_extrema)

__version__ = "0.1.0"
