"""Spread complexity, fidelity susceptibility and topology of two-band Bloch Hamiltonians."""

from .bloch import (BlochVector, GlobalReference, PiecewiseBlochReference,
                    ReferenceState, canonical_angles, plateau_reference)
from .bounds_duality import (BoundReport, bound_check, complexity_derivative,
                             complexity_duality_check,
                             complexity_duality_offset, fs_duality_check,
                             ratio_R, reference_coefficients,
                             self_dual_constraint)
from .complexity import (BandAssignment, complexity_per_mode,
                         excited_piecewise_complexity, excited_split_closed,
                         ground_complexity, ground_state_bloch,
                         md_complexity_closed, md_dC_dmu_analytic,
                         plateau_complexity, ssh_complexity_closed)
from .errors import (ConvergenceError, DomainError, ExceptionalPointError,
                     GapClosedError, InsufficientDataError, NonQuantizedError,
                     NormalizationError, PartitionError, SpecError,
                     TwoBandError, UndefinedRatioError)
from .fidelity import (SusceptibilityBreakdown, chi_F, chi_F_md_closed,
                       chi_F_md_z_closed, chi_F_per_mode,
                       chi_F_per_mode_projector, chi_F_ssh_closed)
from .models import (CooperPairBoxParams, DualSSHParams, MassiveDiracParams,
                     NonHermitianSSHParams, SSHParams, TwoBandModel,
                     cooper_pair_box_model, dual_pair, massive_dirac_model,
                     nh_ssh_bloch_hamiltonian, ssh_model)
from .nonhermitian import (BiKrylovBasis, BiorthogonalPair, bikrylov_basis,
                           biorthogonal_ground, detect_cusps,
                           nh_complexity_derivative, nh_complexity_per_mode,
                           nh_complexity_per_mode_overlap,
                           nh_ground_complexity)
from .quadrature import (BZQuadratureConfig, bz_average, bz_average_vec,
                         param_derivative)
from .special_functions import (complete_E, complete_E_quadrature, complete_K,
                                complete_K_quadrature, dE_dm, dK_dm, incomplete_E)
from .sweeps import (SweepRecord, SweepSpec, records_to_csv, records_to_json,
                     run_sweep, write_records)
from .topology import dual_windings, winding_cross_product, winding_log_derivative

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
