"""Exact phase-space evolution of linear open quantum systems.

Quadratic Hamiltonians with complex-linear environment couplings evolve
Wigner and chord (characteristic) functions in closed form: a symplectic
orbit, a scalar contraction rate, and one Gaussian damping matrix. This
package computes that solution exactly, derives the observables hanging off
it (positivity threshold, purity and linear entropy, classical Langevin
correspondence, initial-state reconstruction), and ships brute-force
Fokker–Planck and truncated number-basis integrators as independent checks.
"""

from .analysis import (PositivityResult, PurityCurve, linear_entropy,
                       positivity_time, purity, purity_asymptotic,
                       purity_curve, reconstruct, reliable_chords,
                       write_purity_csv)
from .errors import (AsymptoticInvalid, ConfigError, GridTooCoarse,
                     LindquadError, NonSymplectic, NotPositiveDefinite,
                     QuadratureNotConverged, SingularFrame, TruncationLeak,
                     Unstable)
from .grid import (GridField, GridSpec, centered_grid, grid_from_dict,
                   read_field_csv, write_field_csv)
from .langevin import (TrajectoryEnsemble, ensemble_moments, exact_moments,
                       momentum_dissipation_frame, simulate)
from .model import (HamiltonianForm, J, LindbladChannel,
                    OpenSystem, Regime,
                    characteristic_timescale, classify, photon_bath,
                    symplectic_transform, system_from_dict, system_to_dict,
                    wedge)
from .oracle import (FockDensity, affine_flow_expm, cat_fock_dim,
                     cat_fringe_wavenumber, cat_fringe_zero,
                     cat_wigner_line, cat_zero_crossing_time,
                     coherent_fock_dim,
                     damping_matrix_quadrature, fock_cat, fock_coherent,
                     fock_mean, fock_operators, fock_thermal,
                     fokker_planck_max_dt, integrate_fock_lindblad,
                     integrate_fokker_planck, purity_quadrature,
                     wigner_from_fock)
from .propagator import (affine_flow, chord_pde_residual, damping_matrix,
                         evolve_chord, evolve_wigner_grid, evolved_state,
                         map_state)
from .states import (ChordState, cat_state, coherent_state, gaussian_state,
                     state_from_dict)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticInvalid", "ChordState", "ConfigError",
    "FockDensity", "GridField", "GridSpec",
    "GridTooCoarse", "HamiltonianForm", "J", "LindbladChannel",
    "LindquadError", "NonSymplectic", "NotPositiveDefinite", "OpenSystem",
    "PositivityResult", "PurityCurve", "QuadratureNotConverged", "Regime",
    "SingularFrame", "TrajectoryEnsemble", "TruncationLeak",
    "Unstable", "affine_flow", "affine_flow_expm",
    "cat_fock_dim", "cat_fringe_wavenumber", "cat_fringe_zero", "cat_state",
    "cat_wigner_line", "cat_zero_crossing_time", "centered_grid",
    "characteristic_timescale", "chord_pde_residual",
    "classify", "coherent_fock_dim", "coherent_state", "damping_matrix",
    "damping_matrix_quadrature", "ensemble_moments",
    "evolve_chord", "evolve_wigner_grid", "evolved_state", "exact_moments",
    "fock_cat", "fock_coherent", "fock_mean", "fock_operators",
    "fock_thermal", "fokker_planck_max_dt",
    "gaussian_state", "grid_from_dict", "integrate_fock_lindblad",
    "integrate_fokker_planck", "linear_entropy", "map_state",
    "momentum_dissipation_frame",
    "photon_bath", "positivity_time", "purity",
    "purity_asymptotic", "purity_curve", "purity_quadrature",
    "read_field_csv", "reconstruct", "reliable_chords", "simulate",
    "state_from_dict",
    "symplectic_transform", "system_from_dict", "system_to_dict", "wedge",
    "wigner_from_fock", "write_field_csv", "write_purity_csv",
]
