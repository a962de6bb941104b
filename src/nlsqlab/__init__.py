"""Truncated-Fock-space toolkit for nonlinear squeezing of bosonic states:
state generation and loss modeling, temporal-mode filtering, homodyne
tomography, and the noise budget of the measurement-based cubic phase gate.
"""

from .errors import (AmbiguityError, DegeneratePoleError, DimensionError,
                     InvalidInputError, NumericalError, TruncationError)
from .fock import (QuantumState, apply_loss, fidelity, fock_state,
                   make_superposition, quadrature_ops, state_from_json,
                   state_to_json, vacuum, wigner)
from .gate import GateNoiseReport, propagate, required_ancilla_db
from .genmodel import (FitResult, GenerationParams, count_rate_ratio, fit_phi_L,
                       herald, rho_theta_phi_L)
from .nlsq import (NlsqResult, kappa_rescale, nlsq_db, noise_moments,
                   optimal_nonlinear_variance, optimize_coefficients,
                   sweep_rows, vacuum_optimum, write_sweep_csv)
from .temporal import (MatchedFilter, SimulatedTraces, TemporalMode, TraceFile,
                       TraceSet, composite_mode, composite_weights,
                       correlations_by_phase, default_gammas, default_grid,
                       design_matched_filter, gamma_from_hwhm, load_traces,
                       mode_overlap, mode_quadratures, mode_to_csv,
                       pca_mode_estimate, realtime_vs_postprocess, save_traces,
                       simulate_readout, simulate_traces, single_pole_mode)
from .tomo import (BootstrapErrors, MleResult, TomographyDataset,
                   bootstrap_error, mle_reconstruct, oscillator_wavefunctions,
                   quadrature_pdf, read_dataset_csv, sample, write_dataset_csv)

__version__ = "0.1.0"
