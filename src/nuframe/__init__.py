"""Frame bounds and perturbation audits for matrix-valued sequences over
non-uniform translation lattices."""

__version__ = "0.1.0"

from .bounds import (
    FrameBoundsReport,
    bessel_necessary_bounds,
    bessel_sufficient_bound,
    envelope_sup_norm,
    feasibility,
    frame_bounds_gamma,
)
from .errors import (
    DegenerateEnvelope,
    FormatError,
    FrequencyOutOfRange,
    InvalidParameter,
    MixedLattice,
    NuframeError,
    RefinementMismatch,
    RejectedParameters,
    ShapeMismatch,
    VanishingEnvelopeSpectrum,
)
from .frame import (
    CoefficientTable,
    FrameSystem,
    analysis,
    frame_operator_apply,
    frame_sum,
    frame_sum_spectral,
    frame_sum_spectral_entrywise,
    frame_sum_spectral_truncated,
    frame_system,
    synthesis,
)
from .gamma import (
    envelope_sample_vector,
    phase_vector,
    sample_gram,
    sample_matrix,
    sample_vector,
    sampling_identity_residual,
    signal_sample_stack,
    spectral_overlap,
    stacked_operator,
)
from .lattice import LatticePoint, SpectralLattice, make_lattice, omega_cells
from .perturb import (
    PerturbationReport,
    absolute_bounds,
    check_absolute,
    check_relative,
    relative_bounds,
)
from .signal import (
    MatrixSeq,
    SpectrumStep,
    displace,
    frobenius_norm,
    inner_time,
    matrix_seq,
    seq_equal,
    spectrum_grid,
    spectrum_step,
    step_equal,
    step_inner,
)
from . import fixtures

__all__ = [
    # bounds
    "FrameBoundsReport", "bessel_necessary_bounds", "bessel_sufficient_bound",
    "envelope_sup_norm", "feasibility", "frame_bounds_gamma",
    # errors
    "DegenerateEnvelope", "FormatError", "FrequencyOutOfRange", "InvalidParameter", "MixedLattice",
    "NuframeError", "RefinementMismatch", "RejectedParameters", "ShapeMismatch",
    "VanishingEnvelopeSpectrum",
    # frame
    "CoefficientTable", "FrameSystem", "analysis", "frame_operator_apply", "frame_sum",
    "frame_sum_spectral", "frame_sum_spectral_entrywise", "frame_sum_spectral_truncated",
    "frame_system", "synthesis",
    # gamma
    "envelope_sample_vector", "phase_vector", "sample_gram", "sample_matrix",
    "sample_vector", "sampling_identity_residual", "signal_sample_stack",
    "spectral_overlap", "stacked_operator",
    # lattice
    "LatticePoint", "SpectralLattice", "make_lattice", "omega_cells",
    # perturb
    "PerturbationReport", "absolute_bounds", "check_absolute", "check_relative",
    "relative_bounds",
    # signal
    "MatrixSeq", "SpectrumStep", "displace", "frobenius_norm", "inner_time", "matrix_seq",
    "seq_equal", "spectrum_grid", "spectrum_step", "step_equal", "step_inner",
]
