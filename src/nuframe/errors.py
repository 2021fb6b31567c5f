"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable JSON error objects.
"""


class NuframeError(Exception):
    code = "E_NUFRAME"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class RejectedParameters(NuframeError):
    """Lattice parameters outside the admissible family, or a lattice point
    that is not on the lattice."""

    code = "E_LATTICE"


class InvalidParameter(NuframeError, ValueError):
    """A grid, window, refinement, node count, amplitude or bound argument
    outside its range."""

    code = "E_PARAMETER"


class UsageError(NuframeError):
    """Command line rejected by the CLI's argument parser."""

    code = "E_USAGE"


class MixedLattice(NuframeError):
    """Two objects built over different lattices were combined."""

    code = "E_MIXED_LATTICE"


class ShapeMismatch(NuframeError):
    """Matrix dimension or envelope count disagrees between operands."""

    code = "E_SHAPE"


class RefinementMismatch(NuframeError):
    """Step spectra could not be rebinned to a common cell grid."""

    code = "E_REFINEMENT"


class FrequencyOutOfRange(NuframeError):
    """Frequency argument outside the canonical sampling interval."""

    code = "E_FREQUENCY"


class VanishingEnvelopeSpectrum(NuframeError):
    """Relative-error denominator underflowed on the measurement grid."""

    code = "E_VANISHING_SPECTRUM"


class DegenerateEnvelope(NuframeError):
    """An all-zero envelope was offered to a frame system."""

    code = "E_ENVELOPE"


class FormatError(NuframeError):
    """Input file does not match the documented JSON/CSV layout."""

    code = "E_FORMAT"
