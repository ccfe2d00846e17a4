"""Exception types raised across the pipeline."""


class SoundnetError(Exception):
    """Base class for all library errors."""


# --- WAV decoding ---

class UnsupportedFormat(SoundnetError):
    """Compression code other than integer PCM / IEEE float, or an unsupported bit depth."""


class CorruptHeader(SoundnetError):
    """RIFF structure is inconsistent (bad magic, chunk sizes, missing chunks)."""


class EmptyAudio(SoundnetError):
    """The data chunk holds zero frames."""


class NonFiniteSamples(SoundnetError):
    """A float payload holds NaN or infinite samples."""


# --- spectral ---

class EmptyInput(SoundnetError):
    """Transform requested on an empty sample sequence."""


class TransformTooLarge(SoundnetError):
    """A full-spectrum transform would exceed spectral.MAX_FULL_FFT points."""


# --- frequency sequences (fitting and networks) ---

class NonFiniteValues(SoundnetError):
    """A sequence holds NaN or infinite values."""


# --- distribution fitting ---

class InsufficientData(SoundnetError):
    """Fewer samples than the fitting minimum (20)."""


class DegenerateData(SoundnetError):
    """All samples identical; no family can be fitted."""


class NonConvergence(SoundnetError):
    """No interior optimum: the exponentiated-Weibull search hit its evaluation
    cap, the Gibrat root search found no root, or the likelihood's supremum
    lies on a boundary of the parameter space. Carries the fit found."""

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class InvalidFit(SoundnetError):
    """A family that cannot be fitted to the samples: they leave its support (a
    sample <= 0 for a positive family), or their magnitudes overflow or
    underflow its arithmetic, so that the fitter raises or leaves a parameter
    non-finite, the scale <= 0 or the KS statistic non-finite."""


class AllFitsFailed(SoundnetError):
    """Every candidate family errored or failed to converge."""


# --- network of sounds ---

class NonPositiveFrequency(SoundnetError):
    """Frequencies must be > 0 Hz to map onto the pitch grid."""


class EmptyNetwork(SoundnetError):
    """No in-range frequency components left to build a network from."""


# --- corpus comparison ---

class DegenerateInput(SoundnetError):
    """Rank correlation undefined (constant vector)."""
