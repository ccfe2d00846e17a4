"""soundnet: WAV recordings as networks of pitch bins.

Pipeline: decode audio, extract spectral peak frequencies, fit candidate
statistical distributions with KS scoring, map the frequency sequence onto an
equal-tempered pitch-bin graph, and compare pieces across a corpus.
"""

from .audio_io import AudioBuffer, decode_wav, write_wav_float32, write_wav_int16
from .corpus import (
    CorpusReport,
    corpus_report,
    degree_correlation_matrix,
    spearman,
)
from .distfit import (
    ALL_FAMILIES,
    DistFamily,
    FitReport,
    FittedDistribution,
    KsResult,
    best_fit,
    fit_mle,
    ks_test,
)
from .network import (
    PitchBin,
    PitchGrid,
    SoundNetwork,
    bin_of,
    build_network,
    clique_octave_histogram,
    degree_centrality,
    largest_clique,
)
from .spectral import (
    FrequencySequence,
    PeakParams,
    Spectrum,
    dft,
    extract_sequence_full,
    extract_sequence_stft,
)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "decode_wav",
    "write_wav_float32",
    "write_wav_int16",
    "Spectrum",
    "PeakParams",
    "FrequencySequence",
    "dft",
    "extract_sequence_full",
    "extract_sequence_stft",
    "DistFamily",
    "ALL_FAMILIES",
    "FittedDistribution",
    "KsResult",
    "FitReport",
    "fit_mle",
    "ks_test",
    "best_fit",
    "PitchGrid",
    "PitchBin",
    "SoundNetwork",
    "bin_of",
    "build_network",
    "degree_centrality",
    "largest_clique",
    "clique_octave_histogram",
    "spearman",
    "degree_correlation_matrix",
    "corpus_report",
    "CorpusReport",
    "__version__",
]
