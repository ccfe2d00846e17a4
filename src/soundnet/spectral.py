"""Spectral decomposition and frequency-sequence extraction.

The transform is numpy.fft (pocketfft) on inputs zero-padded to the next
power of two, checked against a direct quadratic summation in the self-test
suite. Peak frequencies are always exact bin centers k*fs/N, so every
downstream artifact is bit-reproducible; the bin width is the documented
accuracy bound.

The STFT is one flat pass over the signal. Frames are strided views of the
samples; each chunk of frames is windowed (np.hanning), transformed and
turned into magnitudes, and the peaks of the chunk are picked
candidate-first: only the bins at or above their frame's relative threshold
are tested, for a strict rise and then a strict fall or, where a plateau
starts, a fall at its next change within the frame. The whole-signal
spectrum of the full mode uses the same picker, which tests every column with
whole-row slices instead once more than 1/8 of them are candidates (86-90 % on
broadband noise, 0.2-0.3 % in a melody's STFT chunks); both modes apply the dB
floor and report bin k as k * (fs / N) Hz in one helper.

The full mode keeps only the non-negative-frequency half of its transform
(the rfft half); for real input the other bins are its conjugate mirror,
which no stage needs. Its transform size is capped at MAX_FULL_FFT = 2^26
points (about 25 minutes at 44.1 kHz). The transform and the peak picking
then take about 1.6 GiB on broadband noise (25.5 bytes per point, traced at
2^19 points); longer signals raise TransformTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer
from .errors import EmptyInput, TransformTooLarge

# STFT frames per rfft batch, chosen by measurement: on 60 s melodies at frame
# size 4096, 64 frames per chunk beat 256. A chunk's working set is at most
# about 19 * frame_size bytes per frame, reached when nearly every bin is a
# peak candidate (noise, silence): 4.7 MiB at 4096, 72 MiB at MAX_FRAME_SIZE.
_CHUNK_FRAMES = 64
MAX_FRAME_SIZE = 1 << 16
MAX_FULL_FFT = 1 << 26


@dataclass(frozen=True)
class PeakParams:
    """Tunables for spectral peak extraction.

    frame_size is a power of two from 2 to MAX_FRAME_SIZE (2^16), which bounds
    the STFT's working set at about 72 MiB whatever the signal's length
    (see _CHUNK_FRAMES).
    rel_threshold is a fraction of the per-frame maximum magnitude; floor_db
    is relative to the global maximum magnitude of the whole signal.
    """

    frame_size: int = 4096
    hop: int = 2048
    top_k: int = 5
    rel_threshold: float = 0.1
    floor_db: float = -60.0

    def __post_init__(self):
        if self.frame_size < 2 or self.frame_size & (self.frame_size - 1):
            raise ValueError("frame_size must be a power of two >= 2")
        if self.frame_size > MAX_FRAME_SIZE:
            raise ValueError(f"frame_size must be at most {MAX_FRAME_SIZE}")
        if not 1 <= self.hop <= self.frame_size:
            raise ValueError("hop must satisfy 1 <= hop <= frame_size")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 < self.rel_threshold <= 1.0:
            raise ValueError("rel_threshold must be in (0, 1]")
        if not self.floor_db <= 0.0:  # also rejects NaN; -inf means no floor
            raise ValueError("floor_db must be <= 0 dB")


@dataclass(frozen=True)
class Spectrum:
    """DFT of a real signal, held as its bins 0..N/2 (the rfft half); all N
    bins are np.concatenate([half, np.conj(half[-2:0:-1])])."""

    half: np.ndarray
    n_fft: int
    sample_rate_hz: float


@dataclass(frozen=True)
class FrequencySequence:
    """Ordered extracted frequency components in Hz (all strictly below Nyquist)."""

    values_hz: np.ndarray
    extraction_params: PeakParams

    def __len__(self):
        return len(self.values_hz)


def next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def dft(samples, sample_rate_hz: float = 1.0) -> Spectrum:
    """DFT zero-padded to the next power of two N, held as its rfft half.

    Bins [0, N/2] equal np.fft.rfft bit for bit, as in the STFT. Raises
    EmptyInput on an empty sequence and TransformTooLarge when N would exceed
    MAX_FULL_FFT.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyInput("cannot transform an empty signal")
    n = next_pow2(x.size)
    if n > MAX_FULL_FFT:
        raise TransformTooLarge(
            f"{x.size} samples need a {n}-point transform, above the full-mode cap of {MAX_FULL_FFT}; use --mode stft"
        )
    return Spectrum(half=np.fft.rfft(x, n), n_fft=n, sample_rate_hz=sample_rate_hz)


def _pick_peaks(mag: np.ndarray, rel_threshold: float):
    """Peaks of each row of half spectra (columns 0..N/2) at or above the row's relative threshold.

    A peak is a column strictly above its left neighbour whose next change
    to the right, within its row, is a descent: a plateau counts once, at its
    lowest column, and the first and last columns are never peaks. Only the
    candidates, the columns at or above rel_threshold * row_max, can be peaks.
    Where more than _ROWS_SHARE of the columns are candidates (broadband
    noise) every column is tested with whole-row slices, and otherwise (a
    melody's STFT) only the candidates are; both give the same peaks.
    Returns (flat, row_max): flat indexes mag.ravel() in ascending order;
    row_max is the maximum over columns [1, N/2), where peaks lie.
    """
    row_max = mag[:, 1:-1].max(axis=1, initial=0.0)
    above = mag >= rel_threshold * row_max[:, None]
    above[:, 0] = above[:, -1] = False
    test = _test_rows if np.count_nonzero(above) > _ROWS_SHARE * above.size else _test_candidates
    return test(mag, above), row_max


# _pick_peaks tests every column with row slices once more than this share of them are candidates
_ROWS_SHARE = 1 / 8


def _test_candidates(mag: np.ndarray, above: np.ndarray) -> np.ndarray:
    """_pick_peaks's peaks, from the candidates `above` alone."""
    # each candidate's left neighbour, itself and its right neighbour are
    # flat[c], flat[1:][c] and flat[2:][c] for c = its index - 1: three gathers
    # with no index temporaries
    c = np.flatnonzero(above)
    c -= 1
    flat = mag.ravel()
    value = flat[1:][c]
    rise = value > flat[c]
    right = flat[2:][c]
    peak = rise & (right < value)
    plateau = rise & (right == value)
    c += 1
    if plateau.any():
        peak[plateau] = _plateau_peaks(flat, c[plateau], mag.shape[1])
    return c[peak]


def _test_rows(mag: np.ndarray, above: np.ndarray) -> np.ndarray:
    """_pick_peaks's peaks, with every column tested against its neighbours by row slices."""
    value = mag[:, 1:-1]
    rise = value > mag[:, :-2]
    rise &= above[:, 1:-1]
    right = mag[:, 2:]
    peak = np.zeros_like(above)
    peak[:, 1:-1] = rise & (right < value)
    plateau = np.zeros_like(above)
    plateau[:, 1:-1] = rise & (right == value)
    p = np.flatnonzero(plateau)
    if p.size:
        peak.ravel()[p] = _plateau_peaks(mag.ravel(), p, mag.shape[1])
    return np.flatnonzero(peak)


def _plateau_peaks(flat: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """Whether each plateau start p, a column above its left neighbour and equal
    to its right one in rows of n columns, is a peak.

    A plateau starting at p ends before the first k >= p + 2 whose magnitude
    differs from the one before it (flat.size if none): p is a peak iff that k
    is still in p's row and is lower.
    """
    changes = np.append(np.flatnonzero(flat[1:] != flat[:-1]) + 1, flat.size)
    k = changes[np.searchsorted(changes, p + 2)]
    in_row = k < (p // n + 1) * n
    return in_row & (flat[np.where(in_row, k, p)] < flat[p])


def _floored_sequence(k, m, top, params, sample_rate_hz, n_fft) -> FrequencySequence:
    """Bins k, of magnitudes m, that reach params.floor_db below top, in Hz: k * (fs / N), bit for bit."""
    keep = m >= top * 10.0 ** (params.floor_db / 20.0)
    return FrequencySequence(values_hz=k[keep].astype(np.float64) * (sample_rate_hz / n_fft), extraction_params=params)


def extract_sequence_full(spectrum: Spectrum, params: PeakParams | None = None) -> FrequencySequence:
    """Peak frequencies of a whole-signal spectrum, ascending in Hz.

    Candidates are strict local maxima of |y[k]| for k in [1, N/2) passing
    both the relative and dB floors (measured against the maximum over that
    same positive-frequency range). Silence yields an empty sequence.
    Because the peaks ascend, build_network joins only neighbouring occupied
    bins, so a full-mode network is a path: N - 1 edges, no degree above 2.
    """
    params = params or PeakParams()
    mag = np.abs(spectrum.half)
    peaks, top = _pick_peaks(mag[None, :], params.rel_threshold)
    return _floored_sequence(peaks, mag[peaks], top[0], params, spectrum.sample_rate_hz, spectrum.n_fft)


def extract_sequence_stft(audio: AudioBuffer, params: PeakParams | None = None) -> FrequencySequence:
    """Time-ordered frequency sequence: each frame's peaks, frame by frame, in one array.

    Hann-windowed frames at the configured hop; only complete frames are
    taken, except that a signal shorter than one frame is zero-padded to a
    single frame. Each frame keeps at most top_k strict local maxima passing
    the per-frame relative threshold and the global dB floor, in descending
    magnitude (lower bin first on ties).
    """
    params = params or PeakParams()
    if len(audio) == 0:
        raise EmptyInput("cannot analyze an empty buffer")
    size, hop = params.frame_size, params.hop
    x = audio.samples
    if x.size < size:
        x = np.concatenate([x, np.zeros(size - x.size)])
    frames = sliding_window_view(x, size)[::hop]
    window = np.hanning(size)

    global_max = 0.0
    bins, mags = [], []  # per frame, its top_k peaks, strongest first
    for start in range(0, len(frames), _CHUNK_FRAMES):
        mag = np.abs(np.fft.rfft(frames[start : start + _CHUNK_FRAMES] * window, axis=-1))
        peaks, frame_max = _pick_peaks(mag, params.rel_threshold)
        global_max = max(global_max, frame_max.max())
        r, k = np.divmod(peaks, mag.shape[1])
        m = mag.ravel()[peaks]
        # descending magnitude, lower bin first on ties
        order = np.lexsort((k, -m, r))
        r, k, m = r[order], k[order], m[order]
        top = np.arange(r.size) - np.searchsorted(r, r) < params.top_k
        bins.append(k[top])
        mags.append(m[top])
    # the floor only removes a frame's weakest peaks, so applying it after the
    # top_k cut keeps the same set as applying it before
    return _floored_sequence(np.concatenate(bins), np.concatenate(mags), global_max, params, audio.sample_rate_hz, size)
