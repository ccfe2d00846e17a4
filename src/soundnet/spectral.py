"""Spectral decomposition and frequency-sequence extraction.

The transform is numpy.fft (pocketfft) on inputs zero-padded to the next
power of two, checked against a direct quadratic summation in the self-test
suite. Peak frequencies are always exact bin centers k*fs/N, so every
downstream artifact is bit-reproducible; the bin width is the documented
accuracy bound.

The STFT is one flat pass over the signal. Frames are strided views of the
samples; each chunk of frames is windowed, transformed and turned into
magnitudes in three buffers allocated once per call, and the peaks of the
chunk are picked candidate-first: only the bins at or above their frame's
relative threshold are tested, for a strict rise and then a strict fall or,
where a plateau starts, a fall at its next change within the frame. The
whole-signal spectrum of the full mode uses the same picker.

The full mode keeps only the non-negative-frequency half of its transform
(the rfft half); Spectrum.bins builds the conjugate mirror on demand. Its
transform size is capped at MAX_FULL_FFT = 2^26 points (about 25 minutes at
44.1 kHz). The transform and the peak picking then take about 1.6 GiB on
broadband noise (25.5 bytes per point, traced at 2^19 points); longer
signals raise TransformTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer
from .errors import EmptyInput, TransformTooLarge

# STFT frames per rfft batch, chosen by measurement: on 60 s melodies at frame
# size 4096, 64 frames per chunk beat 256. A chunk's working set is at most
# about 35 * frame_size bytes per frame, reached when nearly every bin is a
# peak candidate (noise, silence): 8.7 MiB at 4096, 140 MiB at MAX_FRAME_SIZE.
_CHUNK_FRAMES = 64
MAX_FRAME_SIZE = 1 << 16
MAX_FULL_FFT = 1 << 26


@dataclass(frozen=True)
class PeakParams:
    """Tunables for spectral peak extraction.

    frame_size is a power of two from 2 to MAX_FRAME_SIZE (2^16), which bounds
    the STFT's working set at about 140 MiB whatever the signal's length
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
    """DFT of a real signal, held as its bins 0..N/2 (the rfft half)."""

    half: np.ndarray
    n_fft: int
    sample_rate_hz: float

    @property
    def bins(self) -> np.ndarray:
        """All N complex bins: the half, then the conjugate mirror of bins N/2-1 down to 1."""
        return np.concatenate([self.half, np.conj(self.half[-2:0:-1])])

    def bin_hz(self, k):
        """The frequency of bin k (a number or an array) in Hz."""
        return k * (self.sample_rate_hz / self.n_fft)


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
    candidates, the columns at or above rel_threshold * row_max, are tested.
    Returns (flat, row_max): flat indexes mag.ravel() in ascending order;
    row_max is the maximum over columns [1, N/2), where peaks lie.
    """
    n = mag.shape[1]
    row_max = mag[:, 1:-1].max(axis=1, initial=0.0)
    above = mag >= rel_threshold * row_max[:, None]
    above[:, 0] = above[:, -1] = False
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
        # a plateau starting at p ends before the first k >= p + 2 whose
        # magnitude differs from the one before it (flat.size if none): p is a
        # peak iff that k is still in p's row and is lower
        p = c[plateau]
        changes = np.append(np.flatnonzero(flat[1:] != flat[:-1]) + 1, flat.size)
        k = changes[np.searchsorted(changes, p + 2)]
        in_row = k < (p // n + 1) * n
        peak[plateau] = in_row & (flat[np.where(in_row, k, p)] < flat[p])
    return c[peak], row_max


def extract_sequence_full(spectrum: Spectrum, params: PeakParams | None = None) -> FrequencySequence:
    """Peak frequencies of a whole-signal spectrum, ascending in Hz.

    Candidates are strict local maxima of |y[k]| for k in [1, N/2) passing
    both the relative and dB floors (measured against the maximum over that
    same positive-frequency range). Silence yields an empty sequence.
    """
    params = params or PeakParams()
    mag = np.abs(spectrum.half)
    peaks, top = _pick_peaks(mag[None, :], params.rel_threshold)
    peaks = peaks[mag[peaks] >= top[0] * 10.0 ** (params.floor_db / 20.0)]
    return FrequencySequence(values_hz=spectrum.bin_hz(peaks.astype(np.float64)), extraction_params=params)


def hann_window(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def _stft_peaks(audio: AudioBuffer, params: PeakParams):
    """(values, counts): every frame's kept peak frequencies in one flat array, frame
    by frame, and the number each frame kept. See stft_peak_frames."""
    if len(audio) == 0:
        raise EmptyInput("cannot analyze an empty buffer")
    size, hop = params.frame_size, params.hop
    x = audio.samples
    if x.size < size:
        x = np.concatenate([x, np.zeros(size - x.size)])
    frames = sliding_window_view(x, size)[::hop]
    window = hann_window(size)
    chunk = min(_CHUNK_FRAMES, len(frames))
    windowed = np.empty((chunk, size))
    spectrum = np.empty((chunk, size // 2 + 1), dtype=np.complex128)
    magnitude = np.empty((chunk, size // 2 + 1))

    global_max = 0.0
    rows, bins, mags = [], [], []  # per frame, its top_k peaks, strongest first
    for start in range(0, len(frames), chunk):
        block = frames[start : start + chunk]
        win, spec, mag = (buf[: len(block)] for buf in (windowed, spectrum, magnitude))
        np.multiply(block, window, out=win)
        np.fft.rfft(win, axis=-1, out=spec)
        np.abs(spec, out=mag)
        peaks, frame_max = _pick_peaks(mag, params.rel_threshold)
        global_max = max(global_max, frame_max.max())
        r, k = np.divmod(peaks, mag.shape[1])
        m = mag.ravel()[peaks]
        # descending magnitude, lower bin first on ties
        order = np.lexsort((k, -m, r))
        r, k, m = r[order], k[order], m[order]
        top = np.arange(r.size) - np.searchsorted(r, r) < params.top_k
        rows.append(r[top] + start)
        bins.append(k[top])
        mags.append(m[top])
    row, k, m = (np.concatenate(a) for a in (rows, bins, mags))
    # the floor only removes a frame's weakest peaks, so applying it after the
    # top_k cut keeps the same set as applying it before
    keep = m >= global_max * 10.0 ** (params.floor_db / 20.0)
    values = k[keep].astype(np.float64) * (audio.sample_rate_hz / size)
    return values, np.bincount(row[keep], minlength=len(frames))


def stft_peak_frames(audio: AudioBuffer, params: PeakParams | None = None) -> list[np.ndarray]:
    """Per-frame peak frequencies (descending magnitude within each frame).

    Hann-windowed frames at the configured hop; only complete frames are
    taken, except that a signal shorter than one frame is zero-padded to a
    single frame. Each frame keeps at most top_k strict local maxima passing
    the per-frame relative threshold and the global dB floor.
    """
    values, counts = _stft_peaks(audio, params or PeakParams())
    return np.split(values, np.cumsum(counts)[:-1])


def extract_sequence_stft(audio: AudioBuffer, params: PeakParams | None = None) -> FrequencySequence:
    """Time-ordered frequency sequence: the stft_peak_frames peaks, frame by frame, in one array."""
    params = params or PeakParams()
    values, _counts = _stft_peaks(audio, params)
    return FrequencySequence(values_hz=values, extraction_params=params)
