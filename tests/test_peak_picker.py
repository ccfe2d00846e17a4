"""Property tests: the chunked 2-D peak picker against per-frame loop references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from soundnet import spectral
from soundnet.audio_io import AudioBuffer

RATE = 8000


def reference_maxima(row):
    """Strict local maxima by a plain scan: rise into k, hold any plateau, then fall."""
    peaks = []
    for k in range(1, len(row) - 1):
        if not row[k] > row[k - 1]:
            continue
        j = k
        while j + 1 < len(row) and row[j + 1] == row[k]:
            j += 1
        if j + 1 < len(row) and row[j + 1] < row[k]:
            peaks.append(k)
    return np.asarray(peaks, dtype=np.intp)


def reference_frames(audio, params):
    """One spectral.dft per windowed frame, then the thresholds and a stable sort per frame."""
    size, hop, half = params.frame_size, params.hop, params.frame_size // 2
    x = audio.samples
    if x.size < size:
        x = np.concatenate([x, np.zeros(size - x.size)])
    window = spectral.hann_window(size)
    global_max = 0.0
    candidates = []
    for i in range(1 + (x.size - size) // hop):
        mag = np.abs(spectral.dft(x[i * hop : i * hop + size] * window).bins[: half + 1])
        frame_max = mag[1:half].max(initial=0.0)
        global_max = max(global_max, frame_max)
        peaks = reference_maxima(mag)
        peaks = peaks[mag[peaks] >= params.rel_threshold * frame_max]
        candidates.append((peaks, mag[peaks]))
    floor = global_max * 10.0 ** (params.floor_db / 20.0)
    frames = []
    for peaks, mags in candidates:
        peaks, mags = peaks[mags >= floor], mags[mags >= floor]
        order = np.argsort(-mags, kind="stable")[: params.top_k]
        frames.append(peaks[order].astype(np.float64) * (audio.sample_rate_hz / size))
    return frames


def synth(kind, n, seed):
    """Test signals; the coarse and sparse kinds force equal magnitudes and silent frames."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.standard_normal(n)
    if kind == "coarse":
        return rng.integers(-2, 3, size=n) / 4.0
    if kind == "sparse":
        return np.where(rng.random(n) < 0.02, rng.standard_normal(n), 0.0)
    return np.zeros(n)


peak_params = st.builds(
    lambda size, hop_frac, top_k, rel, floor_db: spectral.PeakParams(
        frame_size=size, hop=max(1, int(size * hop_frac)), top_k=top_k, rel_threshold=rel, floor_db=floor_db
    ),
    st.sampled_from([4, 8, 16, 64]),
    st.floats(0.0, 1.0),
    st.integers(1, 6),
    st.floats(0.01, 1.0),
    st.floats(-90.0, 0.0),
)


def assert_frames_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40), elements=st.integers(0, 3)))
def test_peak_mask_matches_1d_picker_row_by_row(mag):
    # below every positive magnitude, every possible peak is a candidate
    peaks, _ = spectral._pick_peaks(mag, 1e-300)
    row, col = np.divmod(peaks, mag.shape[1])
    for r, values in enumerate(mag):
        assert np.array_equal(col[row == r], reference_maxima(values))


@settings(max_examples=150, deadline=None)
@given(
    peak_params,
    st.sampled_from(["noise", "coarse", "sparse", "zeros"]),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
)
def test_stft_matches_per_frame_reference(params, kind, n, seed, chunk):
    audio = AudioBuffer(samples=synth(kind, n, seed), sample_rate_hz=RATE)
    with mock.patch.object(spectral, "_CHUNK_FRAMES", chunk):
        got = spectral.stft_peak_frames(audio, params)
    assert_frames_equal(got, reference_frames(audio, params))


@settings(max_examples=100, deadline=None)
@given(peak_params, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=90))
def test_stft_short_signals_match_reference(params, samples):
    audio = AudioBuffer(samples=np.asarray(samples), sample_rate_hz=RATE)
    assert_frames_equal(spectral.stft_peak_frames(audio, params), reference_frames(audio, params))


@pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 513])
@pytest.mark.parametrize("kind", ["noise", "sparse"])
def test_stft_frame_counts_around_the_chunk_size(n_frames, kind):
    params = spectral.PeakParams(frame_size=16, hop=4, top_k=3)
    audio = AudioBuffer(samples=synth(kind, 16 + 4 * (n_frames - 1) + 3, n_frames), sample_rate_hz=RATE)
    got = spectral.stft_peak_frames(audio, params)
    assert len(got) == n_frames
    assert_frames_equal(got, reference_frames(audio, params))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["noise", "coarse", "sparse", "zeros"]),
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 1.0),
    st.floats(-90.0, 0.0),
)
def test_full_matches_reference(kind, n, seed, rel, floor_db):
    spec = spectral.dft(synth(kind, n, seed), RATE)
    params = spectral.PeakParams(rel_threshold=rel, floor_db=floor_db)
    mag = np.abs(spec.bins[: spec.n_fft // 2 + 1])
    top = mag[1 : spec.n_fft // 2].max(initial=0.0)
    peaks = reference_maxima(mag)
    want = peaks[mag[peaks] >= max(rel * top, top * 10.0 ** (floor_db / 20.0))] * (RATE / spec.n_fft)
    assert np.array_equal(spectral.extract_sequence_full(spec, params).values_hz, want)
