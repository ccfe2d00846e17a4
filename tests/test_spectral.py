import numpy as np
import pytest

from conftest import sine, tone_buffer
from soundnet import spectral
from soundnet.audio_io import AudioBuffer
from soundnet.errors import EmptyInput
from soundnet.selftest import naive_dft


def test_dft_dc_only():
    spec = spectral.dft([1.0, 1.0, 1.0, 1.0])
    assert spec.n_fft == 4
    assert np.allclose(spec.bins, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_dft_single_bin_cosine():
    x = np.cos(2.0 * np.pi * np.arange(8) / 8)
    mag = np.abs(spectral.dft(x).bins)
    expected = np.zeros(8)
    expected[1] = expected[7] = 4.0
    assert np.max(np.abs(mag - expected)) < 1e-9


def test_dft_matches_naive_summation(rng):
    x = rng.standard_normal(1024)
    got = spectral.dft(x).bins
    want = naive_dft(x)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9


def test_dft_zero_pads_to_power_of_two(rng):
    x = rng.standard_normal(300)
    spec = spectral.dft(x, 1000.0)
    assert spec.n_fft == 512
    padded = np.zeros(512)
    padded[:300] = x
    assert np.max(np.abs(spec.bins - naive_dft(padded))) < 1e-6
    assert spec.bin_hz(256) == 500.0


def test_dft_empty_input():
    with pytest.raises(EmptyInput):
        spectral.dft([])


def test_dft_linearity(rng):
    x = rng.standard_normal(256)
    z = rng.standard_normal(256)
    a, b = 1.7, -0.4
    lhs = spectral.dft(a * x + b * z).bins
    rhs = a * spectral.dft(x).bins + b * spectral.dft(z).bins
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-9


def test_conjugate_symmetry_and_parseval(rng):
    for n in (64, 500, 1024):
        x = rng.standard_normal(n)
        spec = spectral.dft(x)
        y = spec.bins
        sym_err = np.abs(y[1:] - np.conj(y[1:][::-1]))
        assert np.max(sym_err) / np.max(np.abs(y)) < 1e-9
        energy_time = np.sum(x * x)
        energy_freq = np.sum(np.abs(y) ** 2) / spec.n_fft
        assert abs(energy_time - energy_freq) / energy_time < 1e-6


def test_full_extraction_pure_tone():
    fs = 44100
    n = 2**17
    x = np.sin(2.0 * np.pi * 440.0 * np.arange(n) / fs)
    seq = spectral.extract_sequence_full(spectral.dft(x, fs))
    assert len(seq) == 1
    # nearest-bin oracle: bin width fs/N, so error is at most half a bin
    assert abs(seq.values_hz[0] - 440.0) <= 0.5 * fs / n + 1e-12
    assert abs(seq.values_hz[0] - 440.0) <= 0.17


def test_full_extraction_reports_bin_hz_bit_for_bit():
    # at 44.1 kHz, N = 1000 and k = 9, k * rate / N and k * (rate / N) differ in
    # the last bit; the sequence and bin_hz share the second form
    rate, n, k = 44100.0, 1000, 9
    assert k * rate / n != k * (rate / n)
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[k] = 1.0
    spectrum = spectral.Spectrum(half=half, n_fft=n, sample_rate_hz=rate)
    seq = spectral.extract_sequence_full(spectrum)
    assert seq.values_hz.tolist() == [spectrum.bin_hz(k)] == [k * (rate / n)]


def test_full_extraction_silence():
    seq = spectral.extract_sequence_full(spectral.dft(np.zeros(2048), 8000))
    assert len(seq) == 0


def test_full_extraction_two_tones_ascending():
    fs = 44100
    n = 2**17
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 220.0 * t) + np.sin(2 * np.pi * 660.0 * t)
    seq = spectral.extract_sequence_full(spectral.dft(x, fs))
    assert len(seq) == 2
    assert abs(seq.values_hz[0] - 220.0) <= 0.17
    assert abs(seq.values_hz[1] - 660.0) <= 0.17
    assert list(seq.values_hz) == sorted(seq.values_hz)


def test_full_extraction_strictly_increasing(rng):
    fs = 8000
    t = np.arange(2**14) / fs
    x = sum(np.sin(2 * np.pi * f * t) for f in (150.0, 300.0, 1234.0, 2100.0))
    seq = spectral.extract_sequence_full(spectral.dft(x, fs))
    assert np.all(np.diff(seq.values_hz) > 0)
    assert np.all((seq.values_hz > 0) & (seq.values_hz < fs / 2))


def test_stft_pure_tone_within_one_bin():
    buf = tone_buffer(440.0, 3.0, 44100)
    seq = spectral.extract_sequence_stft(buf)
    assert len(seq) > 0
    bin_width = 44100 / 4096
    assert np.all(np.abs(seq.values_hz - 440.0) <= bin_width)


def test_stft_step_frequency_transition():
    fs = 44100
    first = sine(220.0, 1.5, fs)
    second = sine(880.0, 1.5, fs)
    buf = AudioBuffer(samples=np.concatenate([first, second]), sample_rate_hz=fs)
    frames = spectral.stft_peak_frames(buf)
    bin_width = fs / 4096
    mixed = 0
    for values in frames:
        near_low = np.abs(values - 220.0) <= bin_width
        near_high = np.abs(values - 880.0) <= bin_width
        assert np.all(near_low | near_high)
        if near_low.any() and near_high.any():
            mixed += 1
    assert mixed <= 2
    # time order: first frames low, last frames high
    assert np.all(np.abs(frames[0] - 220.0) <= bin_width)
    assert np.all(np.abs(frames[-1] - 880.0) <= bin_width)


def test_stft_silence_empty():
    buf = AudioBuffer(samples=np.zeros(44100), sample_rate_hz=44100)
    assert len(spectral.extract_sequence_stft(buf)) == 0


def test_stft_short_signal_zero_padded_to_one_frame():
    buf = tone_buffer(1000.0, 0.01, 8000)  # 80 samples < frame_size
    params = spectral.PeakParams(frame_size=256, hop=128)
    frames = spectral.stft_peak_frames(buf, params)
    assert len(frames) == 1
    tiny = AudioBuffer(samples=buf.samples[:50], sample_rate_hz=8000)
    assert len(spectral.stft_peak_frames(tiny, params)) == 1


def test_stft_values_are_exact_bin_centers():
    buf = tone_buffer(440.0, 1.0, 44100)
    seq = spectral.extract_sequence_stft(buf)
    k = seq.values_hz * 4096 / 44100
    assert np.allclose(k, np.round(k), atol=1e-9)
    again = spectral.extract_sequence_stft(buf)
    assert np.array_equal(seq.values_hz, again.values_hz)


def test_stft_top_k_and_frame_order(rng):
    fs = 8000
    t = np.arange(fs) / fs
    x = sum(a * np.sin(2 * np.pi * f * t) for a, f in [(1.0, 400.0), (0.8, 900.0), (0.6, 1700.0)])
    params = spectral.PeakParams(frame_size=1024, hop=512, top_k=2)
    frames = spectral.stft_peak_frames(AudioBuffer(samples=x, sample_rate_hz=fs), params)
    for values in frames:
        assert len(values) <= 2
    full = spectral.extract_sequence_stft(AudioBuffer(samples=x, sample_rate_hz=fs), params)
    assert np.array_equal(full.values_hz, np.concatenate(frames))


def test_peak_params_validation():
    with pytest.raises(ValueError):
        spectral.PeakParams(frame_size=1000)
    with pytest.raises(ValueError):
        spectral.PeakParams(hop=8192)
    with pytest.raises(ValueError):
        spectral.PeakParams(rel_threshold=0.0)
    with pytest.raises(ValueError):
        spectral.PeakParams(floor_db=3.0)


def test_local_maxima_plateau_lowest_index():
    mag = np.array([0.0, 1.0, 5.0, 5.0, 5.0, 2.0, 0.0])
    peaks = spectral._pick_peaks(mag[None, :], 1e-300)[0]
    assert list(peaks) == [2]
    rising = np.array([0.0, 2.0, 2.0, 3.0, 1.0])
    assert list(spectral._pick_peaks(rising[None, :], 1e-300)[0]) == [3]


def test_plateau_running_into_the_next_row_is_no_peak():
    # row 0 ends on a plateau; the first change after it is the next row's
    # lower first column, which must not count as its descent
    mag = np.array([[0.0, 1.0, 2.0, 2.0], [0.0, 5.0, 1.0, 0.0]])
    peaks, _ = spectral._pick_peaks(mag, 1e-300)
    assert peaks.tolist() == [mag.shape[1] + 1]  # row 1, column 1
