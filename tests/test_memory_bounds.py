"""Memory bounds of the decode, STFT and full-mode front end, measured with tracemalloc.

numpy reports its buffers to tracemalloc, so the traced peak counts every
array a call makes, deterministically and without touching the process's
resident size.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import wav_bytes
from soundnet import spectral
from soundnet.audio_io import AudioBuffer, decode_wav
from soundnet.errors import TransformTooLarge

RATE = 44100


def traced_peak(call, *args):
    """Bytes allocated at the peak of call(*args) above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def melody(seconds, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(RATE // 4) / RATE
    notes = [0.5 * np.sin(2.0 * np.pi * (60.0 + rng.exponential(350.0)) * t) for _ in range(int(seconds * 4))]
    return np.concatenate(notes)


def pcm24_stereo(x):
    codes = np.round(np.column_stack([x, 0.5 * x]) * (2**23 - 1)).astype("<i4")
    return codes.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


@pytest.mark.parametrize(
    "payload, channels, bits, format_code",
    [
        (pcm24_stereo(melody(5.0)), 2, 24, 1),
        (melody(5.0).astype("<f4").tobytes(), 1, 32, 3),
    ],
    ids=["pcm24_stereo", "float32_mono"],
)
def test_decode_peak_under_3_5_payloads(tmp_path, payload, channels, bits, format_code):
    path = tmp_path / "x.wav"
    path.write_bytes(wav_bytes(payload, channels=channels, rate=RATE, bits=bits, format_code=format_code))
    # the file bytes, the float64 result and at most one intermediate; the data
    # chunk itself is never copied
    assert traced_peak(decode_wav, path) < 3.5 * len(payload)


def test_stft_extra_peak_does_not_grow_with_signal_length():
    short, long = (AudioBuffer(samples=melody(s, seed=1), sample_rate_hz=RATE) for s in (10.0, 60.0))
    peak_short = traced_peak(spectral.extract_sequence_stft, short)
    peak_long = traced_peak(spectral.extract_sequence_stft, long)
    assert peak_long < 1.1 * peak_short


@pytest.mark.parametrize("kind", ["noise", "silence"])
def test_stft_chunk_working_set_within_documented_bound(kind):
    # nearly every bin of noise, and every bin of silence, is a peak candidate
    size = 4096
    n = size * (spectral._CHUNK_FRAMES + 8)
    x = np.random.default_rng(2).standard_normal(n) if kind == "noise" else np.zeros(n)
    audio = AudioBuffer(samples=x, sample_rate_hz=RATE)
    params = spectral.PeakParams(frame_size=size, hop=size)
    assert traced_peak(spectral.extract_sequence_stft, audio, params) < 20 * size * spectral._CHUNK_FRAMES


@pytest.mark.parametrize("frame_size", [2**17, 2**40])
def test_frame_size_above_cap_rejected(frame_size):
    with pytest.raises(ValueError, match="frame_size must be at most 65536"):
        spectral.PeakParams(frame_size=frame_size, hop=1024)
    spectral.PeakParams(frame_size=spectral.MAX_FRAME_SIZE, hop=1024)


def test_full_mode_transform_holds_only_the_rfft_half():
    x = np.random.default_rng(3).standard_normal(300_000)
    spec = spectral.dft(x, RATE)
    n = spec.n_fft
    assert np.array_equal(spec.half, np.fft.rfft(x, n))
    # the half spectrum is 8 n bytes; no conjugate mirror is built
    assert traced_peak(spectral.dft, x) < 9 * n


def test_full_mode_transform_above_cap_rejected():
    # a zero-stride view: the cap is checked before anything is allocated
    with pytest.raises(TransformTooLarge, match="use --mode stft"):
        spectral.dft(np.broadcast_to(0.0, (spectral.MAX_FULL_FFT + 1,)))
