import struct

import numpy as np
import pytest

from conftest import float32_payload, pcm16_payload, pcm24_payload, wav_bytes
from soundnet import audio_io
from soundnet.errors import CorruptHeader, EmptyAudio, NonFiniteSamples, UnsupportedFormat


def write(tmp_path, data, name="x.wav"):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def test_pcm16_constant_scaling(tmp_path):
    # 1 second at 8000 Hz, every sample 16384 -> 0.5 after /32768 scaling
    path = write(tmp_path, wav_bytes(pcm16_payload([16384] * 8000)))
    buf = audio_io.decode_wav(path)
    assert buf.sample_rate_hz == 8000
    assert len(buf) == 8000
    assert np.all(np.abs(buf.samples - 0.5) < 1e-4)
    assert buf.duration_s == len(buf.samples) / buf.sample_rate_hz


def test_stereo_mean_downmix(tmp_path):
    frames = []
    for _ in range(100):
        frames.extend([16384, -16384])  # (+0.5, -0.5) per frame
    path = write(tmp_path, wav_bytes(pcm16_payload(frames), channels=2))
    buf = audio_io.decode_wav(path)
    assert len(buf) == 100
    assert np.all(buf.samples == 0.0)


def test_pcm16_most_negative_hits_minus_one(tmp_path):
    path = write(tmp_path, wav_bytes(pcm16_payload([-32768, 32767])))
    buf = audio_io.decode_wav(path)
    assert buf.samples[0] == -1.0
    assert 0.999 < buf.samples[1] < 1.0


def test_pcm24_full_range_bounds(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.integers(-(2**23), 2**23, size=500).tolist()
    values[0], values[1] = -(2**23), 2**23 - 1
    path = write(tmp_path, wav_bytes(pcm24_payload(values), bits=24))
    buf = audio_io.decode_wav(path)
    assert buf.samples.min() >= -1.0
    assert buf.samples.max() <= 1.0
    assert buf.samples[0] == -1.0
    # independent scaling oracle: the raw codes over 2^23
    assert np.allclose(buf.samples, np.asarray(values) / 2**23)


def test_float32_decode_exact(tmp_path):
    values = [0.25, -0.75, 0.0, 1.0, -1.0]
    path = write(tmp_path, wav_bytes(float32_payload(values), bits=32, format_code=3))
    buf = audio_io.decode_wav(path)
    assert np.array_equal(buf.samples, np.asarray(values, dtype=np.float32).astype(np.float64))


def test_float64_decode(tmp_path):
    values = np.asarray([0.123456789, -0.987654321])
    path = write(tmp_path, wav_bytes(struct.pack("<2d", *values), bits=64, format_code=3))
    buf = audio_io.decode_wav(path)
    assert np.array_equal(buf.samples, values)


def test_decode_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    payload = pcm16_payload(rng.integers(-30000, 30000, size=1000).tolist())
    p1 = write(tmp_path, wav_bytes(payload), "a.wav")
    p2 = write(tmp_path, wav_bytes(payload), "b.wav")
    a = audio_io.decode_wav(p1)
    b = audio_io.decode_wav(p2)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate_hz == b.sample_rate_hz


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    samples = rng.uniform(-1, 1, size=2048).astype(np.float32).astype(np.float64)
    buf = audio_io.AudioBuffer(samples=samples, sample_rate_hz=22050)
    out = tmp_path / "rt.wav"
    audio_io.write_wav_float32(out, buf.samples, buf.sample_rate_hz)
    again = audio_io.decode_wav(out)
    assert again.sample_rate_hz == 22050
    assert np.array_equal(again.samples, buf.samples)


def test_extensible_header_resolves_subformat(tmp_path):
    # WAVE_FORMAT_EXTENSIBLE wrapping PCM: code taken from the GUID prefix
    ext = struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
    ext += struct.pack("<HHI", 22, 16, 1) + struct.pack("<HH", 1, 0) + b"\x00" * 12
    chunk = b"fmt " + struct.pack("<I", len(ext)) + ext
    payload = pcm16_payload([0, 100, -100])
    body = b"WAVE" + chunk + b"data" + struct.pack("<I", len(payload)) + payload
    path = write(tmp_path, b"RIFF" + struct.pack("<I", len(body)) + body)
    buf = audio_io.decode_wav(path)
    assert len(buf) == 3


def test_unsupported_codec(tmp_path):
    path = write(tmp_path, wav_bytes(pcm16_payload([1, 2]), format_code=0x55))  # mp3
    with pytest.raises(UnsupportedFormat):
        audio_io.decode_wav(path)


def test_unsupported_bit_depth(tmp_path):
    payload = bytes([128, 127, 129])
    path = write(tmp_path, wav_bytes(payload, bits=8))
    with pytest.raises(UnsupportedFormat):
        audio_io.decode_wav(path)


def test_three_channels_rejected(tmp_path):
    path = write(tmp_path, wav_bytes(pcm16_payload([0] * 6), channels=3))
    with pytest.raises(UnsupportedFormat):
        audio_io.decode_wav(path)


def test_corrupt_magic(tmp_path):
    path = write(tmp_path, b"JUNK" + b"\x00" * 60)
    with pytest.raises(CorruptHeader):
        audio_io.decode_wav(path)


def test_corrupt_chunk_overrun(tmp_path):
    good = wav_bytes(pcm16_payload([1, 2, 3, 4]))
    # inflate the data chunk size so it overruns the file
    broken = bytearray(good)
    broken[-12:-8] = struct.pack("<I", 9999)
    path = write(tmp_path, bytes(broken[:-8]))
    with pytest.raises(CorruptHeader):
        audio_io.decode_wav(path)


def test_missing_data_chunk(tmp_path):
    fmt = b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVE" + fmt
    path = write(tmp_path, b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(CorruptHeader):
        audio_io.decode_wav(path)


def test_empty_audio(tmp_path):
    path = write(tmp_path, wav_bytes(b""))
    with pytest.raises(EmptyAudio):
        audio_io.decode_wav(path)


def test_ragged_data_chunk(tmp_path):
    path = write(tmp_path, wav_bytes(pcm16_payload([1, 2, 3]) + b"\x01"))
    with pytest.raises(CorruptHeader):
        audio_io.decode_wav(path)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_float_samples_rejected(tmp_path, bits, bad):
    values = [0.25, bad, -0.5, bad, 0.0, 0.0]
    payload = struct.pack(f"<{len(values)}{'f' if bits == 32 else 'd'}", *values)
    path = write(tmp_path, wav_bytes(payload, channels=2, bits=bits, format_code=3))
    with pytest.raises(NonFiniteSamples, match="2 non-finite"):
        audio_io.decode_wav(path)


def _streaming_sizes(canonical: bytes, riff: bool, data: bool) -> bytes:
    """The canonical file with its RIFF and/or data size replaced by the 0xFFFFFFFF placeholder."""
    out = bytearray(canonical)
    if riff:
        out[4:8] = b"\xff" * 4
    if data:
        at = out.index(b"data") + 4
        out[at : at + 4] = b"\xff" * 4
    return bytes(out)


@pytest.mark.parametrize("riff, data", [(True, False), (False, True), (True, True)])
def test_streaming_placeholder_sizes_decode_like_canonical(tmp_path, riff, data):
    rng = np.random.default_rng(7)
    canonical = wav_bytes(pcm16_payload(rng.integers(-30000, 30000, size=600).tolist()), channels=2)
    want = audio_io.decode_wav(write(tmp_path, canonical, "canonical.wav"))
    streamed = write(tmp_path, _streaming_sizes(canonical, riff, data), "streamed.wav")
    got = audio_io.decode_wav(streamed)
    assert got.sample_rate_hz == want.sample_rate_hz
    assert np.array_equal(got.samples, want.samples)


def test_streaming_data_size_clamps_to_whole_frames(tmp_path):
    canonical = wav_bytes(pcm24_payload(list(range(-300, 300))), channels=2, bits=24)
    want = audio_io.decode_wav(write(tmp_path, canonical, "canonical.wav"))
    # a partial frame at the end (5 of 6 bytes) is dropped, not decoded
    streamed = _streaming_sizes(canonical, riff=True, data=True) + b"\x01\x02\x03\x04\x05"
    got = audio_io.decode_wav(write(tmp_path, streamed, "streamed.wav"))
    assert np.array_equal(got.samples, want.samples)


def test_truncated_canonical_header_still_corrupt(tmp_path):
    canonical = wav_bytes(pcm16_payload(list(range(100))))
    with pytest.raises(CorruptHeader):
        audio_io.decode_wav(write(tmp_path, canonical[:-20], "cut.wav"))
    # a placeholder RIFF size does not excuse a data chunk that overruns the file
    riff_only = _streaming_sizes(canonical, riff=True, data=False)[:-20]
    with pytest.raises(CorruptHeader):
        audio_io.decode_wav(write(tmp_path, riff_only, "cut_riff.wav"))
