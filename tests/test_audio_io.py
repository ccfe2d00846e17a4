import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float32_payload, pcm16_payload, pcm24_payload, wav_bytes
from soundnet import audio_io
from soundnet.errors import CorruptHeader, EmptyAudio, NonFiniteSamples, SoundnetError, UnsupportedFormat


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
    data = wav_bytes(float32_payload(buf.samples.tolist()), rate=buf.sample_rate_hz, bits=32, format_code=3)
    again = audio_io.decode_wav(write(tmp_path, data, "rt.wav"))
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


@pytest.mark.parametrize("size", [16, 18, 39])
def test_truncated_extensible_fmt_chunk_is_corrupt(tmp_path, size):
    ext = struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
    ext += struct.pack("<HHI", 22, 16, 1) + struct.pack("<HH", 1, 0) + b"\x00" * 12
    ext = ext[:size]
    chunk = b"fmt " + struct.pack("<I", size) + ext + b"\x00" * (size & 1)
    payload = pcm16_payload([0, 100, -100])
    body = b"WAVE" + chunk + b"data" + struct.pack("<I", len(payload)) + payload
    path = write(tmp_path, b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(CorruptHeader, match="extensible fmt chunk truncated"):
        audio_io.decode_wav(path)


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


# --- property tests: random codes and mutated headers ------------------------------

# (format code, bits) -> struct letter of one sample
_LAYOUTS = {(1, 16): "h", (1, 24): None, (1, 32): "i", (3, 32): "f", (3, 64): "d"}


def _payload(values, format_code, bits):
    if bits == 24:
        return pcm24_payload(values)
    return struct.pack(f"<{len(values)}{_LAYOUTS[format_code, bits]}", *values)


def _reference_decode(payload, channels, format_code, bits):
    """Plain per-sample decode: each code to float64 (integers over 2^(bits-1)),
    the mean of each frame's channels, then a clip to [-1, 1]."""
    width = bits // 8
    if format_code == 3:
        letter = "f" if bits == 32 else "d"
        values = [struct.unpack_from(f"<{letter}", payload, i)[0] for i in range(0, len(payload), width)]
        samples = np.asarray(values, dtype=np.float64)
    else:
        codes = [int.from_bytes(payload[i : i + width], "little", signed=True) for i in range(0, len(payload), width)]
        samples = np.asarray(codes, dtype=np.float64) / float(2 ** (bits - 1))
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return np.clip(samples, -1.0, 1.0)


@st.composite
def _wav_case(draw):
    format_code, bits = draw(st.sampled_from(sorted(_LAYOUTS)))
    channels = draw(st.sampled_from([1, 2]))
    if format_code == 1:
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        values = [lo, hi, hi, lo] + draw(st.lists(st.integers(lo, hi), max_size=64))
    else:
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=bits), min_size=1, max_size=64))
    values = values[: len(values) // channels * channels] or values[:1] * channels
    return _payload(values, format_code, bits), channels, format_code, bits


@settings(max_examples=300, deadline=None)
@given(case=_wav_case())
def test_decode_matches_plain_reference_bit_for_bit(tmp_path_factory, case):
    payload, channels, format_code, bits = case
    path = tmp_path_factory.getbasetemp() / "codes.wav"
    path.write_bytes(wav_bytes(payload, channels=channels, bits=bits, format_code=format_code))
    # two float64 codes near the largest double overflow their channel mean to
    # +-inf, which the clip maps to +-1 just as it would the true mean
    with np.errstate(over="ignore"):
        got = audio_io.decode_wav(path).samples
        want = _reference_decode(payload, channels, format_code, bits)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


_VALID = {
    "pcm16": wav_bytes(pcm16_payload(list(range(-40, 40))), channels=2),
    "pcm24": wav_bytes(pcm24_payload(list(range(-60, 60))), bits=24),
    "float32": wav_bytes(float32_payload([0.5, -0.25] * 30), channels=2, bits=32, format_code=3),
}

# (offset, width) of every field of the canonical 44-byte header
_FIELDS = [(0, 4), (4, 4), (8, 4), (12, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2), (36, 4), (40, 4)]


def _check_decode_outcome(path, data):
    """A decode ends in a valid buffer or a SoundnetError, never another exception."""
    path.write_bytes(bytes(data))
    try:
        buf = audio_io.decode_wav(path)
    except SoundnetError:
        return
    assert buf.samples.dtype == np.float64
    assert len(buf) > 0
    assert np.all(np.abs(buf.samples) <= 1.0)


def test_header_field_extremes_raise_only_soundnet_errors(tmp_path):
    for name, valid in _VALID.items():
        for at, width in _FIELDS:
            for value in (0, 1, 2 ** (8 * width) - 1):
                data = bytearray(valid)
                data[at : at + width] = value.to_bytes(width, "little")
                _check_decode_outcome(tmp_path / f"{name}.wav", data)


# an edit overwrites one header field with any value, or one byte anywhere in the header
_EDIT = st.one_of(
    st.tuples(st.sampled_from(_FIELDS), st.integers(0, 2**32 - 1)),
    st.tuples(st.tuples(st.integers(0, 43), st.just(1)), st.integers(0, 255)),
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(_VALID)), edits=st.lists(_EDIT, min_size=1, max_size=6))
def test_mutated_header_raises_only_soundnet_errors(tmp_path_factory, name, edits):
    data = bytearray(_VALID[name])
    for (at, width), value in edits:
        data[at : at + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
    _check_decode_outcome(tmp_path_factory.getbasetemp() / "mutated.wav", data)
