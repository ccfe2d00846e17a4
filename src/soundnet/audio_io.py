"""WAV decoding into normalized mono sample buffers.

Supports RIFF/WAVE with integer PCM (16/24/32 bit) and IEEE float (32/64 bit)
payloads, 1 or 2 channels. Everything else is rejected explicitly rather than
guessed at.

Decoding never copies the data chunk: the chunks are parsed over a memoryview
of the file bytes, and the samples are read through numpy views over those
same bytes. A decode holds the file bytes plus the float64 result and at most
one integer or float64 intermediate, about 3 times the payload for 24-bit
stereo and float32 mono files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptHeader, EmptyAudio, NonFiniteSamples, UnsupportedFormat

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
# RIFF/data size written by streaming encoders (piped ffmpeg, sox) that cannot seek back
_STREAMING_SIZE = 0xFFFFFFFF


@dataclass(frozen=True)
class AudioBuffer:
    """Decoded mono audio: float64 samples in [-1, 1] plus the native rate."""

    samples: np.ndarray
    sample_rate_hz: int
    duration_s: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "duration_s", len(self.samples) / self.sample_rate_hz)
        self.samples.setflags(write=False)

    def __len__(self):
        return len(self.samples)


def decode_wav(path) -> AudioBuffer:
    """Decode a WAV file to a mono AudioBuffer.

    Multi-channel input is downmixed by per-frame arithmetic mean; integer
    samples are scaled by 2^(bits-1) so the most negative code maps to -1.0.

    Raises UnsupportedFormat, CorruptHeader, EmptyAudio or NonFiniteSamples.
    """
    data = Path(path).read_bytes()
    fmt, raw, offset = _parse_riff(data)
    if len(raw) % (fmt.bits // 8 * fmt.channels) != 0:
        raise CorruptHeader("data chunk size is not a whole number of frames")
    if not raw:
        raise EmptyAudio(f"{path}: data chunk holds zero frames")
    if fmt.format_code == _FORMAT_IEEE_FLOAT:
        values = np.frombuffer(raw, dtype="<f4" if fmt.bits == 32 else "<f8")
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise NonFiniteSamples(f"{path}: {bad} non-finite (NaN or infinite) samples")
        if fmt.channels > 1:
            samples = values.reshape(-1, fmt.channels).mean(axis=1, dtype=np.float64)
        else:
            samples = values.astype(np.float64)
        np.clip(samples, -1.0, 1.0, out=samples)
    else:
        samples = _decode_pcm(data, offset, len(raw), fmt)
    return AudioBuffer(samples=samples, sample_rate_hz=fmt.sample_rate)


def write_wav_float32(path, samples, sample_rate_hz: int) -> None:
    """Write mono samples as a 32-bit IEEE float WAV (lossless for float32 data)."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    _write_wav(path, payload, sample_rate_hz, format_code=_FORMAT_IEEE_FLOAT, bits=32)


def write_wav_int16(path, samples, sample_rate_hz: int) -> None:
    """Write mono samples as 16-bit PCM, clipping to [-1, 1] first."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    codes = np.round(clipped * 32767.0).astype("<i2")
    _write_wav(path, codes.tobytes(), sample_rate_hz, format_code=_FORMAT_PCM, bits=16)


@dataclass(frozen=True)
class _FmtChunk:
    format_code: int
    channels: int
    sample_rate: int
    bits: int


def _parse_riff(data: bytes):
    """(fmt, data chunk body as a memoryview of `data`, offset of that body in `data`)."""
    if len(data) < 12:
        raise CorruptHeader("file shorter than a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader("missing RIFF/WAVE magic")
    riff_size = struct.unpack_from("<I", data, 4)[0]
    if riff_size != _STREAMING_SIZE and riff_size + 8 > len(data):
        raise CorruptHeader("RIFF size exceeds file length")

    view = memoryview(data)
    fmt = None
    raw = None
    offset = 0
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        size = struct.unpack_from("<I", data, pos + 4)[0]
        body_start = pos + 8
        if cid == b"data" and size == _STREAMING_SIZE and fmt is not None:
            # written before the length was known: the data runs to the end of
            # the file, cut to whole frames
            frame = fmt.bits // 8 * fmt.channels
            raw, offset = view[body_start : body_start + (len(data) - body_start) // frame * frame], body_start
            break
        if body_start + size > len(data):
            raise CorruptHeader(f"chunk {cid!r} overruns file end")
        if cid == b"fmt ":
            fmt = _parse_fmt(view[body_start : body_start + size])
        elif cid == b"data":
            raw, offset = view[body_start : body_start + size], body_start
        # chunks are word-aligned: odd sizes carry one pad byte
        pos = body_start + size + (size & 1)

    if fmt is None:
        raise CorruptHeader("no fmt chunk")
    if raw is None:
        raise CorruptHeader("no data chunk")
    return fmt, raw, offset


def _parse_fmt(body) -> _FmtChunk:
    if len(body) < 16:
        raise CorruptHeader("fmt chunk shorter than 16 bytes")
    code, channels, rate, _byte_rate, _block, bits = struct.unpack_from("<HHIIHH", body, 0)
    if code == _FORMAT_EXTENSIBLE:
        # WAVE_FORMAT_EXTENSIBLE: actual code is the first word of the GUID
        if len(body) < 40:
            raise CorruptHeader("extensible fmt chunk truncated")
        code = struct.unpack_from("<H", body, 24)[0]
    if code not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"compression code 0x{code:04x} is not PCM or IEEE float")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{channels} channels (only mono/stereo supported)")
    if rate <= 0:
        raise CorruptHeader("non-positive sample rate")
    if code == _FORMAT_PCM and bits not in (16, 24, 32):
        raise UnsupportedFormat(f"{bits}-bit integer PCM not supported")
    if code == _FORMAT_IEEE_FLOAT and bits not in (32, 64):
        raise UnsupportedFormat(f"{bits}-bit float not supported")
    return _FmtChunk(format_code=code, channels=channels, sample_rate=rate, bits=bits)


def _decode_pcm(data: bytes, offset: int, length: int, fmt: _FmtChunk) -> np.ndarray:
    """Integer PCM codes of data[offset : offset + length] as mono float64 in [-1, 1).

    The two codes of a stereo frame are summed in an integer type wide enough
    for the sum and scaled once by 2^bits. Every step is exact, so the result
    equals the mean of the separately scaled channels bit for bit.
    """
    if fmt.bits == 24:
        # read each 3-byte code as the top three bytes of a little-endian int32
        # that starts one byte early (the data chunk's header always precedes
        # it); the arithmetic shift drops that borrowed low byte and sign-extends
        codes = np.ndarray((length // 3,), dtype="<i4", buffer=data, offset=offset - 1, strides=(3,)) >> 8
    else:
        dtype = "<i2" if fmt.bits == 16 else "<i4"
        codes = np.frombuffer(data, dtype=dtype, count=length // np.dtype(dtype).itemsize, offset=offset)
    if fmt.channels == 2:
        codes = np.add(codes[0::2], codes[1::2], dtype=np.int64 if fmt.bits == 32 else np.int32)
    return codes / float(2 ** (fmt.bits - 1) * fmt.channels)


def _write_wav(path, payload: bytes, rate: int, format_code: int, bits: int) -> None:
    width = bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, format_code, 1, rate, rate * width, width, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    Path(path).write_bytes(header + payload)
