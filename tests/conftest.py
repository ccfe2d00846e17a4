"""Shared helpers: hand-rolled WAV byte builders and signal synthesis.

The WAV builders here are written directly against the RIFF byte layout with
struct, so decode tests check the parser against the format spec. The package
writes no audio; every test that needs a WAV file builds it with wav_bytes.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest

from soundnet import distfit
from soundnet.audio_io import AudioBuffer


def wav_bytes(payload: bytes, *, channels=1, rate=8000, bits=16, format_code=1, extra_chunks=()):
    width = bits // 8
    chunks = [
        b"fmt " + struct.pack("<I", 16)
        + struct.pack("<HHIIHH", format_code, channels, rate, rate * width * channels, width * channels, bits),
    ]
    chunks.extend(extra_chunks)
    chunks.append(b"data" + struct.pack("<I", len(payload)) + payload)
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm16_payload(values):
    return struct.pack(f"<{len(values)}h", *values)


def pcm24_payload(values):
    out = bytearray()
    for v in values:
        out += int(v).to_bytes(3, "little", signed=True)
    return bytes(out)


def float32_payload(values):
    return struct.pack(f"<{len(values)}f", *values)


def sine(freq_hz, seconds, rate, amplitude=0.5):
    t = np.arange(int(round(seconds * rate))) / rate
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t)


def tone_buffer(freq_hz, seconds, rate, amplitude=0.5):
    return AudioBuffer(samples=sine(freq_hz, seconds, rate, amplitude), sample_rate_hz=rate)


def full_bins(spec):
    """All N complex bins of a spectrum: its rfft half, then the conjugate
    mirror of bins N/2-1 down to 1."""
    return np.concatenate([spec.half, np.conj(spec.half[-2:0:-1])])


def dense_ks(fit, x_sorted):
    """The KS result of `fit` on a sorted sample, with the CDF evaluated at every
    sample: the reference for distfit's blocked KS statistic."""
    n = x_sorted.size
    f = fit.cdf(x_sorted)
    i = np.arange(1, n + 1, dtype=np.float64)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))
    return distfit.KsResult(d, distfit._kolmogorov_q((math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d), n)


def assert_utf8_artifacts(out_dir):
    """Every file in out_dir holds bytes, and they decode as UTF-8."""
    for path in out_dir.iterdir():
        data = path.read_bytes()
        assert data, path
        data.decode("utf-8")


def assert_is_path(net):
    """The network joins only neighbouring bins: N - 1 edges, no degree above 2,
    and the two lowest bins (one when N = 1) as the largest clique."""
    midis = [b.midi_lower for b in net.nodes]
    n = len(midis)
    assert sorted(net.edges) == list(zip(midis[:-1], midis[1:]))
    assert len(net.edges) == n - 1
    assert max(Counter(m for edge in net.edges for m in edge).values(), default=0) <= 2
    assert net.largest_clique == net.nodes[: min(n, 2)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
