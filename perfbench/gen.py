"""Seeded inputs for the benchmark workloads.

WAV files are written byte by byte against the RIFF layout with struct and
numpy, independent of soundnet's own writer, so the program under test only
ever sees finished files. Every generator takes the input-set index derived
from --seed and nothing else, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

RATE = 44100
BANK = 16                      # input sets; --seed selects one by seed % BANK
PIECES = 6                     # corpus_pool: pieces per corpus
PIECE_SECONDS = 60.0
ENCODINGS = ("pcm16_mono", "pcm24_stereo", "float32_mono")
NOISE_FILES = 8                # full_broadband: recordings per pass; their median call
NOISE_SECONDS = 10.0           # evens out how long each one's simplex fits run
MIDI_LOW, MIDI_HIGH = 12, 120  # the 108 bins of the default pitch grid
A4_HZ = 440.0
# components per network_dense sequence: the four sizes from 4000 to 6000 give the
# 0.3-3 s spread of call times; the thirteen at 4500 keep the median call steady
# from seed to seed, since clique-search time varies from graph to graph
NETWORK_SIZES = (4500, 4000, 4500, 6000, 4500, 5000, 4500, 5500) + (4500,) * 9


def input_set(seed: int) -> int:
    return seed % BANK


def riff_bytes(payload: bytes, *, channels: int, bits: int, format_code: int, rate: int = RATE) -> bytes:
    """A canonical 44-byte-header RIFF/WAVE file around a sample payload."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_code, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm16_mono(x: np.ndarray) -> bytes:
    codes = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
    return riff_bytes(codes.tobytes(), channels=1, bits=16, format_code=1)


def pcm24_stereo(left: np.ndarray, right: np.ndarray) -> bytes:
    """Interleaved 24-bit little-endian codes: the low three bytes of each int32."""
    codes = np.round(np.clip(np.stack([left, right], axis=1), -1.0, 1.0) * 8388607.0).astype("<i4")
    payload = codes.reshape(-1, 1).view(np.uint8)[:, :3].tobytes()
    return riff_bytes(payload, channels=2, bits=24, format_code=1)


def float32_mono(x: np.ndarray) -> bytes:
    return riff_bytes(np.asarray(x, dtype="<f4").tobytes(), channels=1, bits=32, format_code=3)


def exp_melody(rng: np.random.Generator, seconds: float, seg: float = 0.25) -> np.ndarray:
    """The acceptance suite's melody: 0.25 s sines at 60 Hz + Exp(350 Hz), capped at 3260 Hz."""
    t = np.arange(int(round(seg * RATE))) / RATE
    chunks = []
    for _ in range(int(seconds / seg)):
        f = 60.0 + min(float(rng.exponential(350.0)), 3200.0)
        chunks.append(0.5 * np.sin(2.0 * np.pi * f * t))
    return np.concatenate(chunks)


def encode(kind: str, x: np.ndarray) -> bytes:
    if kind == "pcm16_mono":
        return pcm16_mono(x)
    if kind == "pcm24_stereo":
        return pcm24_stereo(x, 0.5 * x)
    return float32_mono(x)


def write_corpus(directory: Path, index: int, pieces: int = PIECES, seconds: float = PIECE_SECONDS) -> float:
    """Write the corpus_pool pieces; returns their total duration in s."""
    directory.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for i in range(pieces):
        rng = np.random.default_rng([index, i])
        x = exp_melody(rng, seconds)
        kind = ENCODINGS[i % len(ENCODINGS)]
        (directory / f"piece{i}_{kind}.wav").write_bytes(encode(kind, x))
        total += x.size / RATE
    return total


def write_noise(directory: Path, index: int, files: int = NOISE_FILES, seconds: float = NOISE_SECONDS) -> dict:
    """Write seeded white-noise recordings as 16-bit mono; returns {file stem: duration in s}."""
    directory.mkdir(parents=True, exist_ok=True)
    durations = {}
    for i in range(files):
        x = 0.2 * np.random.default_rng([index, 1 << 20, i]).standard_normal(int(seconds * RATE))
        (directory / f"noise{i}.wav").write_bytes(pcm16_mono(x))
        durations[f"noise{i}"] = x.size / RATE
    return durations


def network_midis(index: int) -> list:
    """MIDI bin sequences for network_dense, drawn uniformly over the 108 grid bins."""
    return [
        np.random.default_rng([index, 1 << 21, j]).integers(MIDI_LOW, MIDI_HIGH, size=n)
        for j, n in enumerate(NETWORK_SIZES)
    ]


def bin_centre_hz(midis: np.ndarray) -> np.ndarray:
    """Geometric centre of each bin, so the bin a frequency falls in is never in doubt."""
    return A4_HZ * 2.0 ** ((midis + 0.5 - 69.0) / 12.0)


def write_setup_corpus(directory: Path) -> None:
    """Two short fixed pieces: the smallest CLI call that touches every layer."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, kind in enumerate(("pcm16_mono", "pcm24_stereo")):
        x = exp_melody(np.random.default_rng([1 << 22, i]), seconds=1.0)
        (directory / f"setup{i}.wav").write_bytes(encode(kind, x))
