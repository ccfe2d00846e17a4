"""Property test of the whole command line.

Random small WAV files (every supported encoding, mono and stereo, with and
without edited headers) under random ASCII, non-ASCII UTF-8 and non-UTF-8
file names, random valid and invalid flag values, random config files and an
--out that names an existing file go through `analyze` and `corpus`. Every
run must end in a documented exit code: 0, 2, 3 or 4 returned, or argparse's
usage exit 2, and a run that exits 0 must leave only non-empty UTF-8
artifacts. Any other exception escaping `main` is a bug.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import assert_utf8_artifacts, wav_bytes
from soundnet.cli import main

# (format code, bits) -> little-endian dtype of one sample; 24-bit is cut from <i4
_ENCODINGS = {(1, 16): "<i2", (1, 24): "<i4", (1, 32): "<i4", (3, 32): "<f4", (3, 64): "<f8"}

# (offset, width) of every field of the canonical 44-byte header
_FIELDS = [(4, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2), (40, 4)]

# config key -> (flag, valid flag values, invalid flag values)
_FLAGS = {
    "mode": ("--mode", ["stft", "full"], ["wavelet"]),
    "a4_hz": ("--a4", ["440", "415.3"], ["0", "-1", "nan", "inf", "A4", "1e-300", "219.9", "880.5"]),
    "frame_size": ("--frame-size", ["256", "512", "1024"], ["1000", "1", "0", "131072", "1099511627776"]),
    "hop": ("--hop", ["64", "128", "256"], ["0", "4096", "0.5"]),
    "top_k": ("--top-k", ["1", "3", "5"], ["0", "-2"]),
    "rel_threshold": ("--rel-threshold", ["0.05", "0.1", "1"], ["0", "1.5", "nan"]),
    "floor_db": ("--floor-db", ["-60", "-20", "0", "-inf"], ["3", "nan"]),
    "alignment": ("--alignment", ["union", "intersection"], ["outer"]),
}
_JOBS = (["1", "2"], ["0", "-1", "two"])
# valid config files; each sets frame_size and hop together or neither
_CONFIGS = [
    {},
    {"mode": "full"},
    {"frame_size": 512, "hop": 128},
    {"frame_size": "256", "hop": 64, "a4_hz": 440},
    {"top_k": 3, "floor_db": "-20"},
    {"a4_hz": 415.3, "alignment": "intersection"},
]
# config key -> invalid JSON values
_BAD_CONFIG_VALUES = {
    "mode": ["wavelet", 1],
    "a4_hz": [float("nan"), None, "A4"],
    "frame_size": [1024.0, 1000, [], True],
    "hop": [512.5, 0, {}],
    "top_k": [2.5, "x"],
    "floor_db": [1, float("nan")],
    "seed": [0],
}
_NOT_AN_OBJECT = ["{", "[]", "5", '"stft"', "null"]
# file-name stems as bytes: ASCII, non-ASCII UTF-8 and not UTF-8
_STEMS = [b"p", "é♯".encode(), b"p\xff", b"\xfe\xed"]


def _encode(samples, format_code, bits):
    dtype = _ENCODINGS[format_code, bits]
    if format_code == 3:
        return samples.astype(dtype).tobytes()
    codes = np.round(np.clip(np.nan_to_num(samples), -1.0, 1.0) * (2 ** (bits - 1) - 1)).astype(dtype)
    if bits == 24:
        return codes.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return codes.tobytes()


@st.composite
def _wav_file(draw, edit_header):
    format_code, bits = draw(st.sampled_from(sorted(_ENCODINGS)))
    channels = draw(st.sampled_from([1, 2]))
    rate = draw(st.sampled_from([1000, 2000, 4000, 8000]))
    n = draw(st.integers(0, 8)) * rate // 4 + draw(st.integers(0, 3))  # 0-2 s
    kind = draw(st.sampled_from(["melody", "melody", "noise", "noise", "tone", "silence", "non-finite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "melody":
        freqs = np.repeat(80.0 + rng.exponential(300.0, size=n // 250 + 1), 250)[:n]
        x = 0.5 * np.sin(2.0 * np.pi * np.cumsum(freqs) / rate)
    elif kind == "noise":
        x = rng.uniform(-1.0, 1.0, size=n)
    elif kind == "tone":
        x = 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(n) / rate)
    else:
        x = np.zeros(n)
        if kind == "non-finite" and n:
            x[rng.integers(n)] = np.nan
    payload = _encode(np.repeat(x, channels), format_code, bits)
    data = bytearray(wav_bytes(payload, channels=channels, rate=rate, bits=bits, format_code=format_code))
    if edit_header:
        edits = st.lists(st.tuples(st.sampled_from(_FIELDS), st.integers(0, 2**32 - 1)), min_size=1, max_size=2)
        for (at, width), value in draw(edits):
            data[at : at + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
    return bytes(data)


@st.composite
def _run(draw):
    """One command line with at most one kind of invalid input."""
    fault = draw(st.sampled_from([None, None, "wav", "flag", "config", "target", "out"]))
    command = draw(st.sampled_from(["analyze", "corpus"]))
    wavs = draw(st.lists(_wav_file(fault == "wav"), min_size=1, max_size=3 if command == "corpus" else 1))
    names = [os.fsdecode(draw(st.sampled_from(_STEMS)) + b"%d.wav" % i) for i in range(len(wavs))]
    config = dict(draw(st.sampled_from(_CONFIGS)))
    if fault == "config":
        bad = draw(st.sampled_from(["missing", *_NOT_AN_OBJECT, *_BAD_CONFIG_VALUES]))
        if bad in _BAD_CONFIG_VALUES:
            config[bad] = draw(st.sampled_from(_BAD_CONFIG_VALUES[bad]))
        else:
            config = bad
    # frame size and hop always come together (the default hop exceeds the small frames), and
    # a flag would override the file, so no flag is given for a key the file sets
    keys = [key for key in _FLAGS if key in ("frame_size", "hop") or draw(st.booleans())]
    keys = [key for key in keys if not (isinstance(config, dict) and key in config)]
    if command == "corpus" and draw(st.booleans()):
        keys.append("jobs")
    bad_key = draw(st.sampled_from(keys)) if fault == "flag" and keys else None
    flags = []
    for key in keys:
        flag, valid, invalid = _FLAGS[key] if key != "jobs" else ("--jobs", *_JOBS)
        flags.append(f"{flag}={draw(st.sampled_from(invalid if key == bad_key else valid))}")
    if isinstance(config, dict):
        config = json.dumps(config) if config or draw(st.booleans()) else None
    return command, dict(zip(names, wavs)), flags, config, fault


@settings(max_examples=80, deadline=None)
@given(run=_run())
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, run):
    command, wavs, flags, config, fault = run
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        work = Path(work)
        corpus = work / "corpus"
        corpus.mkdir()
        for name, data in wavs.items():
            try:
                (corpus / name).write_bytes(data)
            except OSError:  # a filesystem that rejects names that are not UTF-8
                reject()
        target = work / "missing" if fault == "target" else corpus if command == "corpus" else corpus / next(iter(wavs))
        if fault == "out":  # --out names an existing file
            (work / "out").write_bytes(b"")
        argv = [command, str(target), f"--out={work / 'out'}", *flags]
        if config is not None:
            if config != "missing":
                (work / "cfg.json").write_text(config, encoding="utf-8")
            argv.append(f"--config={work / 'cfg.json'}")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 2, 3, 4), argv
            if code == 0:
                assert_utf8_artifacts(work / "out")
