"""Golden outputs: the sha256 of every artifact of a fixed synthetic corpus.

Three seeded melodies, one each as 16-bit mono, 24-bit stereo and float32
mono WAV, are written with the hand-rolled RIFF builders in conftest. The
test runs `corpus` in both modes and `analyze` on one piece from inside the
temporary directory with relative paths, so the reports (which echo the
input path and the output directory) do not depend on where it runs.

The pins hold on one machine and numpy build: with numpy's AVX512 kernels
switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"),
test_golden_artifacts fails. Each piece JSON, corpus.json and
corpus.summary.csv differ in both modes, and so does the analyze report, only
in the last digits of fit parameters and KS values; no SVG, matrix or network
field differs. The fits read one sorted copy of the sample and sum their
products with np.einsum, not with OpenBLAS, so the thread count moves no byte.

A refactor that claims byte-identical output must pass these pins unchanged.
If a change alters an artifact on purpose, re-pin and record the input and
the cause in CHANGES.md.

test_golden_holds_across_builds states what does hold across builds. It runs
the golden commands in subprocesses with AVX512 off, at the X86_V2 baseline
and with one OpenBLAS thread. With one OpenBLAS thread every artifact must
match its pin byte for byte. At each SIMD level every SVG and matrix CSV must
still match its pin byte for byte, and every JSON report and summary CSV must
match an unmodified run in each non-float field, the best family included,
and in each float within 1e-9 relative.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from conftest import assert_is_path, float32_payload, pcm16_payload, pcm24_payload, sine, wav_bytes
from soundnet import spectral
from soundnet.audio_io import decode_wav
from soundnet.cli import main
from soundnet.network import build_network

RATE = 22050


def _melody(seed, seconds=3.0, seg=0.25):
    rng = np.random.default_rng(seed)
    notes = []
    for _ in range(int(seconds / seg)):
        f = 80.0 + min(float(rng.exponential(400.0)), 3000.0)
        notes.append(sine(f, seg, RATE, 0.5) + sine(2.0 * f, seg, RATE, 0.2))
    return np.concatenate(notes)


def _write_corpus(directory):
    directory.mkdir()
    mono16 = np.round(_melody(101) * 32767.0).astype(int)
    (directory / "a_pcm16.wav").write_bytes(wav_bytes(pcm16_payload(mono16.tolist()), rate=RATE))

    left = _melody(202)
    right = 0.8 * left + 0.1 * _melody(203)
    codes = np.round(np.column_stack([left, right]) * (2**23 - 1)).astype(int).ravel()
    (directory / "b_pcm24_stereo.wav").write_bytes(
        wav_bytes(pcm24_payload(codes.tolist()), channels=2, rate=RATE, bits=24)
    )

    mono32 = _melody(303).astype(np.float32)
    (directory / "c_float32.wav").write_bytes(
        wav_bytes(float32_payload(mono32.tolist()), rate=RATE, bits=32, format_code=3)
    )


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


GOLDEN_CORPUS_STFT = {
    "a_pcm16.fit.svg": "e0b6e2cbaa33a984e9bf2c1045bd6cd26272b849fcc3ac139e4bdb5988923937",
    "a_pcm16.json": "6b12c0d643197fa70433197afbe3159a442d1418ad90ff2e8a9ee060345e75b5",
    "a_pcm16.network.svg": "84f16b750c855ca246197731e5a2e95f1f8938d451a757ff67132fc9ca6711a5",
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "2b7f3783be62bb6e547adea2c2f6b4274f6954909b86c082b71f754bd0e4b88e",
    "b_pcm24_stereo.network.svg": "bd7867780c338ab3db3d61c785e1217eb5592cc37de5d9102313810adc3c2bbb",
    "c_float32.fit.svg": "039cb03960705348ba4312fa7f164d99f0e2179fd0579f63c9ef7a09c74a1a32",
    "c_float32.json": "4df2667f08b94e34347234c05e233403b989350147b825cb60dbd60a3a7e7034",
    "c_float32.network.svg": "b04d42fcba7bd8fa6fc431fe08954faf69e32aaade231844ea3337eb90170092",
    "corpus.cliques.svg": "5f5a1565eed7d52812c30b176f09f4551358bd65de2a452fbb0d57d7f5767710",
    "corpus.heatmap.svg": "8cb82065c42a636b2cf16d6b6f45c7cf052f851333454ce9dc4efd28f179220b",
    "corpus.json": "687a5fb1ae5e76572cb8408efe7083f3355d94f62c1aa22fa751eff2897931d2",
    "corpus.matrix.csv": "991c18df2518cd67a6021c8eed5e1973f1723460a25f67b436df9bacd6dc40e7",
    "corpus.summary.csv": "3d264862e8cc418ebfff202c09de85aad765ee5ec07f63579f8596dc274b96a2",
}
GOLDEN_CORPUS_FULL = {
    "a_pcm16.fit.svg": "bc3bd486242a589c5ba5f5f0df46dd58aefb90e14b1324ea0d4863b33509bcda",
    "a_pcm16.json": "687b399db5d0094c203d1014bc029e64cd691b6e32d110ea86cce1b868222917",
    "a_pcm16.network.svg": "e6820fa9dfbe997873cc05a3c19db626f97b48123729f6d9ea0cb3aa73e2dced",
    "b_pcm24_stereo.fit.svg": "032a086b31a4af8fa5d025f77059722ca1135579db34a1e63953595c5e63ae01",
    "b_pcm24_stereo.json": "6f686a79f373575cb840738bf40243f709b4770687e85feb60ea0e75afd3cd0d",
    "b_pcm24_stereo.network.svg": "c31c3a4414d45ba9784da7766d61079751ead44b61314baa4c2f0cca2e54cda5",
    "c_float32.fit.svg": "3de5c9f1c85495154205d7e3424f6888b6072e2e8fba3ebf57fcbf812186b550",
    "c_float32.json": "b1d712cee164db16f372c9261b0bade20bf3e1f3144fd6c8f18060a1eee79626",
    "c_float32.network.svg": "f4566ea88d2b6c38f2de90a65f07c2e4c8c0eb88bb675c6c3aac1b7dc2b667e3",
    "corpus.cliques.svg": "184794f4fc6257b3c7a94c127a7d5fa068792334eb975fe836578f3ac3469748",
    "corpus.heatmap.svg": "8676ba93b9e76945e08f179131cf5d8fbef0f4b022401d0f19ffb6a7badc2e3e",
    "corpus.json": "51182fef198a94d73ab40503a76ee752e5dc4ca90222308f5ff5c11a05e28794",
    "corpus.matrix.csv": "5f0414df6f40814ba150bbb679ca0f4ffe708f3465385fb5887bd1213e4e1426",
    "corpus.summary.csv": "a581265f028d9fc2bb7e6dd22ce45aff12518634060324d6ee12fd5c66447212",
}
GOLDEN_ANALYZE = {
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "788e0f20f423c014231d8236dd52e340683fb956696054c2f7e39c5a378ccde0",
    "b_pcm24_stereo.network.svg": "bd7867780c338ab3db3d61c785e1217eb5592cc37de5d9102313810adc3c2bbb",
}
# each golden command writes to its --out directory, run from the directory holding "in"
GOLDEN = {"stft": GOLDEN_CORPUS_STFT, "full": GOLDEN_CORPUS_FULL, "one": GOLDEN_ANALYZE}
GOLDEN_COMMANDS = [
    ["corpus", "in", "--mode", "stft", "--out", "stft"],
    ["corpus", "in", "--mode", "full", "--out", "full"],
    ["analyze", "in/b_pcm24_stereo.wav", "--out", "one"],
]


def test_golden_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_corpus(tmp_path / "in")
    for argv in GOLDEN_COMMANDS:
        assert main(argv) == 0
    assert {out: _digests(tmp_path / out) for out in GOLDEN} == GOLDEN


# numpy's dispatch levels, each switched off with the ones above it; a level
# the CPU lacks is skipped, since switching it off would change nothing
SIMD_OFF = {
    "avx512_off": ["X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "x86_v2": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}
BUILD_SETTINGS = {
    name: {"NPY_DISABLE_CPU_FEATURES": " ".join(f for f in off if __cpu_features__.get(f))}
    for name, off in SIMD_OFF.items()
}
BUILD_SETTINGS["openblas_1_thread"] = {"OPENBLAS_NUM_THREADS": "1"}
RUN_GOLDEN = "import json, sys; from soundnet.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"


def _run_golden(root, corpus, settings):
    """The golden commands in a fresh interpreter, from root, on a copy of the corpus."""
    shutil.copytree(corpus, root / "in")
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_NUM_THREADS")}
    env.update(settings, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run(
        [sys.executable, "-c", RUN_GOLDEN, json.dumps(GOLDEN_COMMANDS)], cwd=root, env=env, check=True, timeout=300
    )
    return root


@pytest.fixture(scope="module")
def unmodified_run(tmp_path_factory):
    # the corpus is written once, here, so every run reads the same bytes
    corpus = tmp_path_factory.mktemp("corpus")
    _write_corpus(corpus / "in")
    return corpus / "in", _run_golden(tmp_path_factory.mktemp("unmodified"), corpus / "in", {})


def _parse_cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        return [[_parse_cell(cell) for cell in row] for row in csv.reader(fh)]


def _assert_close(got, want, where):
    """Equal structure and non-float values; floats within 1e-9 relative."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-9) or (math.isnan(got) and math.isnan(want)), (where, got, want)
    elif isinstance(want, dict) and isinstance(got, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("setting", BUILD_SETTINGS)
def test_golden_holds_across_builds(setting, unmodified_run, tmp_path):
    off = SIMD_OFF.get(setting, [])
    if off and not __cpu_features__.get(off[0]):
        pytest.skip(f"this CPU lacks {off[0]}")
    corpus, base = unmodified_run
    run = _run_golden(tmp_path, corpus, BUILD_SETTINGS[setting])
    for out, pins in GOLDEN.items():
        digests = _digests(run / out)
        assert digests.keys() == pins.keys()
        for name, digest in pins.items():
            # with every SIMD level on (one OpenBLAS thread), every artifact keeps its pinned bytes
            if not off or name.endswith((".svg", ".matrix.csv")):
                assert digests[name] == digest, (out, name)
            else:
                _assert_close(_load(run / out / name), _load(base / out / name), f"{out}/{name}")


def test_golden_pieces_in_full_mode_are_paths(tmp_path):
    _write_corpus(tmp_path / "in")
    for wav in sorted((tmp_path / "in").iterdir()):
        audio = decode_wav(wav)
        net = build_network(spectral.extract_sequence_full(spectral.dft(audio.samples, audio.sample_rate_hz)))
        assert len(net.nodes) > 2
        assert_is_path(net)
