"""Golden outputs: the sha256 of every artifact of a fixed synthetic corpus.

Three seeded melodies, one each as 16-bit mono, 24-bit stereo and float32
mono WAV, are written with the hand-rolled RIFF builders in conftest. The
test runs `corpus` in both modes and `analyze` on one piece from inside the
temporary directory with relative paths, so the reports (which echo the
input path and the output directory) do not depend on where it runs.

A refactor that claims byte-identical output must pass these pins unchanged.
If a change alters an artifact on purpose, re-pin and record the input and
the cause in CHANGES.md.
"""

import hashlib

import numpy as np

from conftest import float32_payload, pcm16_payload, pcm24_payload, sine, wav_bytes
from soundnet.cli import main

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
    "a_pcm16.json": "dbb86280d1a7bf298a525021603e0f12d0a65e013fe70e6cd8cbdcc363f4dd7f",
    "a_pcm16.network.svg": "84f16b750c855ca246197731e5a2e95f1f8938d451a757ff67132fc9ca6711a5",
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "b109c38cabb5496bbc238899531386e9c0178fe31ff4b5091078525a1c8a7486",
    "b_pcm24_stereo.network.svg": "bd7867780c338ab3db3d61c785e1217eb5592cc37de5d9102313810adc3c2bbb",
    "c_float32.fit.svg": "039cb03960705348ba4312fa7f164d99f0e2179fd0579f63c9ef7a09c74a1a32",
    "c_float32.json": "528833ebebc40ea3322fac0a7abe98e05821aeeded1e550ec24f88ae97605756",
    "c_float32.network.svg": "b04d42fcba7bd8fa6fc431fe08954faf69e32aaade231844ea3337eb90170092",
    "corpus.cliques.svg": "5f5a1565eed7d52812c30b176f09f4551358bd65de2a452fbb0d57d7f5767710",
    "corpus.heatmap.svg": "8cb82065c42a636b2cf16d6b6f45c7cf052f851333454ce9dc4efd28f179220b",
    "corpus.json": "026e91bea80a2c712549970d28d3c80b9dc1ee524a532f9e34669a45ea2ace65",
    "corpus.matrix.csv": "991c18df2518cd67a6021c8eed5e1973f1723460a25f67b436df9bacd6dc40e7",
    "corpus.summary.csv": "f3ccdc12ff33bb8a4f32349cb55ddd1d76c93a1d1daf9e902ecb88bf4d1ffe95",
}
GOLDEN_CORPUS_FULL = {
    "a_pcm16.fit.svg": "bc3bd486242a589c5ba5f5f0df46dd58aefb90e14b1324ea0d4863b33509bcda",
    "a_pcm16.json": "feef1866d4f4aeff3edd94193916b88580dc9f3508c922590fd93d518ac373c4",
    "a_pcm16.network.svg": "e6820fa9dfbe997873cc05a3c19db626f97b48123729f6d9ea0cb3aa73e2dced",
    "b_pcm24_stereo.fit.svg": "032a086b31a4af8fa5d025f77059722ca1135579db34a1e63953595c5e63ae01",
    "b_pcm24_stereo.json": "b3c18cd6d49bab5838ce2b9e13ed762796d53aa6eec7c545596648276ccc0af6",
    "b_pcm24_stereo.network.svg": "c31c3a4414d45ba9784da7766d61079751ead44b61314baa4c2f0cca2e54cda5",
    "c_float32.fit.svg": "3de5c9f1c85495154205d7e3424f6888b6072e2e8fba3ebf57fcbf812186b550",
    "c_float32.json": "b998f3f9815a77cb1fb4ece4a8acab9bd10c46f2a8cd6eb091c9799b93705cb0",
    "c_float32.network.svg": "f4566ea88d2b6c38f2de90a65f07c2e4c8c0eb88bb675c6c3aac1b7dc2b667e3",
    "corpus.cliques.svg": "184794f4fc6257b3c7a94c127a7d5fa068792334eb975fe836578f3ac3469748",
    "corpus.heatmap.svg": "8676ba93b9e76945e08f179131cf5d8fbef0f4b022401d0f19ffb6a7badc2e3e",
    "corpus.json": "174db30f623971dcc0e060f1faa823588d7f789086c126491801dc85367fa206",
    "corpus.matrix.csv": "5f0414df6f40814ba150bbb679ca0f4ffe708f3465385fb5887bd1213e4e1426",
    "corpus.summary.csv": "9caff8d16bfc53903e790f07c13b7efe09c0780c4c26dfc90c71b35d0e03b775",
}
GOLDEN_ANALYZE = {
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "7e628f5b29691c53d85ff85b1e0a1f7ce771cbacfe0b81bd8b7f6810b85f25b5",
    "b_pcm24_stereo.network.svg": "bd7867780c338ab3db3d61c785e1217eb5592cc37de5d9102313810adc3c2bbb",
}


def test_golden_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_corpus(tmp_path / "in")
    assert main(["corpus", "in", "--mode", "stft", "--out", "stft"]) == 0
    assert main(["corpus", "in", "--mode", "full", "--out", "full"]) == 0
    assert main(["analyze", "in/b_pcm24_stereo.wav", "--out", "one"]) == 0
    assert _digests(tmp_path / "stft") == GOLDEN_CORPUS_STFT
    assert _digests(tmp_path / "full") == GOLDEN_CORPUS_FULL
    assert _digests(tmp_path / "one") == GOLDEN_ANALYZE
