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
    "a_pcm16.json": "8188ff34ce47d911af23d61e30d18d19551f308a0e7d138be1681cd971e04003",
    "a_pcm16.network.svg": "84f16b750c855ca246197731e5a2e95f1f8938d451a757ff67132fc9ca6711a5",
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "2cdc9e62ba2a00130d630dd2c4e6cb7f45b16ee6cb90f3d3ba503c418c67fe05",
    "b_pcm24_stereo.network.svg": "bd7867780c338ab3db3d61c785e1217eb5592cc37de5d9102313810adc3c2bbb",
    "c_float32.fit.svg": "039cb03960705348ba4312fa7f164d99f0e2179fd0579f63c9ef7a09c74a1a32",
    "c_float32.json": "42456de67504f3f49de1e8db8f96ef2185d9ff720f993e8c61c3e6e37e9a3e28",
    "c_float32.network.svg": "b04d42fcba7bd8fa6fc431fe08954faf69e32aaade231844ea3337eb90170092",
    "corpus.cliques.svg": "5f5a1565eed7d52812c30b176f09f4551358bd65de2a452fbb0d57d7f5767710",
    "corpus.heatmap.svg": "8cb82065c42a636b2cf16d6b6f45c7cf052f851333454ce9dc4efd28f179220b",
    "corpus.json": "7fcfe86da1a2a07b5543cfeac9cd6b7e4ca139ef03853e48238ff6fb82913dd8",
    "corpus.matrix.csv": "991c18df2518cd67a6021c8eed5e1973f1723460a25f67b436df9bacd6dc40e7",
    "corpus.summary.csv": "40160f1fce6cb5000af7bc726b662e5295579114b33e37c9a409d8f4596011f9",
}
GOLDEN_CORPUS_FULL = {
    "a_pcm16.fit.svg": "bc3bd486242a589c5ba5f5f0df46dd58aefb90e14b1324ea0d4863b33509bcda",
    "a_pcm16.json": "6ec82d2b56c12ae9dac4a057dd7522ad0f00da95b78e0997fa09e6a0da0f1b60",
    "a_pcm16.network.svg": "e6820fa9dfbe997873cc05a3c19db626f97b48123729f6d9ea0cb3aa73e2dced",
    "b_pcm24_stereo.fit.svg": "032a086b31a4af8fa5d025f77059722ca1135579db34a1e63953595c5e63ae01",
    "b_pcm24_stereo.json": "22be432ff563ed0dfe14c9507bd6ec46d3973ee131c938c414b63d4c48b427ed",
    "b_pcm24_stereo.network.svg": "c31c3a4414d45ba9784da7766d61079751ead44b61314baa4c2f0cca2e54cda5",
    "c_float32.fit.svg": "3de5c9f1c85495154205d7e3424f6888b6072e2e8fba3ebf57fcbf812186b550",
    "c_float32.json": "2d63cf22877cf15f673bfd6ebe617ae22d7b13a932ecfe8f3235e20e5a66de98",
    "c_float32.network.svg": "f4566ea88d2b6c38f2de90a65f07c2e4c8c0eb88bb675c6c3aac1b7dc2b667e3",
    "corpus.cliques.svg": "184794f4fc6257b3c7a94c127a7d5fa068792334eb975fe836578f3ac3469748",
    "corpus.heatmap.svg": "8676ba93b9e76945e08f179131cf5d8fbef0f4b022401d0f19ffb6a7badc2e3e",
    "corpus.json": "aaf4c10c7d593f0df29f05092a4bba45c8d17f6005541a087c554bb3d7ce151a",
    "corpus.matrix.csv": "5f0414df6f40814ba150bbb679ca0f4ffe708f3465385fb5887bd1213e4e1426",
    "corpus.summary.csv": "22bb33b7b6c8245098397bbd7033a1430018381d678a4e546af191a0362fd50d",
}
GOLDEN_ANALYZE = {
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "1f50ca32dd632a78090d50e9374e5b5d1652cc52cfc9738fe9664c0854559ad0",
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
