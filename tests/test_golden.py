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
    "a_pcm16.json": "8cd76941ffcaf0036e6d521e4c319569eec33a9ff73923568c0b728a820e6111",
    "a_pcm16.network.svg": "84f16b750c855ca246197731e5a2e95f1f8938d451a757ff67132fc9ca6711a5",
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "510a0067035ef2173db61196c663c57923ae2504bb839ec064a2c431fa20b869",
    "b_pcm24_stereo.network.svg": "bd7867780c338ab3db3d61c785e1217eb5592cc37de5d9102313810adc3c2bbb",
    "c_float32.fit.svg": "039cb03960705348ba4312fa7f164d99f0e2179fd0579f63c9ef7a09c74a1a32",
    "c_float32.json": "016c1a307f72261a007cc43e80ef2987efdd07f3b2394d8336c91f419e80ee06",
    "c_float32.network.svg": "b04d42fcba7bd8fa6fc431fe08954faf69e32aaade231844ea3337eb90170092",
    "corpus.cliques.svg": "5f5a1565eed7d52812c30b176f09f4551358bd65de2a452fbb0d57d7f5767710",
    "corpus.heatmap.svg": "8cb82065c42a636b2cf16d6b6f45c7cf052f851333454ce9dc4efd28f179220b",
    "corpus.json": "76ad5544fdb00e44090974dd01f7a94576bf208cb8168fb4bdc07621561bd945",
    "corpus.matrix.csv": "991c18df2518cd67a6021c8eed5e1973f1723460a25f67b436df9bacd6dc40e7",
    "corpus.summary.csv": "aca551989b05dc3fc14ded59dd64b1fda873746709899cb0443c838af0ac6b1b",
}
GOLDEN_CORPUS_FULL = {
    "a_pcm16.fit.svg": "bc3bd486242a589c5ba5f5f0df46dd58aefb90e14b1324ea0d4863b33509bcda",
    "a_pcm16.json": "676fde256e3f00e966662c32ef931ea6acff09af9c3799f664276772a80c68d9",
    "a_pcm16.network.svg": "e6820fa9dfbe997873cc05a3c19db626f97b48123729f6d9ea0cb3aa73e2dced",
    "b_pcm24_stereo.fit.svg": "032a086b31a4af8fa5d025f77059722ca1135579db34a1e63953595c5e63ae01",
    "b_pcm24_stereo.json": "222d6ab5342ed9743e07f2f97f83fac57b9d4a3e39933bfba0286240004ba481",
    "b_pcm24_stereo.network.svg": "c31c3a4414d45ba9784da7766d61079751ead44b61314baa4c2f0cca2e54cda5",
    "c_float32.fit.svg": "3de5c9f1c85495154205d7e3424f6888b6072e2e8fba3ebf57fcbf812186b550",
    "c_float32.json": "1efc0ea5a5b6679f4676851fdbea7b253d400487b55b39d4f8caec844ee392ca",
    "c_float32.network.svg": "f4566ea88d2b6c38f2de90a65f07c2e4c8c0eb88bb675c6c3aac1b7dc2b667e3",
    "corpus.cliques.svg": "184794f4fc6257b3c7a94c127a7d5fa068792334eb975fe836578f3ac3469748",
    "corpus.heatmap.svg": "8676ba93b9e76945e08f179131cf5d8fbef0f4b022401d0f19ffb6a7badc2e3e",
    "corpus.json": "93efc92b0dc89c20ef168ed82829d53a4c9e0c548c69477849a8da71db33bca1",
    "corpus.matrix.csv": "5f0414df6f40814ba150bbb679ca0f4ffe708f3465385fb5887bd1213e4e1426",
    "corpus.summary.csv": "8858c4df25a74ee19a1b9c0fe0cd1c47a67962703fa119a7eb20175c4fb22f8d",
}
GOLDEN_ANALYZE = {
    "b_pcm24_stereo.fit.svg": "24b2ddcf9a99c19023a588446e81b4b03fe6e08fa2d7903f0bd327645ffa370a",
    "b_pcm24_stereo.json": "ae84bf70ed8241270deb619b572d8f4b083f07cc19cf2303747da1fc998ac46e",
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
