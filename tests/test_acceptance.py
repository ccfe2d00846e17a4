"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The two end-to-end criteria build their corpora from synthesized WAV files in
a session tmp dir; nothing here depends on external audio.
"""

import json
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import float32_payload, full_bins, pcm16_payload, sine, wav_bytes
from soundnet import distfit, spectral
from soundnet.cli import main
from soundnet.corpus import spearman
from soundnet.distfit import DistFamily, FittedDistribution
from soundnet.network import PitchGrid, bin_of, largest_clique
from soundnet.selftest import (
    max_clique_bruteforce,
    naive_dft,
    random_network,
    spearman_rank_formula,
)

NS = "{http://www.w3.org/2000/svg}"


@contextmanager
def criterion(num, title):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion {num}: {title}")
        raise
    print(f"\nPASS criterion {num}: {title} ({time.perf_counter() - started:.1f}s)")


def test_c1_fft_matches_naive_eq1():
    with criterion(1, "FFT equals the direct quadratic summation; Parseval holds"):
        started = time.perf_counter()
        rng = np.random.default_rng(1)
        sizes = [64, 256, 1024]
        for i in range(50):
            n = sizes[i % 3]
            x = rng.standard_normal(n)
            spec = spectral.dft(x)
            bins = full_bins(spec)
            want = naive_dft(x)
            rel = np.max(np.abs(bins - want)) / np.max(np.abs(want))
            assert rel < 1e-9, rel
            energy_time = float(np.sum(x * x))
            energy_freq = float(np.sum(np.abs(bins) ** 2) / spec.n_fft)
            assert abs(energy_time - energy_freq) / energy_time < 1e-6
        assert time.perf_counter() - started < 5.0


def test_c2_distribution_recovery():
    with criterion(2, "closed-form MLEs recover scale-class parameters within 5% (>=19/20)"):
        started = time.perf_counter()
        n = 10_000

        def run_trials(draw, check):
            wins = 0
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                wins += bool(check(draw(rng)))
            return wins

        wins = run_trials(
            lambda rng: rng.normal(5.0, 3.0, n),
            lambda x: abs(distfit.fit_mle(DistFamily.NORMAL, x).scale - 3.0) / 3.0 < 0.05,
        )
        assert wins >= 19, f"normal: {wins}/20"

        wins = run_trials(
            lambda rng: rng.exponential(50.0, n),
            lambda x: abs(distfit.fit_mle(DistFamily.EXPONENTIAL, x).scale - 50.0) / 50.0 < 0.05,
        )
        assert wins >= 19, f"exponential: {wins}/20"

        def lognormal_ok(x):
            fit = distfit.fit_mle(DistFamily.LOG_NORMAL, x)
            return (
                abs(fit.scale - np.exp(1.0)) / np.exp(1.0) < 0.05
                and abs(fit.shape_params[0] - 0.75) / 0.75 < 0.05
            )

        wins = run_trials(lambda rng: rng.lognormal(1.0, 0.75, n), lognormal_ok)
        assert wins >= 19, f"lognormal: {wins}/20"

        def pareto_ok(x):
            fit = distfit.fit_mle(DistFamily.PARETO, x)
            return (
                abs(fit.shape_params[0] - 2.0) / 2.0 < 0.05
                and abs(fit.scale - 4.0) / 4.0 < 0.05
            )

        wins = run_trials(lambda rng: 4.0 * (1.0 - rng.random(n)) ** (-1.0 / 2.0), pareto_ok)
        assert wins >= 19, f"pareto: {wins}/20"

        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            report = distfit.best_fit(rng.exponential(50.0, n))
            d = {fam: ff.ks.statistic_d for fam, ff in report.per_family.items()}
            wins += d[DistFamily.EXPONENTIAL] < d[DistFamily.NORMAL]
        assert wins >= 19, f"best_fit exp<normal: {wins}/20"
        assert time.perf_counter() - started < 30.0


def test_c3_ks_correctness():
    with criterion(3, "KS statistic exact on the quantile grid; p matches tabulated Q"):
        n = 100
        scale = 50.0
        p = (np.arange(1, n + 1) - 0.5) / n
        x = -scale * np.log1p(-p)
        fit = FittedDistribution(DistFamily.EXPONENTIAL, (), 0.0, scale)
        res = distfit.ks_test(fit, x)
        assert abs(res.statistic_d - 1.0 / (2 * n)) < 1e-12
        assert abs(distfit._kolmogorov_q(1.36) - 0.049) < 1e-3


def test_c4_clique_oracle():
    with criterion(4, "Bron-Kerbosch equals exhaustive enumeration on 100 G(12, 0.5) graphs"):
        started = time.perf_counter()
        rng = np.random.default_rng(4)
        agree = 0
        for _ in range(100):
            net = random_network(12, 0.5, rng)
            index = {b.midi_lower: i for i, b in enumerate(net.nodes)}
            edges = [(index[a], index[b]) for a, b in net.edges]
            agree += len(largest_clique(net)) == len(max_clique_bruteforce(12, edges))
        assert agree == 100
        assert time.perf_counter() - started < 10.0


def test_c5_spearman_oracle():
    with criterion(5, "Spearman matches the rank formula and hand-ranked tie cases"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.permutation(50).astype(float)
            y = rng.permutation(50).astype(float)
            assert abs(spearman(x, y) - spearman_rank_formula(x, y)) < 1e-12
        tie_cases = [
            ([1, 1, 2], [1, 2, 3], 0.8660254037844386),
            ([1, 2, 2, 3], [3, 2, 2, 1], -1.0),
            ([1, 1, 1, 2], [1, 2, 3, 4], 0.7745966692414834),
            ([1, 2, 3, 4, 4], [2, 1, 4, 4, 3], 0.6578947368421053),
            ([0.5, 0.5, 2.5, 2.5], [1, 2, 3, 4], 0.8944271909999159),
        ]
        for x, y, expected in tie_cases:
            assert abs(spearman(x, y) - expected) < 1e-12


def test_c6_pitch_binning():
    with criterion(6, "340 Hz falls in (E4, F4) with the documented bounds; A4 anchor exact"):
        grid = PitchGrid()
        b = bin_of(340.0, grid)
        assert (b.lower_note, b.upper_note) == ("E4", "F4")
        assert round(b.lower_hz, 2) == 329.63
        assert round(b.upper_hz, 2) == 349.23
        assert grid.note_freq(69) == 440.0


def test_c7_end_to_end_tone(tmp_path):
    with criterion(7, "3 s 440 Hz sine -> one-node (A4, A#4) network, byte-stable report"):
        wav = tmp_path / "tone440.wav"
        payload = float32_payload(sine(440.0, 3.0, 44100).astype(np.float32).tolist())
        wav.write_bytes(wav_bytes(payload, rate=44100, bits=32, format_code=3))
        out = tmp_path / "out"
        assert main(["analyze", str(wav), "--out", str(out)]) == 0
        report_path = out / "tone440.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        nodes = report["network"]["nodes"]
        assert len(nodes) == 1
        assert nodes[0]["notes"] == ["A4", "A♯4"]
        assert report["network"]["edges"] == []
        assert report["network"]["clique_size"] == 1
        first = report_path.read_bytes()
        assert main(["analyze", str(wav), "--out", str(out)]) == 0
        assert report_path.read_bytes() == first


def _exp_melody(path, seed, rate=44100, seconds=20.0, seg=0.25):
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(int(seconds / seg)):
        f = 60.0 + min(float(rng.exponential(350.0)), 3200.0)
        chunks.append(sine(f, seg, rate))
    codes = np.round(np.clip(np.concatenate(chunks), -1.0, 1.0) * 32767.0).astype(np.int16)
    path.write_bytes(wav_bytes(pcm16_payload(codes.tolist()), rate=rate))
    return path


def test_c8_end_to_end_synthetic_corpus(tmp_path):
    with criterion(8, "synthetic corpus reproduces the summary-row shape and figure artifacts"):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for i in range(4):
            _exp_melody(corpus_dir / f"piece{i}.wav", seed=800 + i)
        src = corpus_dir / "piece3.wav"
        (corpus_dir / "piece4.wav").write_bytes(src.read_bytes())  # duplicate

        out = tmp_path / "out"
        assert main(["corpus", str(corpus_dir), "--out", str(out)]) == 0

        corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
        summary = corpus_json["comparison"]["summary"]
        assert len(summary) == 5
        for row in summary:
            # the reported row carries family, (loc, scale), and (d, p)
            assert row["best_family"] in {f.value for f in distfit.ALL_FAMILIES}
            assert isinstance(row["loc"], float)
            assert isinstance(row["scale"], float)
            assert 0.0 <= row["ks_d"] <= 1.0
            assert 0.0 <= row["ks_p"] <= 1.0
            assert row["clique_size"] >= 1

        ids = corpus_json["comparison"]["piece_ids"]
        matrix = corpus_json["comparison"]["corr_matrix"]
        assert matrix[ids.index("piece3")][ids.index("piece4")] == 1.0

        for artifact in ("corpus.heatmap.svg", "corpus.cliques.svg"):
            root = ET.fromstring((out / artifact).read_bytes())
            assert root.get("viewBox")
        cells = ET.fromstring((out / "corpus.heatmap.svg").read_bytes()).findall(f".//{NS}rect")
        assert len([c for c in cells if (c.get("class") or "") == "cell"]) == 25


@pytest.mark.slow
def test_c9_performance(tmp_path):
    with criterion(9, "3-minute file analyzed < 30 s; 14-piece corpus < 3 min"):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for i in range(14):
            _exp_melody(corpus_dir / f"take{i:02d}.wav", seed=900 + i, seconds=180.0)

        single_out = tmp_path / "single"
        started = time.perf_counter()
        assert main(["analyze", str(corpus_dir / "take00.wav"), "--out", str(single_out)]) == 0
        single_elapsed = time.perf_counter() - started
        assert single_elapsed < 30.0, f"analyze took {single_elapsed:.1f}s"

        corpus_out = tmp_path / "corpusout"
        started = time.perf_counter()
        assert main(["corpus", str(corpus_dir), "--out", str(corpus_out)]) == 0
        corpus_elapsed = time.perf_counter() - started
        assert corpus_elapsed < 180.0, f"corpus took {corpus_elapsed:.1f}s"
        assert len(list(corpus_out.glob("take*.json"))) == 14
