"""Deterministic cost guards for best_fit: they count work, not time.

The sequences are the six golden ones (three melodies, STFT and full mode)
and one broadband recording: 10 s of seeded white noise as 16-bit mono WAV,
recording 0 of the benchmark's `full_broadband` input set 0, whose full-mode
sequence holds about 87k components.
"""

import numpy as np
import pytest

from conftest import dense_ks, pcm16_payload, wav_bytes
from soundnet import distfit
from soundnet.cli import RunConfig, analyze_file
from soundnet.distfit import ALL_FAMILIES, DistFamily
from test_golden import _write_corpus

NOISE_RATE = 44100


@pytest.fixture(scope="module")
def sequences(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit_cost")
    _write_corpus(root / "golden")
    noise = 0.2 * np.random.default_rng([0, 1 << 20, 0]).standard_normal(10 * NOISE_RATE)
    codes = np.round(np.clip(noise, -1.0, 1.0) * 32767.0).astype(int)
    (root / "noise.wav").write_bytes(wav_bytes(pcm16_payload(codes.tolist()), rate=NOISE_RATE))
    seqs = {}
    for mode in ("stft", "full"):
        for wav in sorted((root / "golden").glob("*.wav")):
            seqs[f"{mode}/{wav.stem}"] = np.asarray(analyze_file(wav, RunConfig(mode=mode))[3].values_hz)
    seqs["broadband"] = np.asarray(analyze_file(root / "noise.wav", RunConfig(mode="full"))[3].values_hz)
    return seqs


def test_gibrat_fit_takes_at_most_20_score_evaluations(sequences, monkeypatch):
    calls = []
    score = distfit._gibrat_score
    monkeypatch.setattr(distfit, "_gibrat_score", lambda *args: calls.append(1) or score(*args))
    for name, x in sequences.items():
        calls.clear()
        distfit.fit_mle(DistFamily.GIBRAT, x)
        assert len(calls) <= 20, name


def _count_expweib_profiles(monkeypatch):
    calls = []
    profile = distfit._expweib_profile
    monkeypatch.setattr(distfit, "_expweib_profile", lambda *args: calls.append(1) or profile(*args))
    return calls


def test_expweib_fit_takes_at_most_40_profile_evaluations(sequences, monkeypatch):
    # each evaluation gives P with its gradient and Hessian; the count includes
    # the two ray points that confirm a Frechet (a-bound) boundary fit
    calls = _count_expweib_profiles(monkeypatch)
    for name, x in sequences.items():
        calls.clear()
        distfit._fit_expweib(x)
        assert len(calls) <= 40, name


def test_expweib_power_law_boundary_is_decided_without_leaving_the_c_bound(sequences, monkeypatch):
    # the power-law MLE decides the c side in closed form, so no evaluation lies past the bound
    log_cs = []
    profile = distfit._expweib_profile
    monkeypatch.setattr(distfit, "_expweib_profile", lambda lx, s, theta: log_cs.append(theta[0]) or profile(lx, s, theta))
    assert distfit._fit_expweib(sequences["broadband"])[1] == distfit.BOUNDARY_C
    assert max(log_cs) <= np.log(distfit.EXPWEIB_MAX_C)


def test_expweib_fit_with_no_finite_start_fails_at_once(monkeypatch):
    # the mean overflows, so the start (c0, scale0) is not finite
    x = 1e307 * np.random.default_rng(3).uniform(1.0, 17.0, 95)
    calls = _count_expweib_profiles(monkeypatch)
    report = distfit.best_fit(x)
    assert DistFamily.EXPONENTIATED_WEIBULL in report.failed
    assert len(calls) <= 1


def test_ks_evaluates_the_erf_based_cdfs_at_under_15_percent_of_a_broadband_sample(sequences, monkeypatch):
    x = sequences["broadband"]
    assert x.size > 80_000
    report = distfit.best_fit(x)
    x_sorted = np.sort(x)
    for family in (DistFamily.NORMAL, DistFamily.LOG_NORMAL, DistFamily.GIBRAT):
        pdf, cdf = distfit._DENSITIES[family]
        points = []
        monkeypatch.setitem(distfit._DENSITIES, family, (pdf, lambda v, *rest, cdf=cdf: points.append(v.size) or cdf(v, *rest)))
        distfit._ks_sorted(report.per_family[family].dist, x_sorted)
        assert sum(points) < 0.15 * x.size, family


def test_ks_equals_the_dense_formula_on_golden_and_broadband_sequences(sequences):
    for name, x in sequences.items():
        x_sorted = np.sort(x)
        report = distfit.best_fit(x)
        assert set(report.per_family) == set(ALL_FAMILIES), name
        for family, ff in report.per_family.items():
            assert ff.ks == dense_ks(ff.dist, x_sorted), (name, family)
