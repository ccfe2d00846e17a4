"""Deterministic cost guards for best_fit: they count work, not time.

The sequences are the six golden ones (three melodies, STFT and full mode)
and one broadband recording: 10 s of seeded white noise as 16-bit mono WAV,
recording 0 of the benchmark's `full_broadband` input set 0, whose full-mode
sequence holds about 87k components. Recordings 0-7 of input sets 0 and 1
check the exponentiated-Weibull search's pilot warm start, and seeded Frechet
samples the Frechet MLE's root search at stops on its a bound.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_ks, pcm16_payload, wav_bytes
from soundnet import distfit
from soundnet.cli import RunConfig, analyze_file
from soundnet.distfit import ALL_FAMILIES, DistFamily
from soundnet.errors import InvalidFit
from test_expweib import _frechet_survey_sample
from test_golden import _write_corpus

NOISE_RATE = 44100


def _write_noise(path, input_set, recording):
    """Recording `recording` of the benchmark's `full_broadband` input set `input_set`."""
    noise = 0.2 * np.random.default_rng([input_set, 1 << 20, recording]).standard_normal(10 * NOISE_RATE)
    codes = np.round(np.clip(noise, -1.0, 1.0) * 32767.0).astype(int)
    path.write_bytes(wav_bytes(pcm16_payload(codes.tolist()), rate=NOISE_RATE))
    return path


def _full_mode_sequence(wav):
    return np.asarray(analyze_file(wav, RunConfig(mode="full"))[3].values_hz)


@pytest.fixture(scope="module")
def sequences(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit_cost")
    _write_corpus(root / "golden")
    seqs = {}
    for mode in ("stft", "full"):
        for wav in sorted((root / "golden").glob("*.wav")):
            seqs[f"{mode}/{wav.stem}"] = np.asarray(analyze_file(wav, RunConfig(mode=mode))[3].values_hz)
    seqs["broadband"] = _full_mode_sequence(_write_noise(root / "noise.wav", 0, 0))
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
    # each evaluation gives P with its gradient and Hessian
    calls = _count_expweib_profiles(monkeypatch)
    for name, x in sequences.items():
        calls.clear()
        distfit._fit_expweib(x)
        assert len(calls) <= 40, name


def test_frechet_mle_takes_at_most_20_score_evaluations_per_a_bound_stop(sequences, monkeypatch):
    # the Frechet MLE decides a stop that leaves the a bound; it is found only there
    calls = []
    score = distfit._frechet_score
    monkeypatch.setattr(distfit, "_frechet_score", lambda *args: calls.append(1) or score(*args))
    samples = {"full/c_float32": sequences["full/c_float32"]}
    samples.update((f"frechet/{seed}", _frechet_survey_sample(seed)) for seed in (0, 3, 6, 438, 561))
    for name, x in samples.items():
        calls.clear()
        assert distfit._search_expweib(x, None)[1] in (distfit.BOUNDARY_A, distfit.OUT_OF_BOUNDS), name
        assert 0 < len(calls) <= 20, name
    calls.clear()
    assert distfit._fit_expweib(sequences["broadband"])[1] == distfit.BOUNDARY_C
    assert not calls


def test_expweib_fit_on_the_broadband_sequence_takes_at_most_4_full_sample_evaluations(sequences, monkeypatch):
    # the pilot search on 4,096 order statistics ends near the point the full
    # search reaches, so the full sample is evaluated only a few times
    x = sequences["broadband"]
    sizes = []
    profile = distfit._expweib_profile
    monkeypatch.setattr(distfit, "_expweib_profile", lambda lx, s, theta: sizes.append(lx.size) or profile(lx, s, theta))
    distfit._fit_expweib(x)
    assert sizes.count(x.size) <= 4


def test_expweib_warm_start_keeps_the_cold_reason_on_noise_recordings(tmp_path):
    for input_set in (0, 1):
        for recording in range(8):
            x = _full_mode_sequence(_write_noise(tmp_path / "noise.wav", input_set, recording))
            assert x.size >= distfit._PILOT_MIN_N
            assert distfit._fit_expweib(x)[1] == distfit._search_expweib(x, None)[1], (input_set, recording)


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


def test_expweib_fit_with_no_finite_start_fails_after_the_pilot_and_one_full_evaluation(monkeypatch):
    # the pilot and the full sample both overflow their mean: one evaluation each
    x = 1e307 * np.random.default_rng(3).uniform(1.0, 17.0, 40_000)
    calls = _count_expweib_profiles(monkeypatch)
    with pytest.raises(InvalidFit):
        distfit.fit_mle(DistFamily.EXPONENTIATED_WEIBULL, x)
    assert len(calls) <= 2


def test_ks_evaluates_the_erf_based_cdfs_at_under_15_percent_of_a_broadband_sample(sequences, monkeypatch):
    x = sequences["broadband"]
    assert x.size > 80_000
    report = distfit.best_fit(x)
    x_sorted = np.sort(x)
    for family in (DistFamily.NORMAL, DistFamily.LOG_NORMAL, DistFamily.GIBRAT):
        cdf = distfit._FAMILIES[family].cdf
        points = []
        monkeypatch.setitem(distfit._FAMILIES, family, replace(distfit._FAMILIES[family], cdf=lambda v, *rest, cdf=cdf: points.append(v.size) or cdf(v, *rest)))
        distfit._ks_sorted(report.per_family[family].dist, x_sorted)
        assert sum(points) < 0.15 * x.size, family


def test_ks_equals_the_dense_formula_on_golden_and_broadband_sequences(sequences):
    for name, x in sequences.items():
        x_sorted = np.sort(x)
        report = distfit.best_fit(x)
        assert set(report.per_family) == set(ALL_FAMILIES), name
        for family, ff in report.per_family.items():
            assert ff.ks == dense_ks(ff.dist, x_sorted), (name, family)
