"""The exponentiated-Weibull fit at the edges of its parameter space.

Log-space density and CDF against scipy (where its arithmetic is still exact)
and against mpmath (where t = (x/scale)^c underflows); boundary fits on
power-law samples and on the golden full-mode float32 piece; and the golden
melodies, whose interior fitted parameters must stay bit for bit what they
were before the boundary handling existed.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from soundnet import distfit, spectral
from soundnet.audio_io import decode_wav
from soundnet.distfit import DistFamily, FittedDistribution
from soundnet.errors import NonConvergence
from test_golden import _write_corpus

EW = DistFamily.EXPONENTIATED_WEIBULL

# (a, c, scale): the power-law side (c large, a small), a plain shape, and the
# Frechet side (a large, c small, scale tiny)
EXTREMES = [(1e-3, 900.0, 22050.0), (0.05, 300.0, 1.0), (1.0, 1e3, 400.0), (5.0, 120.0, 3.0), (1e5, 0.2, 1e-3)]


def _x_at(w, c, scale):
    """Samples with c log(x / scale) = w."""
    return scale * np.exp(np.asarray(w, dtype=np.float64) / c)


def _cancellation_tol(a, c, w):
    """Rounding bound of the log density: its large terms (a - 1) log u ~ (a - 1) w
    and (c - 1) log z = (c - 1) w / c cancel."""
    return 1e-13 * (1.0 + (abs(a - 1.0) + abs(c - 1.0) / c) * np.abs(w))


@pytest.mark.parametrize("a, c, scale", EXTREMES)
def test_log_space_matches_scipy_down_to_w_minus_690(a, c, scale):
    # scipy's x**c and expm1 stay exact while t = exp(w) is a normal float, and
    # log(-expm1(-t)) is exact to rounding while 1 - exp(-t) is not close to 1;
    # below w = -700 c the sample x itself would underflow
    w = np.linspace(max(-690.0, -700.0 * c), 0.5, 400)
    x = _x_at(w, c, scale)
    mine = distfit._expweib_logpdf(x, (a, c), 0.0, scale)
    ref = stats.exponweib.logpdf(x, a, c, 0.0, scale)
    assert np.all(np.abs(mine - ref) <= _cancellation_tol(a, c, w))
    # log F = a log(1 - exp(-t)); scipy's log of the a = 1 CDF does not underflow here
    mine = distfit._expweib_logcdf(x, (a, c), 0.0, scale)
    ref = a * stats.exponweib.logcdf(x, 1.0, c, 0.0, scale)
    assert np.allclose(mine, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("a, c, scale", EXTREMES[:4])
def test_log_space_matches_mpmath_where_t_underflows(a, c, scale):
    w = np.linspace(-5000.0, -700.0, 60)
    x = _x_at(w, c, scale)
    logpdf = distfit._expweib_logpdf(x, (a, c), 0.0, scale)
    logcdf = distfit._expweib_logcdf(x, (a, c), 0.0, scale)
    tol = _cancellation_tol(a, c, w)
    with mpmath.workdps(60):
        for i, xi in enumerate(x):
            lz = mpmath.log(mpmath.mpf(float(xi)) / scale)
            t = mpmath.exp(c * lz)
            log_u = mpmath.log(-mpmath.expm1(-t))
            want_cdf = a * log_u
            want_pdf = mpmath.log(a) + mpmath.log(c) - mpmath.log(scale) + (a - 1) * log_u - t + (c - 1) * lz
            assert abs(logcdf[i] - float(want_cdf)) <= 1e-13 * abs(float(want_cdf))
            assert abs(logpdf[i] - float(want_pdf)) <= tol[i]


def test_tail_pdf_and_cdf_come_from_log_space():
    a, c, scale = 1e-3, 900.0, 22050.0
    x = _x_at(np.linspace(-3000.0, 1.0, 200), c, scale)
    fit = FittedDistribution(EW, (a, c), 0.0, scale)
    assert np.array_equal(fit.cdf(x), np.exp(distfit._expweib_logcdf(x, (a, c), 0.0, scale)))
    assert np.array_equal(fit.pdf(x), np.exp(distfit._expweib_logpdf(x, (a, c), 0.0, scale)))
    # where t underflows the CDF is z^(a c) to first order, not 0
    cdf = fit.cdf(x[:5])
    assert np.all(cdf > 0.0)
    assert np.allclose(np.log(cdf), a * c * np.log(x[:5] / scale), rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.floats(-1e4, distfit._TAIL_W, exclude_max=True))
def test_all_interior_fast_path_is_bit_identical_to_the_mixed_path(seed, n, tail_w):
    # _exp_log1mexp skips the tail handling when every w >= -30; adding one w < -30
    # must not change a bit of the other entries
    w = np.random.default_rng(seed).uniform(distfit._TAIL_W, 10.0, n)
    t, log_u = distfit._exp_log1mexp(w)
    t_mixed, log_u_mixed = distfit._exp_log1mexp(np.insert(w, n // 2, tail_w))
    assert np.array_equal(t, np.delete(t_mixed, n // 2))
    assert np.array_equal(log_u, np.delete(log_u_mixed, n // 2))


# --- boundary fits -----------------------------------------------------------

def _power_law(n, k, scale, seed):
    return scale * np.random.default_rng(seed).random(n) ** (1.0 / k)


@pytest.mark.parametrize("n, k, seed", [(5000, 1.0, 1), (3000, 1.0, 2), (4000, 2.5, 3), (2500, 0.6, 4)])
def test_power_law_sample_is_a_boundary_fit(n, k, seed):
    x = _power_law(n, k, 700.0, seed)
    report = distfit.best_fit(x)
    ff = report.per_family[EW]
    assert not ff.converged
    assert ff.reason == distfit.BOUNDARY_C
    assert report.best is not EW
    a, c = ff.dist.shape_params
    assert c <= distfit.EXPWEIB_MAX_C
    assert abs(a * c - k) < 0.2 * k  # a c is the power-law exponent in the limit
    assert 0.0 <= ff.ks.statistic_d < 0.1  # from the log-space CDF
    entry = distfit.report_to_dict(report)["families"]["exponentiated_weibull"]
    assert entry["converged"] is False
    assert entry["reason"] == distfit.BOUNDARY_C
    assert all("reason" not in e for name, e in distfit.report_to_dict(report)["families"].items() if name != EW.value)


def test_fit_mle_raises_nonconvergence_carrying_the_boundary_fit():
    x = _power_law(5000, 1.0, 700.0, 1)
    with pytest.raises(NonConvergence, match="power-law limit") as err:
        distfit.fit_mle(EW, x)
    assert err.value.fit == distfit._fit_expweib(x)[0]


@st.composite
def power_law_samples(draw):
    """Uniform (k = 1) or power-law samples on (0, scale]."""
    k = draw(st.sampled_from([1.0, None]))
    if k is None:
        k = draw(st.floats(0.3, 5.0))
    return _power_law(draw(st.integers(100, 4000)), k, draw(st.floats(1.0, 1e4)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(power_law_samples())
def test_power_law_samples_give_boundary_fits_that_never_win(x):
    report = distfit.best_fit(x)
    ff = report.per_family[EW]
    if ff.converged:
        # a small sample can hold a true interior maximum at large c; it must then
        # beat the power-law MLE, the family's c -> inf limit (the log-space density,
        # since scipy's underflows to -inf at the smallest samples once c is large)
        ew = float(np.sum(distfit._expweib_logpdf(x, ff.dist.shape_params, 0.0, ff.dist.scale)))
        pl = float(np.sum(stats.powerlaw.logpdf(x, -x.size / np.sum(np.log(x / x.max())), 0.0, x.max())))
        assert ew > pl - 1e-9 * abs(pl)
    else:
        assert ff.reason in (distfit.BOUNDARY_C, distfit.BOUNDARY_A, distfit.OUT_OF_BOUNDS)
        assert report.best is not EW


def test_leaving_the_bounds_without_a_boundary_supremum(monkeypatch):
    # this sample's optimum is near c = 2.9 and the search starts near c = 1.5;
    # a bound between them is left, and the profile falls along the power-law ray
    x = stats.exponweib.rvs(0.3, 3.0, scale=10.0, size=2000, random_state=np.random.default_rng(1))
    assert distfit._fit_expweib(x)[1] is None
    monkeypatch.setattr(distfit, "EXPWEIB_MAX_C", 2.0)
    fit, reason = distfit._fit_expweib(x)
    assert reason == distfit.OUT_OF_BOUNDS
    assert 1.5 < fit.shape_params[1] <= 2.0


# --- golden melodies -----------------------------------------------------------

# the exponentiated-Weibull (params, KS D, KS p) of the golden pieces' interior fits: the
# params as computed before the bounds and the log-space tail existed, the KS scores
# from the CDF evaluated in log space
GOLDEN_INTERIOR = {
    ("stft", "a_pcm16"): (
        (122.33272818201526, 0.26769458662020085, 0.0, 1.316621422748634),
        0.10247437078176835,
        0.35251346539555406,
    ),
    ("stft", "b_pcm24_stereo"): (
        (2.7559262534764333, 0.9857883858249931, 0.0, 457.34932049672494),
        0.0789983654932789,
        0.6827232358441933,
    ),
    ("stft", "c_float32"): (
        (29.996908670357453, 0.4164273380205746, 0.0, 25.079945902126056),
        0.06581443570967216,
        0.8725340422375176,
    ),
    ("full", "a_pcm16"): (
        (1014.3580430265116, 0.18152824091448583, 0.0, 0.009297181028017317),
        0.1401749967120436,
        1.0066315643884809e-05,
    ),
    ("full", "b_pcm24_stereo"): (
        (17.559497696263854, 0.5484262986127689, 0.0, 54.418560236572),
        0.12182146103465187,
        0.01313220456412196,
    ),
}


@pytest.fixture(scope="module")
def golden_sequences(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden") / "in"
    _write_corpus(directory)
    seqs = {}
    for path in sorted(directory.iterdir()):
        audio = decode_wav(path)
        seqs["stft", path.stem] = spectral.extract_sequence_stft(audio).values_hz
        spectrum = spectral.dft(audio.samples, audio.sample_rate_hz)
        seqs["full", path.stem] = spectral.extract_sequence_full(spectrum).values_hz
    return seqs


def test_golden_melodies_keep_their_interior_fits(golden_sequences):
    for key, (params, ks_d, ks_p) in GOLDEN_INTERIOR.items():
        ff = distfit.best_fit(golden_sequences[key]).per_family[EW]
        assert (ff.dist.params_list(), ff.ks.statistic_d, ff.ks.p_value) == (list(params), ks_d, ks_p), key
        assert ff.converged and ff.reason is None, key


def test_golden_float32_full_mode_is_a_frechet_boundary_fit(golden_sequences):
    report = distfit.best_fit(golden_sequences["full", "c_float32"])
    ff = report.per_family[EW]
    assert not ff.converged
    assert ff.reason == distfit.BOUNDARY_A
    a, _c = ff.dist.shape_params
    assert a <= distfit.EXPWEIB_MAX_A
    assert report.best is DistFamily.GIBRAT
