"""The exponentiated-Weibull fit at the edges of its parameter space.

Log-space density and CDF against scipy (where its arithmetic is still exact)
and against mpmath (where t = (x/scale)^c underflows, and where 1 - exp(-t)
is close to 1); the profile's closed-form derivatives against finite
differences; boundary fits on power-law samples and on the golden full-mode
float32 piece; converged fits as stationary points no worse than scipy's
Nelder-Mead; and the golden melodies' interior fits, pinned.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

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


def test_log1mexp_matches_mpmath_where_1_minus_exp_is_near_1():
    # Maechler's log1p(-exp(-t)) branch above t = log 2: log(-expm1(-t)) would lose
    # relative accuracy as e^t / 2^53 here (3e-8 at w = 3); the mixed path (one
    # tail entry prepended) must give the same values
    w = np.concatenate([np.linspace(0.0, 3.0, 301), [math.log(math.log(2.0)), math.nextafter(math.log(math.log(2.0)), 1.0)]])
    for t, log_u in (distfit._exp_log1mexp(w), [v[1:] for v in distfit._exp_log1mexp(np.insert(w, 0, -100.0))]):
        with mpmath.workdps(50):
            want_t = [mpmath.exp(mpmath.mpf(float(wi))) for wi in w]
            want = [float(mpmath.log(-mpmath.expm1(-ti))) for ti in want_t]
        assert np.allclose(t, [float(ti) for ti in want_t], rtol=1e-15, atol=0.0)
        assert np.all(np.abs(log_u - want) <= 1e-14 * np.abs(want))


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
    # adding one w < -30 (a tail entry) to a vector of w >= -30 must not change
    # a bit of the other entries
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


@pytest.mark.parametrize("seed, n", [(64, 2868), (594, 2478), (799, 2563)])
def test_a_c_bound_stop_that_the_power_law_mle_beats_is_a_boundary_fit(seed, n):
    # the search stops on the c bound with P still falling, and the power-law MLE,
    # the c -> inf limit, lies below P there: the supremum is that limit
    x = np.random.default_rng([seed, 1]).uniform(0.1, 10.0, n)
    fit, reason = distfit._fit_expweib(x)
    assert reason == distfit.BOUNDARY_C
    assert fit.shape_params[1] == pytest.approx(distfit.EXPWEIB_MAX_C, rel=1e-12)
    lx = np.log(x)
    ew = -float(np.sum(distfit._expweib_logpdf(x, fit.shape_params, 0.0, fit.scale)))
    assert distfit._powerlaw_limit_nll(n, float(np.sum(lx)), float(lx.max())) < ew


def test_leaving_the_bounds_without_a_boundary_supremum(monkeypatch):
    # this sample's optimum is near c = 2.9 and the search starts near c = 1.5;
    # a bound between them is left with P still falling, well below the power-law MLE
    x = stats.exponweib.rvs(0.3, 3.0, scale=10.0, size=2000, random_state=np.random.default_rng(1))
    assert distfit._fit_expweib(x)[1] is None
    monkeypatch.setattr(distfit, "EXPWEIB_MAX_C", 2.0)
    fit, reason = distfit._fit_expweib(x)
    assert reason == distfit.OUT_OF_BOUNDS
    assert 1.5 < fit.shape_params[1] <= 2.0


# --- the Newton search -----------------------------------------------------------

def _profile_at(x, c, scale):
    lx = np.log(x)
    return distfit._expweib_profile(lx, float(np.sum(lx)), np.array([math.log(c), math.log(scale)]))


def _exact_profile(x, c, scale):
    """The profile negative log-likelihood at (c, scale), in 40-digit mpmath."""
    with mpmath.workdps(40):
        c, scale = mpmath.mpf(float(c)), mpmath.mpf(float(scale))
        lz = [mpmath.log(mpmath.mpf(float(xi)) / scale) for xi in x]
        t = [mpmath.exp(c * v) for v in lz]
        sum_log_u = mpmath.fsum(mpmath.log(-mpmath.expm1(-ti)) for ti in t)
        a = -len(lz) / sum_log_u
        loglik = len(lz) * (mpmath.log(a) + mpmath.log(c) - mpmath.log(scale)) + (a - 1) * sum_log_u
        return -float(loglik - mpmath.fsum(t) + (c - 1) * mpmath.fsum(lz))


@pytest.mark.parametrize(
    "a, c, scale, c_at, scale_at",
    [
        (3.0, 0.9, 400.0, 0.7, 350.0),  # an interior melody-like point
        (0.05, 300.0, 1.0, 250.0, 0.98),  # near the power-law side: t underflows for most samples
        (50.0, 0.3, 0.01, 0.25, 0.02),  # the Frechet side: t up to about 25, a large
    ],
)
def test_profile_derivatives_match_finite_differences(a, c, scale, c_at, scale_at):
    x = stats.exponweib.rvs(a, c, scale=scale, size=500, random_state=np.random.default_rng(5))
    value, _a, grad, hess = _profile_at(x, c_at, scale_at)
    theta = np.log([c_at, scale_at])
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        up = _profile_at(x, *np.exp(theta + e))
        down = _profile_at(x, *np.exp(theta - e))
        assert abs((up[0] - down[0]) / (2 * h) - grad[i]) <= 1e-5 * (1.0 + np.abs(grad).max()), i
        # the Hessian against differences of the (checked) gradient
        assert np.allclose((up[2] - down[2]) / (2 * h), hess[i], rtol=1e-5, atol=1e-5 * np.abs(hess).max()), i
    # P is the negative log-likelihood with a at its closed form
    assert value == pytest.approx(-np.sum(stats.exponweib.logpdf(x, _a, c_at, 0.0, scale_at)), rel=1e-12)


def test_newton_step_descends_where_the_hessian_is_not_positive_definite():
    grad = np.array([1.0, 1.0])
    # eigenvalues 2 and -4 are used as 2 and 4
    step = distfit._newton_step(grad, np.diag([2.0, -4.0]))
    assert np.allclose(step, [-0.5, -0.25])
    # a positive-definite Hessian gives the plain Newton step
    pd = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(distfit._newton_step(grad, pd), -np.linalg.solve(pd, grad))
    # a long step is cut to length 2; a zero eigenvalue is floored
    for hess in (1e-3 * pd, np.diag([1.0, 0.0])):
        step = distfit._newton_step(grad, hess)
        assert math.hypot(*step) == pytest.approx(2.0)
        assert grad @ step < 0.0


def _expweib_start(x):
    """The search's start point, (c0, scale0) from the coefficient of variation."""
    c0 = min(max((x.std() / x.mean()) ** -1.086, 0.1), 20.0)
    return c0, x.mean() / math.gamma(1.0 + 1.0 / c0)


@st.composite
def fit_samples(draw):
    """Seeded power-law, uniform, lognormal and exponentiated-Weibull samples."""
    kind = draw(st.sampled_from(["powerlaw", "uniform", "lognormal", "expweib"]))
    n = draw(st.integers(20, 2000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "powerlaw":
        return _power_law(n, draw(st.floats(0.3, 5.0)), draw(st.floats(1.0, 1e4)), seed)
    if kind == "uniform":
        lo = draw(st.floats(0.0, 1e3))
        return rng.uniform(lo, lo + draw(st.floats(1.0, 1e4)), n)
    if kind == "lognormal":
        return draw(st.floats(0.1, 1e4)) * rng.lognormal(0.0, draw(st.floats(0.2, 2.0)), n)
    a, c, scale = draw(st.floats(0.2, 20.0)), draw(st.floats(0.2, 5.0)), draw(st.floats(0.1, 1e3))
    return stats.exponweib.rvs(a, c, scale=scale, size=n, random_state=rng)


# a lognormal sample whose fit lies at a ~ 4e4, where scipy's float profile
# puts the simplex's end point 1e-12 relative below the fit
FRECHET_SIDE_SAMPLE = np.array(
    [1.3262623206945465, 1.015101375805138, 0.4480381573824864, 0.9060797236304071, 3.41113907836438,
     2.675392454860807, 0.5123089792821693, 0.883194731519642, 1.797355368983285, 0.6055701465506564,
     1.0105719366821408, 0.8282402489918214, 0.9840633804624794, 1.3029906457063087, 0.9848554172839377,
     0.5637822539218099, 1.1523509864705557, 1.3206402192350888, 0.8328624048473154, 0.48522522979634514]
)


@settings(max_examples=60, deadline=None)
@given(fit_samples())
@example(FRECHET_SIDE_SAMPLE)
def test_converged_fit_is_a_stationary_point_no_worse_than_the_simplex(x):
    fit, reason = distfit._fit_expweib(x)
    if reason is not None:
        return
    value, _a, grad, hess = _profile_at(x, fit.shape_params[1], fit.scale)
    # a local minimum: a positive-definite profile Hessian, and a Newton decrement
    # (the quadratic model's estimate of how far P is above it) at rounding level
    assert np.linalg.eigvalsh(hess).min() > 0.0
    assert grad @ np.linalg.solve(hess, grad) <= 1e-12 * abs(value)

    # scipy's Nelder-Mead from the same start, inside the same bounds, on the
    # profile computed with scipy's densities; the two end points are compared on
    # the exact profile, since scipy's float profile is off by more than the
    # tolerance near either limit (by 1e-12 relative at a ~ 4e4, and by 0.3 at c ~ 100)
    def bounded(theta):
        c, scale = np.exp(theta)
        with np.errstate(all="ignore"):
            a = -x.size / np.sum(stats.exponweib.logcdf(x, 1.0, c, 0.0, scale))
            nll = -np.sum(stats.exponweib.logpdf(x, a, c, 0.0, scale))
        return nll if c <= distfit.EXPWEIB_MAX_C and 0.0 < a <= distfit.EXPWEIB_MAX_A and np.isfinite(nll) else np.inf

    start = np.log(_expweib_start(x))
    simplex = optimize.minimize(
        bounded, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14 * abs(value), "maxiter": 4000}
    )
    exact_fit = _exact_profile(x, fit.shape_params[1], fit.scale)
    exact_simplex = _exact_profile(x, *np.exp(simplex.x))
    assert exact_fit <= exact_simplex + 1e-12 * abs(exact_simplex)


# --- golden melodies -----------------------------------------------------------

# the exponentiated-Weibull (params, KS D, KS p) of the golden pieces' interior fits
GOLDEN_INTERIOR = {
    ("stft", "a_pcm16"): (
        (122.33271449235322, 0.2676945993571009, 0.0, 1.316621896985159),
        0.10247436735831422,
        0.35251350546425597,
    ),
    ("stft", "b_pcm24_stereo"): (
        (2.7559270793920203, 0.9857882638890398, 0.0, 457.34920517269836),
        0.07899836180649086,
        0.6827232920976634,
    ),
    ("stft", "c_float32"): (
        (29.99688470391696, 0.4164274276823549, 0.0, 25.07997605596412),
        0.065814441827304,
        0.8725339711416569,
    ),
    ("full", "a_pcm16"): (
        (1014.3565059172289, 0.18152828120750067, 0.0, 0.009297214316894726),
        0.1401750000864126,
        1.0066309731493793e-05,
    ),
    ("full", "b_pcm24_stereo"): (
        (17.55949045411231, 0.5484263599810615, 0.0, 54.41858637143124),
        0.12182145962181898,
        0.013132206095006626,
    ),
}
# the same fits' params as the Nelder-Mead simplex found them, before the Newton search
SIMPLEX_INTERIOR = {
    ("stft", "a_pcm16"): (122.33272818201526, 0.26769458662020085, 0.0, 1.316621422748634),
    ("stft", "b_pcm24_stereo"): (2.7559262534764333, 0.9857883858249931, 0.0, 457.34932049672494),
    ("stft", "c_float32"): (29.996908670357453, 0.4164273380205746, 0.0, 25.079945902126056),
    ("full", "a_pcm16"): (1014.3580430265116, 0.18152824091448583, 0.0, 0.009297181028017317),
    ("full", "b_pcm24_stereo"): (17.559497696263854, 0.5484262986127689, 0.0, 54.418560236572),
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
        # no worse than where the simplex stopped, by scipy's log density
        x = golden_sequences[key]
        nll = -np.sum(stats.exponweib.logpdf(x, *params[:2], 0.0, params[3]))
        a, c, _, scale = SIMPLEX_INTERIOR[key]
        simplex_nll = -np.sum(stats.exponweib.logpdf(x, a, c, 0.0, scale))
        assert nll <= simplex_nll + 1e-12 * abs(simplex_nll), key


def test_golden_float32_full_mode_is_a_frechet_boundary_fit(golden_sequences):
    report = distfit.best_fit(golden_sequences["full", "c_float32"])
    ff = report.per_family[EW]
    assert not ff.converged
    assert ff.reason == distfit.BOUNDARY_A
    a, _c = ff.dist.shape_params
    assert a <= distfit.EXPWEIB_MAX_A
    assert report.best is DistFamily.GIBRAT
