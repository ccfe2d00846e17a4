import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from conftest import dense_ks
from soundnet import distfit
from soundnet.distfit import ALL_FAMILIES, DistFamily, FittedDistribution
from soundnet.errors import AllFitsFailed, DegenerateData, InsufficientData, InvalidFit, NonConvergence, NonFiniteValues


def repeat(values, times=7):
    return np.asarray(list(values) * times, dtype=np.float64)


# --- closed-form MLE anchors ---------------------------------------------------

def test_exponential_closed_form():
    fit = distfit.fit_mle(DistFamily.EXPONENTIAL, repeat([1.0, 2.0, 3.0]))
    assert fit.loc == 1.0
    assert fit.scale == 1.0


def test_normal_closed_form():
    fit = distfit.fit_mle(DistFamily.NORMAL, repeat([-1.0, 0.0, 1.0]))
    assert fit.loc == 0.0
    assert abs(fit.scale - math.sqrt(2.0 / 3.0)) < 1e-12


def test_lognormal_closed_form(rng):
    x = rng.lognormal(mean=1.0, sigma=0.5, size=50_000)
    fit = distfit.fit_mle(DistFamily.LOG_NORMAL, x)
    assert abs(fit.shape_params[0] - 0.5) < 0.02
    assert abs(fit.scale - math.e) < 0.05
    assert fit.loc == 0.0


def test_pareto_hill_estimator(rng):
    b_true = 2.5
    x = 3.0 * (1.0 - rng.random(50_000)) ** (-1.0 / b_true)  # inverse-CDF oracle
    fit = distfit.fit_mle(DistFamily.PARETO, x)
    assert abs(fit.shape_params[0] - b_true) / b_true < 0.03
    assert fit.scale == x.min()


def test_powerlaw_closed_form(rng):
    a_true = 1.8
    x = 10.0 * rng.random(50_000) ** (1.0 / a_true)  # z = u^(1/a) oracle
    fit = distfit.fit_mle(DistFamily.POWER_LAW, x)
    assert abs(fit.shape_params[0] - a_true) / a_true < 0.03
    assert fit.scale == x.max()


def test_exponential_recovery_large_sample():
    draws = np.random.default_rng(2024).exponential(scale=50.0, size=100_000)
    fit = distfit.fit_mle(DistFamily.EXPONENTIAL, draws)
    assert abs(fit.scale - 50.0) / 50.0 < 0.01


def test_gibrat_fit_recovers_standard_lognormal():
    draws = np.random.default_rng(9).lognormal(mean=0.0, sigma=1.0, size=10_000)
    fit = distfit.fit_mle(DistFamily.GIBRAT, draws)
    assert abs(fit.loc) < 0.1
    assert abs(fit.scale - 1.0) < 0.1


def test_expweib_nests_exponential():
    draws = np.random.default_rng(10).exponential(scale=5.0, size=10_000)
    fit = distfit.fit_mle(DistFamily.EXPONENTIATED_WEIBULL, draws)
    a, c = fit.shape_params
    assert abs(a - 1.0) < 0.2
    assert abs(c - 1.0) < 0.2


def test_insufficient_and_degenerate():
    with pytest.raises(InsufficientData):
        distfit.fit_mle(DistFamily.NORMAL, [1.0] * 19)
    with pytest.raises(DegenerateData):
        distfit.fit_mle(DistFamily.NORMAL, [2.5] * 25)
    with pytest.raises(DegenerateData):
        distfit.best_fit([2.5] * 25)


def test_nonconvergence_carries_partial_fit(monkeypatch):
    # two profile evaluations are too few for the Newton search to converge
    monkeypatch.setattr(distfit, "_EXPWEIB_MAX_EVALS", 2)
    draws = np.random.default_rng(0).lognormal(size=1000)
    with pytest.raises(NonConvergence) as err:
        distfit.fit_mle(DistFamily.EXPONENTIATED_WEIBULL, draws)
    assert err.value.fit is not None
    assert distfit.EVAL_CAP in str(err.value)
    report = distfit.best_fit(draws)
    ff = report.per_family[DistFamily.EXPONENTIATED_WEIBULL]
    assert not ff.converged and ff.reason == distfit.EVAL_CAP
    assert ff.dist == err.value.fit
    assert report.best is not DistFamily.EXPONENTIATED_WEIBULL


def test_gibrat_root_search_failure_carries_partial_fit(monkeypatch):
    # two score evaluations are too few to bracket the root and close in on it
    monkeypatch.setattr(distfit, "_ROOT_MAX_EVALS", 2)
    draws = np.random.default_rng(0).lognormal(size=1000)
    with pytest.raises(NonConvergence) as err:
        distfit.fit_mle(DistFamily.GIBRAT, draws)
    fit = err.value.fit
    assert distfit.ROOT_SEARCH_FAILED in str(err.value)
    assert fit.family is DistFamily.GIBRAT and fit.loc < draws.min() and fit.scale > 0.0
    assert abs(fit.scale - np.exp(np.mean(np.log(draws - fit.loc)))) <= 1e-12 * fit.scale
    report = distfit.best_fit(draws)
    ff = report.per_family[DistFamily.GIBRAT]
    assert not ff.converged and ff.reason == distfit.ROOT_SEARCH_FAILED
    assert ff.dist == fit
    assert report.best is not DistFamily.GIBRAT


# synthetic scores for _root_search: score(v) = (g, dg/dv, state), here with state = v


def _score(g, h=0.0, finite=lambda v: True):
    return lambda v: (g(v), h, v) if finite(v) else (math.nan, math.nan, None)


def test_root_search_fails_once_the_outward_step_passes_the_v_cap():
    # g < 0 everywhere: the steps from 0 reach 1, 3, ..., 511, and 1023 is past the cap
    assert distfit._root_search(_score(lambda v: -1.0), 0.0) == (511.0, False)


def test_root_search_ends_when_the_bracket_collapses_before_newton_converges():
    # dg/dv = 0 leaves no Newton step, so every step bisects the bracket
    state, found = distfit._root_search(_score(lambda v: v - 0.3), 0.0)
    assert found and abs(state - 0.3) <= distfit._ROOT_TOL


def test_root_search_fails_on_a_bracket_that_collapses_onto_the_lower_domain_edge():
    # g > 0 wherever it is finite, and it is not finite from -0.5 down: the root lies
    # past the edge, so the bracket closes on the edge from above and the search fails
    state, found = distfit._root_search(_score(lambda v: 1.0, finite=lambda v: v > -0.5), 0.0)
    assert not found and -0.5 < state <= -0.5 + distfit._ROOT_TOL


def test_root_search_fails_on_a_non_finite_point_above():
    # g < 0 at 0 and not finite from 0.5 up: the first step up fails, keeping the start's state
    assert distfit._root_search(_score(lambda v: -1.0, h=1.0, finite=lambda v: v < 0.5), 0.0) == (0.0, False)


# --- KS test ---------------------------------------------------------------------

def test_ks_single_point():
    fit = FittedDistribution(DistFamily.EXPONENTIAL, (), 0.0, 1.0)
    res = distfit.ks_test(fit, [math.log(2.0)])
    assert abs(res.statistic_d - 0.5) < 1e-15
    assert res.n == 1


@pytest.mark.parametrize("empty", [[], np.empty((0, 3))], ids=["list", "array_0x3"])
def test_ks_rejects_empty_sample(empty):
    fit = FittedDistribution(DistFamily.EXPONENTIAL, (), 0.0, 1.0)
    with pytest.raises(InsufficientData):
        distfit.ks_test(fit, empty)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_rejects_non_finite_samples(bad):
    fit = FittedDistribution(DistFamily.EXPONENTIAL, (), 0.0, 1.0)
    with pytest.raises(NonFiniteValues):
        distfit.ks_test(fit, [1.0, bad, 3.0])


def test_ks_quantile_grid_midpoints():
    # samples at F^-1((i-0.5)/n) make D = 1/(2n) exactly
    n = 100
    scale = 50.0
    p = (np.arange(1, n + 1) - 0.5) / n
    x = -scale * np.log1p(-p)
    fit = FittedDistribution(DistFamily.EXPONENTIAL, (), 0.0, scale)
    res = distfit.ks_test(fit, x)
    assert abs(res.statistic_d - 0.005) < 1e-12


def test_ks_p_value_against_tabulated():
    assert abs(distfit._kolmogorov_q(1.36) - 0.049) < 1e-3
    # scipy's kstwobign is the same asymptotic law
    for lam in (0.5, 0.9, 1.36, 2.0):
        assert abs(distfit._kolmogorov_q(lam) - stats.kstwobign.sf(lam)) < 1e-6


def test_ks_p_value_small_lambda_against_scipy():
    # below the series cutoff the theta-function form takes over; lambda >= 1/(2 sqrt(n))
    # puts 1e5-sample fits at lambda ~ 0.002
    for lam in np.concatenate([np.geomspace(0.001, 0.3, 60), [0.0376, 0.04, 0.0401]]):
        assert abs(distfit._kolmogorov_q(float(lam)) - stats.kstwobign.sf(lam)) < 1e-12
    assert distfit._kolmogorov_q(0.0) == 1.0
    assert distfit._kolmogorov_q(0.005) == 1.0
    assert distfit._kolmogorov_q(0.01) == 1.0


def test_ks_p_value_exact_against_scipy():
    # below 1.18 the four-term theta form, above it the alternating series: both exact to rounding
    for lam in np.linspace(0.001, 3.0, 3000):
        assert abs(distfit._kolmogorov_q(float(lam)) - stats.kstwobign.sf(lam)) < 1e-14, lam


def test_ks_self_fit_p_value(rng):
    draws = rng.exponential(scale=50.0, size=10_000)
    fit = distfit.fit_mle(DistFamily.EXPONENTIAL, draws)
    res = distfit.ks_test(fit, draws)
    assert res.p_value > 0.01


def test_ks_statistic_matches_scipy(rng):
    draws = rng.lognormal(size=500)
    fit = distfit.fit_mle(DistFamily.GIBRAT, draws)
    mine = distfit.ks_test(fit, draws).statistic_d
    ref = stats.kstest(draws, lambda v: fit.cdf(v)).statistic
    assert abs(mine - ref) < 1e-12


def test_ks_loc_scale_equivariance(rng):
    draws = rng.normal(3.0, 2.0, size=200)
    for family in (DistFamily.NORMAL, DistFamily.EXPONENTIAL, DistFamily.GIBRAT):
        fit = distfit._FAMILIES[family].fit(np.abs(draws) + 0.5)[0]
        base = distfit.ks_test(fit, np.abs(draws) + 0.5).statistic_d
        a, b = 3.5, 11.0
        moved = FittedDistribution(family, fit.shape_params, a * fit.loc + b, a * fit.scale)
        shifted = distfit.ks_test(moved, a * (np.abs(draws) + 0.5) + b).statistic_d
        assert abs(base - shifted) < 1e-12


# --- distribution shape invariants -------------------------------------------------

def _fitted_instances(rng):
    x = rng.lognormal(mean=1.2, sigma=0.7, size=5_000) + 0.5
    return [distfit._FAMILIES[family].fit(x)[0] for family in ALL_FAMILIES]


def test_pdf_nonnegative_cdf_monotone(rng):
    for fit in _fitted_instances(rng):
        grid = np.linspace(-1.0, 200.0, 10_000)
        pdf = fit.pdf(grid)
        cdf = fit.cdf(grid)
        assert np.all(pdf >= 0.0), fit.family
        assert np.all(np.diff(cdf) >= -1e-12), fit.family
        assert np.all((cdf >= 0.0) & (cdf <= 1.0)), fit.family
        assert fit.cdf(np.array([-np.inf]))[0] == 0.0
        assert fit.cdf(np.array([np.inf]))[0] == 1.0


def test_pdf_integrates_to_one(rng):
    # independent quadrature oracle
    for fit in _fitted_instances(rng):
        lo = fit.loc if fit.family is not DistFamily.NORMAL else -np.inf
        hi = fit.loc + fit.scale if fit.family is DistFamily.POWER_LAW else np.inf
        total, _ = integrate.quad(lambda v: float(fit.pdf(np.array([v]))[0]), lo, hi, limit=300)
        assert 0.9999 <= total <= 1.0001, (fit.family, total)


def test_pdf_cdf_match_scipy_conventions(rng):
    grid = np.linspace(0.05, 40.0, 400)
    pairs = [
        (FittedDistribution(DistFamily.NORMAL, (), 3.0, 2.0), stats.norm(3.0, 2.0)),
        (FittedDistribution(DistFamily.LOG_NORMAL, (0.8,), 0.0, 3.0), stats.lognorm(0.8, 0.0, 3.0)),
        (FittedDistribution(DistFamily.EXPONENTIAL, (), 0.1, 5.0), stats.expon(0.1, 5.0)),
        (FittedDistribution(DistFamily.PARETO, (1.7,), 0.0, 2.0), stats.pareto(1.7, 0.0, 2.0)),
        (FittedDistribution(DistFamily.GIBRAT, (), 0.5, 2.0), stats.gibrat(0.5, 2.0)),
        (FittedDistribution(DistFamily.POWER_LAW, (1.4,), 0.0, 20.0), stats.powerlaw(1.4, 0.0, 20.0)),
        (
            FittedDistribution(DistFamily.EXPONENTIATED_WEIBULL, (1.3, 0.9), 0.0, 5.0),
            stats.exponweib(1.3, 0.9, 0.0, 5.0),
        ),
    ]
    for mine, ref in pairs:
        assert np.max(np.abs(mine.cdf(grid) - ref.cdf(grid))) < 1e-12, mine.family
        assert np.max(np.abs(mine.pdf(grid) - ref.pdf(grid))) < 1e-10, mine.family


def test_fit_is_local_likelihood_optimum(rng):
    x = rng.lognormal(mean=1.0, sigma=0.6, size=2_000) + 1.0
    for family in ALL_FAMILIES:
        fit = distfit._FAMILIES[family].fit(x)[0]
        base = fit.loglike(x)
        probe_rng = np.random.default_rng(99)
        for _ in range(100):
            shapes = tuple(s * (1.0 + 0.005 * probe_rng.standard_normal()) for s in fit.shape_params)
            loc = fit.loc + 0.005 * fit.scale * probe_rng.standard_normal()
            scale = fit.scale * (1.0 + 0.005 * probe_rng.standard_normal())
            if family in (DistFamily.LOG_NORMAL, DistFamily.PARETO, DistFamily.POWER_LAW, DistFamily.EXPONENTIATED_WEIBULL):
                loc = fit.loc  # loc pinned in these parameterizations
            if family is DistFamily.POWER_LAW and scale < x.max():
                continue  # support would exclude the sample maximum
            if family is DistFamily.PARETO and scale > x.min():
                continue
            probed = FittedDistribution(family, shapes, loc, scale)
            assert probed.loglike(x) <= base + 1e-6, family


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profiled_expweib_beats_scipy_fit(seed):
    x = stats.exponweib.rvs(2.5, 1.3, scale=40.0, size=2_000, random_state=np.random.default_rng(seed))
    fit = distfit.fit_mle(DistFamily.EXPONENTIATED_WEIBULL, x)
    a, c = fit.shape_params
    ours = float(np.sum(stats.exponweib.logpdf(x, a, c, 0.0, fit.scale)))
    ra, rc, _, rscale = stats.exponweib.fit(x, floc=0)
    ref = float(np.sum(stats.exponweib.logpdf(x, ra, rc, 0.0, rscale)))
    assert ours >= ref - 1e-9 * abs(ref)
    # the shape a is the closed-form MLE at the reported (c, scale)
    closed = -x.size / np.sum(np.log(-np.expm1(-((x / fit.scale) ** c))))
    assert abs(a - closed) <= 1e-12 * closed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profiled_gibrat_beats_scipy_fit(seed):
    x = np.random.default_rng(seed).lognormal(size=2_000) * 30.0 + 12.0
    fit = distfit.fit_mle(DistFamily.GIBRAT, x)
    ours = float(np.sum(stats.lognorm.logpdf(x, 1.0, fit.loc, fit.scale)))
    _, rloc, rscale = stats.lognorm.fit(x, f0=1)
    ref = float(np.sum(stats.lognorm.logpdf(x, 1.0, rloc, rscale)))
    assert ours >= ref - 1e-9 * abs(ref)
    # the scale is the closed-form MLE at the reported loc
    assert abs(fit.scale - np.exp(np.mean(np.log(x - fit.loc)))) <= 1e-12 * fit.scale


def _gibrat_nll(x, loc):
    """The Gibrat profile negative log-likelihood, with the scale at its MLE for `loc`:
    sum(log(x - loc)) + sum(lz^2) / 2 + n log(2 pi) / 2, lz being log(x - loc) less
    its mean. All its terms go through one math.fsum, which rounds only the total:
    near the fit a 1e-6 step in loc can move the likelihood by less than the
    rounding error of a plain float sum, and the comparisons would read that."""
    lxl = np.log(x - loc)
    lz = lxl - math.fsum(lxl) / x.size
    return math.fsum(np.concatenate([lxl, 0.5 * lz * lz, [x.size * 0.5 * math.log(2.0 * math.pi)]]))


@st.composite
def gibrat_samples(draw):
    """Seeded lognormal, uniform and noise-like samples: the last are distinct
    frequencies on the bin grid of a 2^19-point transform at 44.1 kHz."""
    kind = draw(st.sampled_from(["lognormal", "uniform", "noise"]))
    n = draw(st.integers(20, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lognormal":
        return draw(st.floats(0.1, 1e4)) * rng.lognormal(0.0, draw(st.floats(0.2, 2.0)), n) + draw(st.floats(-1e3, 1e3))
    if kind == "uniform":
        return rng.uniform(draw(st.floats(-1e3, 1e3)), 1e3 + draw(st.floats(1.0, 1e4)), n)
    step = 44100.0 / 2**19
    return np.unique(np.round(rng.uniform(20.0, 22050.0, n) / step)) * step


@settings(max_examples=60, deadline=None)
@given(gibrat_samples())
def test_gibrat_fit_is_a_stationary_point_no_worse_than_the_simplex(x):
    fit, reason = distfit._fit_gibrat(x)
    assert reason is None
    lo, hi = float(x.min()), float(x.max())
    ours = _gibrat_nll(x, fit.loc)
    step = 1e-6 * (lo - fit.loc)
    assert ours <= _gibrat_nll(x, fit.loc - step)
    assert ours <= _gibrat_nll(x, fit.loc + step)
    # the search this fit replaced: a Nelder-Mead simplex over loc from lo - 0.1 (hi - lo),
    # run to a simplex 1e-9 wide as it was
    simplex = optimize.minimize(
        lambda p: _gibrat_nll(x, p[0]) if p[0] < lo else np.inf,
        np.array([lo - 0.1 * (hi - lo)]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13 * abs(ours), "maxiter": 10_000},
    )
    assert ours <= simplex.fun + 1e-12 * abs(simplex.fun)


B = distfit._KS_BLOCK


@st.composite
def ks_cases(draw):
    """A sorted sample (often with ties, its size near a multiple of the KS block)
    and a family fitted to it, moved by `shift` scales so that the largest
    deviation can sit at the first or the last sample."""
    n = draw(st.one_of(st.sampled_from([B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1]), st.integers(1, 10 * B)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.lognormal(3.0, draw(st.floats(0.1, 1.5)), n) + draw(st.floats(0.0, 50.0))
    if draw(st.booleans()):  # ties
        x = np.round(x / draw(st.floats(0.5, 20.0))) + 1.0
    family = draw(st.sampled_from(ALL_FAMILIES))
    try:
        with np.errstate(all="ignore"):
            fit = distfit._FAMILIES[family].fit(x)[0]
    except (ValueError, ZeroDivisionError):
        fit = distfit._FAMILIES[DistFamily.NORMAL].fit(x)[0]
    shift = draw(st.sampled_from([0.0, 0.0, -3.0, 3.0, -50.0, 50.0]))
    fit = FittedDistribution(fit.family, fit.shape_params, fit.loc + shift * fit.scale, fit.scale)
    return fit, np.sort(x)


@settings(max_examples=300, deadline=None)
@given(ks_cases())
def test_blocked_ks_equals_the_dense_formula(case):
    fit, x_sorted = case
    with np.errstate(all="ignore"):
        got, want = distfit._ks_sorted(fit, x_sorted), dense_ks(fit, x_sorted)
    assert got == want or (math.isnan(got.statistic_d) and math.isnan(want.statistic_d))


def _stub_ks_case(edit):
    """A seeded sorted sample of 1,000 values and a logistic-CDF stub whose
    values are changed by edit(f, v, x) before they are returned."""
    x = np.sort(np.random.default_rng(20).normal(size=1000))

    def cdf(v):
        f = 1.0 / (1.0 + np.exp(-v))
        edit(f, v, x)
        return f

    return SimpleNamespace(cdf=cdf), x


def test_blocked_ks_evaluates_every_block_where_the_cdf_falls_at_a_block_end():
    def dip(f, v, x):  # falls at the block end x[128]; the deepest deviation lies inside the block before it
        f[(v > x[100]) & (v < x[128])] -= 0.3
        f[v == x[128]] -= 0.2

    stub, x = _stub_ks_case(dip)
    assert (np.diff(stub.cdf(x[[64, 128]])) < 0.0).all()
    got = distfit._ks_sorted(stub, x)
    assert got == dense_ks(stub, x)
    assert got.statistic_d > distfit._ks_d(stub.cdf(x[::64]), np.arange(0, 1000, 64, dtype=np.float64), 1000)


def test_blocked_ks_is_not_finite_where_the_cdf_is_nan_at_a_block_end():
    def hole(f, v, x):
        f[v == x[64]] = np.nan

    stub, x = _stub_ks_case(hole)
    assert not math.isfinite(distfit._ks_sorted(stub, x).statistic_d)


@settings(max_examples=300, deadline=None)
@given(ks_cases())
def test_refined_ks_equals_the_dense_formula(case):
    # _KS_REFINE_MIN = 1 takes the _KS_STEP pass wherever a block reaches the maximum
    fit, x_sorted = case
    with mock.patch.object(distfit, "_KS_REFINE_MIN", 1), np.errstate(all="ignore"):
        got, want = distfit._ks_sorted(fit, x_sorted), dense_ks(fit, x_sorted)
    assert got == want or (math.isnan(got.statistic_d) and math.isnan(want.statistic_d))


def test_refined_ks_evaluates_every_step_where_the_cdf_falls_at_a_step_end():
    def dip(f, v, x):  # falls at the step end x[136], not at a block end; the deepest deviation lies inside [128, 136]
        f[(v > x[128]) & (v < x[136])] -= 0.3
        f[v == x[136]] -= 0.2

    stub, x = _stub_ks_case(dip)
    assert (np.diff(stub.cdf(x[::64])) >= 0.0).all() and (np.diff(stub.cdf(x[[128, 136]])) < 0.0).all()
    with mock.patch.object(distfit, "_KS_REFINE_MIN", 1):
        got = distfit._ks_sorted(stub, x)
    assert got == dense_ks(stub, x)
    ends = np.union1d(np.arange(0, 1000, 8), [999])
    assert got.statistic_d > distfit._ks_d(stub.cdf(x[ends]), ends, 1000)


@pytest.mark.parametrize("refine_min", [1, distfit._KS_REFINE_MIN])
@pytest.mark.parametrize("rank", [1, 3007, 3009, 3015, 3017, 9215, 9217, 12_798])
def test_ks_finds_a_maximum_one_rank_inside_a_stretch_end(rank, refine_min):
    # a CDF that jumps by 0.3 between x[rank - 1] and x[rank]: the largest
    # deviation is F - j/n at `rank` when it lies in the first half, and
    # (j + 1)/n - F at rank - 1 in the second; either is one rank inside the
    # end of a block (64) or of a step (8)
    n = 200 * distfit._KS_BLOCK
    x = np.arange(n) + 0.5
    sizes = []

    def cdf(v):
        sizes.append(v.size)
        return 0.7 * v / n + 0.3 * (v >= rank)

    f = cdf(x)
    at = int(np.argmax(np.maximum((np.arange(n) + 1.0) / n - f, f - np.arange(n) / n)))
    assert at == (rank if rank < n // 2 else rank - 1)
    want = dense_ks(SimpleNamespace(cdf=cdf), x).statistic_d
    sizes.clear()
    with mock.patch.object(distfit, "_KS_REFINE_MIN", refine_min):
        assert distfit._ks_d_blocked(cdf, x) == want
    assert sum(sizes) < n // 8  # the bound skips most of the sample


# --- best_fit -------------------------------------------------------------------

def test_best_fit_exponential_data(rng):
    wins = 0
    for seed in range(3):
        draws = np.random.default_rng(seed).exponential(scale=50.0, size=10_000)
        report = distfit.best_fit(draws)
        d = {fam: ff.ks.statistic_d for fam, ff in report.per_family.items()}
        wins += d[DistFamily.EXPONENTIAL] < d[DistFamily.NORMAL]
        assert report.best in (DistFamily.EXPONENTIAL, DistFamily.EXPONENTIATED_WEIBULL)
    assert wins == 3


def test_best_fit_lognormal_prefers_gibrat_over_exponential():
    wins = 0
    for seed in range(20):
        draws = np.random.default_rng(400 + seed).lognormal(mean=0.0, sigma=1.0, size=10_000)
        report = distfit.best_fit(draws)
        d = {fam: ff.ks.statistic_d for fam, ff in report.per_family.items()}
        wins += d[DistFamily.GIBRAT] < d[DistFamily.EXPONENTIAL]
    assert wins >= 19


def test_best_fit_runs_all_seven_families(rng):
    draws = rng.exponential(scale=30.0, size=2_000) + 20.0
    report = distfit.best_fit(draws)
    assert set(report.per_family) | set(report.failed) == set(ALL_FAMILIES)
    assert not report.failed


def test_param_count_counts_free_parameters_only():
    # loc is fitted only by the normal, exponential and Gibrat families; the others fix it at 0
    draws = np.random.default_rng(2).lognormal(size=500)
    report = distfit.best_fit(draws)
    counts = {fam: ff.dist.param_count for fam, ff in report.per_family.items()}
    assert counts == {fam: 3 if fam is DistFamily.EXPONENTIATED_WEIBULL else 2 for fam in ALL_FAMILIES}


_POSITIVE_FAMILIES = (DistFamily.LOG_NORMAL, DistFamily.PARETO, DistFamily.POWER_LAW, DistFamily.EXPONENTIATED_WEIBULL)
# seeded samples off the positive families' support: one with negative values, one whose minimum is 0
_NON_POSITIVE_SAMPLES = [
    np.random.default_rng(7).normal(1.0, 2.0, 500),
    np.append(np.random.default_rng(8).exponential(10.0, 499), 0.0),
]


@pytest.mark.parametrize("x", _NON_POSITIVE_SAMPLES)
def test_best_fit_fails_exactly_the_positive_families_on_values_at_or_below_zero(x):
    assert x.min() <= 0.0
    report = distfit.best_fit(x)
    assert report.failed == {fam: f"{fam.value} requires strictly positive samples" for fam in _POSITIVE_FAMILIES}
    assert set(report.per_family) == {DistFamily.NORMAL, DistFamily.EXPONENTIAL, DistFamily.GIBRAT}


@pytest.mark.parametrize("x", _NON_POSITIVE_SAMPLES)
def test_fit_mle_rejects_values_at_or_below_zero_only_for_the_positive_families(x):
    for family in _POSITIVE_FAMILIES:
        with pytest.raises(InvalidFit, match=f"^{family.value} requires strictly positive samples$"):
            distfit.fit_mle(family, x)
    for family in (DistFamily.NORMAL, DistFamily.EXPONENTIAL, DistFamily.GIBRAT):
        assert distfit.fit_mle(family, x).family is family


@pytest.mark.parametrize("x", _NON_POSITIVE_SAMPLES)
def test_report_to_dict_writes_each_failed_family_as_an_error(x):
    families = distfit.report_to_dict(distfit.best_fit(x))["families"]
    assert set(families) == {fam.value for fam in ALL_FAMILIES}
    for fam in _POSITIVE_FAMILIES:
        assert families[fam.value] == {"error": f"{fam.value} requires strictly positive samples", "converged": False}


def test_family_table_covers_every_family_and_says_which_fit_loc():
    assert set(distfit._FAMILIES) == set(DistFamily)
    x = np.random.default_rng(9).lognormal(1.0, 0.6, 500) + 0.5
    for family, record in distfit._FAMILIES.items():
        assert (distfit.fit_mle(family, x).loc == 0.0) is not record.fits_loc, family


def test_a_ks_tie_goes_to_fewer_free_parameters_then_to_the_name(monkeypatch):
    # the lognormal (shape, scale) and the normal (loc, scale) tie on D and on
    # free parameters, so the name decides
    ks_sorted = distfit._ks_sorted

    def tied(fit, x):
        ks = ks_sorted(fit, x)
        return distfit.KsResult(0.0, 1.0, ks.n) if fit.family in (DistFamily.NORMAL, DistFamily.LOG_NORMAL) else ks

    monkeypatch.setattr(distfit, "_ks_sorted", tied)
    assert distfit.best_fit(np.random.default_rng(2).lognormal(size=500)).best is DistFamily.LOG_NORMAL


def test_best_fit_all_failed(monkeypatch):
    def boom(x):
        raise ValueError("forced failure")

    monkeypatch.setattr(distfit, "_FAMILIES", {fam: replace(rec, fit=boom) for fam, rec in distfit._FAMILIES.items()})
    with pytest.raises(distfit.AllFitsFailed):
        distfit.best_fit(np.linspace(1.0, 9.0, 40))


def test_best_fit_deterministic_report(rng):
    draws = rng.exponential(scale=42.0, size=5_000)
    first = json.dumps(distfit.report_to_dict(distfit.best_fit(draws)), sort_keys=True)
    second = json.dumps(distfit.report_to_dict(distfit.best_fit(draws)), sort_keys=True)
    assert first == second


def test_report_dict_shape(rng):
    draws = rng.exponential(scale=42.0, size=1_000) + 5.0
    payload = distfit.report_to_dict(distfit.best_fit(draws))
    assert payload["n"] == 1_000
    assert payload["best"] in payload["families"]
    exp = payload["families"]["exponential"]
    assert len(exp["params"]) == 2  # (loc, scale)
    assert len(payload["families"]["exponentiated_weibull"]["params"]) == 4
    assert len(payload["families"]["gibrat"]["params"]) == 2
    for entry in payload["families"].values():
        assert set(entry) >= {"params", "ks_d", "ks_p", "converged"}


def test_erf_matches_math_erf_bit_for_bit(rng):
    reference = np.vectorize(math.erf, otypes=[np.float64])
    for z in (rng.normal(0.0, 3.0, 5000), rng.normal(size=(7, 11)), np.float64(0.3), np.array([-np.inf, np.inf, -0.0, np.nan])):
        got = distfit._erf(z)
        assert got.shape == np.shape(z)
        assert np.array_equal(got, reference(z), equal_nan=True)


def test_best_fit_ks_equals_public_ks_test(rng):
    # best_fit sorts the sample once for all seven KS tests
    x = rng.lognormal(1.0, 0.6, 3000) + 1.0
    report = distfit.best_fit(x)
    for family, ff in report.per_family.items():
        assert ff.ks == distfit.ks_test(ff.dist, x), family


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(bad):
    x = [1.0] * 50 + [bad]
    with pytest.raises(NonFiniteValues):
        distfit.best_fit(x)
    with pytest.raises(NonFiniteValues):
        distfit.fit_mle(DistFamily.NORMAL, x)


# samples whose magnitudes overflow or underflow the normal fit's mean and variance
EXTREME_SAMPLES = {
    "overflow, both signs": [1e308] * 10 + [-1e308] * 15,
    "overflow": np.linspace(1e307, 1.7e308, 30),
    "subnormal": np.linspace(1e-310, 2e-310, 30),
}


@pytest.mark.parametrize("name", EXTREME_SAMPLES)
def test_fit_with_a_non_finite_parameter_or_zero_scale_fails(name):
    x = EXTREME_SAMPLES[name]
    with pytest.raises(InvalidFit, match="normal fit"):
        distfit.fit_mle(DistFamily.NORMAL, x)
    try:
        report = distfit.best_fit(x)
    except AllFitsFailed:
        assert name == "overflow, both signs"
        return
    assert DistFamily.NORMAL in report.failed
    for ff in report.per_family.values():
        assert np.isfinite(ff.dist.params_list()).all() and ff.dist.scale > 0.0
        assert 0.0 <= ff.ks.statistic_d <= 1.0


@pytest.mark.parametrize("name", EXTREME_SAMPLES)
def test_best_fit_on_extreme_samples_emits_no_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            distfit.best_fit(EXTREME_SAMPLES[name])
        except AllFitsFailed:
            pass
