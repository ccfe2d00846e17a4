"""Maximum-likelihood fitting of seven candidate families plus KS scoring.

Every family is expressed in loc-scale form (z = (x - loc) / scale) so fitted
parameters read as the usual (loc, scale) pair, with any shape parameters in
front. Closed-form estimators are used wherever the likelihood admits them;
the Gibrat and exponentiated-Weibull fits run a simplex direct search over
the parameters left once the one with a closed-form conditional MLE (the
Gibrat scale, the exponentiated-Weibull shape a) is profiled out.

Gibrat here means a lognormal with the shape pinned at 1, i.e. density
exp(-(log z)^2 / 2) / (z * sqrt(2*pi)) on z > 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllFitsFailed, DegenerateData, InsufficientData, NonConvergence
from .simplex import nelder_mead

MIN_SAMPLES = 20

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erf = np.vectorize(math.erf, otypes=[np.float64])


def _phi(z):
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=np.float64) / math.sqrt(2.0)))


class DistFamily(enum.Enum):
    NORMAL = "normal"
    LOG_NORMAL = "lognormal"
    EXPONENTIAL = "exponential"
    PARETO = "pareto"
    GIBRAT = "gibrat"
    POWER_LAW = "powerlaw"
    EXPONENTIATED_WEIBULL = "exponentiated_weibull"


ALL_FAMILIES = (
    DistFamily.NORMAL,
    DistFamily.LOG_NORMAL,
    DistFamily.EXPONENTIAL,
    DistFamily.PARETO,
    DistFamily.GIBRAT,
    DistFamily.POWER_LAW,
    DistFamily.EXPONENTIATED_WEIBULL,
)


@dataclass(frozen=True)
class FittedDistribution:
    family: DistFamily
    shape_params: tuple
    loc: float
    scale: float

    def pdf(self, x):
        return _PDFS[self.family](np.asarray(x, dtype=np.float64), self.shape_params, self.loc, self.scale)

    def cdf(self, x):
        return _CDFS[self.family](np.asarray(x, dtype=np.float64), self.shape_params, self.loc, self.scale)

    def loglike(self, samples) -> float:
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(self.pdf(samples))))

    @property
    def param_count(self) -> int:
        return len(self.shape_params) + 2

    def params_list(self) -> list:
        return [*self.shape_params, self.loc, self.scale]


@dataclass(frozen=True)
class KsResult:
    statistic_d: float
    p_value: float
    n: int


@dataclass(frozen=True)
class FamilyFit:
    dist: FittedDistribution
    ks: KsResult
    converged: bool


@dataclass(frozen=True)
class FitReport:
    per_family: dict
    failed: dict
    best: DistFamily
    sample_n: int


# --- densities and CDFs ------------------------------------------------------

def _z(x, loc, scale):
    return (x - loc) / scale


def _normal_pdf(x, _shapes, loc, scale):
    z = _z(x, loc, scale)
    return np.exp(-0.5 * z * z) / (scale * _SQRT_2PI)


def _normal_cdf(x, _shapes, loc, scale):
    return _phi(_z(x, loc, scale))


def _lognormal_pdf(x, shapes, loc, scale):
    (s,) = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(z, where=m, out=np.zeros_like(z))
    out[m] = np.exp(-0.5 * (lz[m] / s) ** 2) / (z[m] * s * _SQRT_2PI) / scale
    return out


def _lognormal_cdf(x, shapes, loc, scale):
    (s,) = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(z, where=m, out=np.zeros_like(z))
    out[m] = _phi(lz[m] / s)
    return out


def _exponential_pdf(x, _shapes, loc, scale):
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z >= 0
    out[m] = np.exp(-z[m]) / scale
    return out


def _exponential_cdf(x, _shapes, loc, scale):
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z >= 0
    out[m] = -np.expm1(-z[m])
    return out


def _pareto_pdf(x, shapes, loc, scale):
    (b,) = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z >= 1
    out[m] = b / scale * z[m] ** (-b - 1.0)
    return out


def _pareto_cdf(x, shapes, loc, scale):
    (b,) = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z >= 1
    out[m] = 1.0 - z[m] ** (-b)
    return out


def _gibrat_pdf(x, _shapes, loc, scale):
    return _lognormal_pdf(x, (1.0,), loc, scale)


def _gibrat_cdf(x, _shapes, loc, scale):
    return _lognormal_cdf(x, (1.0,), loc, scale)


def _powerlaw_pdf(x, shapes, loc, scale):
    (a,) = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = (z > 0) & (z <= 1)
    out[m] = a / scale * z[m] ** (a - 1.0)
    return out


def _powerlaw_cdf(x, shapes, loc, scale):
    (a,) = shapes
    z = np.clip(_z(x, loc, scale), 0.0, 1.0)
    return z**a


def _expweib_pdf(x, shapes, loc, scale):
    a, c = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z > 0
    with np.errstate(over="ignore"):
        t = z[m] ** c
        u = -np.expm1(-t)
        out[m] = a * c / scale * u ** (a - 1.0) * np.exp(-t) * z[m] ** (c - 1.0)
    return np.nan_to_num(out, nan=0.0, posinf=np.inf)


def _expweib_cdf(x, shapes, loc, scale):
    a, c = shapes
    z = _z(x, loc, scale)
    out = np.zeros_like(z)
    m = z > 0
    with np.errstate(over="ignore"):
        t = z[m] ** c
        out[m] = (-np.expm1(-t)) ** a
    return out


_PDFS = {
    DistFamily.NORMAL: _normal_pdf,
    DistFamily.LOG_NORMAL: _lognormal_pdf,
    DistFamily.EXPONENTIAL: _exponential_pdf,
    DistFamily.PARETO: _pareto_pdf,
    DistFamily.GIBRAT: _gibrat_pdf,
    DistFamily.POWER_LAW: _powerlaw_pdf,
    DistFamily.EXPONENTIATED_WEIBULL: _expweib_pdf,
}

_CDFS = {
    DistFamily.NORMAL: _normal_cdf,
    DistFamily.LOG_NORMAL: _lognormal_cdf,
    DistFamily.EXPONENTIAL: _exponential_cdf,
    DistFamily.PARETO: _pareto_cdf,
    DistFamily.GIBRAT: _gibrat_cdf,
    DistFamily.POWER_LAW: _powerlaw_cdf,
    DistFamily.EXPONENTIATED_WEIBULL: _expweib_cdf,
}


# --- maximum-likelihood fitters ----------------------------------------------

def _require_positive(x, family):
    if x.min() <= 0.0:
        raise ValueError(f"{family.value} requires strictly positive samples")


def _fit_normal(x):
    return FittedDistribution(DistFamily.NORMAL, (), float(x.mean()), float(x.std())), True


def _fit_exponential(x):
    loc = float(x.min())
    return FittedDistribution(DistFamily.EXPONENTIAL, (), loc, float(x.mean() - loc)), True


def _fit_lognormal(x):
    _require_positive(x, DistFamily.LOG_NORMAL)
    lx = np.log(x)
    return (
        FittedDistribution(DistFamily.LOG_NORMAL, (float(lx.std()),), 0.0, float(np.exp(lx.mean()))),
        True,
    )


def _fit_pareto(x):
    _require_positive(x, DistFamily.PARETO)
    scale = float(x.min())
    b = x.size / float(np.sum(np.log(x / scale)))
    return FittedDistribution(DistFamily.PARETO, (b,), 0.0, scale), True


def _fit_powerlaw(x):
    _require_positive(x, DistFamily.POWER_LAW)
    scale = float(x.max())
    a = -x.size / float(np.sum(np.log(x / scale)))
    return FittedDistribution(DistFamily.POWER_LAW, (a,), 0.0, scale), True


def _fit_gibrat(x):
    # for a fixed loc the scale's MLE is the geometric mean of x - loc, so the
    # simplex searches loc < min(x) alone
    n = x.size
    lo, hi = float(x.min()), float(x.max())

    def profile(params):
        """(negative log-likelihood, scale) at loc = params[0] with the scale at its MLE."""
        (loc,) = params
        if lo <= loc:
            return np.inf, np.nan
        lxl = np.log(x - loc)
        log_scale = float(np.mean(lxl))
        lz = lxl - log_scale
        value = n * log_scale + np.sum(lz + 0.5 * lz * lz) + n * 0.5 * math.log(2.0 * math.pi)
        return (value if np.isfinite(value) else np.inf), math.exp(log_scale)

    result = nelder_mead(lambda params: profile(params)[0], np.array([lo - 0.1 * (hi - lo)]))
    (loc,) = result.x
    return FittedDistribution(DistFamily.GIBRAT, (), float(loc), profile(result.x)[1]), result.converged


def _fit_expweib(x):
    # for a fixed (c, scale) the MLE of the shape a is -n / sum(log(1 - exp(-z^c))),
    # so the simplex searches (log c, log scale) alone
    _require_positive(x, DistFamily.EXPONENTIATED_WEIBULL)
    n = x.size
    mean, std = float(x.mean()), float(x.std())
    cv = std / mean
    c0 = min(max(cv**-1.086, 0.1), 20.0)
    scale0 = mean / math.gamma(1.0 + 1.0 / c0)

    lx = np.log(x)
    sum_lx = float(np.sum(lx))

    def profile(params):
        """(negative log-likelihood, a) at (c, scale) = exp(params) with a at its MLE."""
        c, log_scale = math.exp(params[0]), float(params[1])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = np.exp(c * (lx - log_scale))
            sum_log_u = float(np.sum(np.log(-np.expm1(-t))))
            if not -np.inf < sum_log_u < 0.0:
                return np.inf, np.nan
            a = -n / sum_log_u
            ll = (
                n * (math.log(a) + math.log(c) - log_scale)
                + (a - 1.0) * sum_log_u
                - np.sum(t)
                + (c - 1.0) * (sum_lx - n * log_scale)
            )
        return (-ll if np.isfinite(ll) else np.inf), a

    result = nelder_mead(lambda params: profile(params)[0], np.array([math.log(c0), math.log(scale0)]))
    c, scale = np.exp(result.x)
    a = profile(result.x)[1]
    return (
        FittedDistribution(DistFamily.EXPONENTIATED_WEIBULL, (float(a), float(c)), 0.0, float(scale)),
        result.converged,
    )


_FITTERS = {
    DistFamily.NORMAL: _fit_normal,
    DistFamily.LOG_NORMAL: _fit_lognormal,
    DistFamily.EXPONENTIAL: _fit_exponential,
    DistFamily.PARETO: _fit_pareto,
    DistFamily.GIBRAT: _fit_gibrat,
    DistFamily.POWER_LAW: _fit_powerlaw,
    DistFamily.EXPONENTIATED_WEIBULL: _fit_expweib,
}


def _check_samples(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.size < MIN_SAMPLES:
        raise InsufficientData(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    if x.min() == x.max():
        raise DegenerateData("all samples are identical")
    return x


def fit_mle(family: DistFamily, samples) -> FittedDistribution:
    """Fit one family by maximum likelihood.

    Raises InsufficientData / DegenerateData on bad input and NonConvergence
    (carrying the best fit found) if the simplex search hits its cap.
    """
    x = _check_samples(samples)
    fit, converged = _FITTERS[family](x)
    if not converged:
        raise NonConvergence(f"{family.value} fit did not converge", fit=fit)
    return fit


def ks_test(fit: FittedDistribution, samples) -> KsResult:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted sample;
    p = Q_KS(lambda) with lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 1:
        raise ValueError("ks_test needs at least one sample")
    f = fit.cdf(x)
    i = np.arange(1, n + 1, dtype=np.float64)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return KsResult(statistic_d=d, p_value=_kolmogorov_q(lam), n=n)


# The switch point of Numerical Recipes' KSdist: below it the four-term theta
# form is exact to rounding, while the alternating series, stopped at its first
# term under 1e-12, can leave an error of that order.
_KS_SERIES_MIN_LAMBDA = 1.18


def _kolmogorov_q(lam: float) -> float:
    """Q_KS(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), clamped to [0, 1].

    For small lambda the equivalent theta-function form
    Q = 1 - sqrt(2 pi) / lambda * sum_{j>=1} exp(-(2j-1)^2 pi^2 / (8 lambda^2))
    is used instead, as in Numerical Recipes' probks; its terms fall fast
    exactly where the alternating series converges slowly.
    """
    if lam < _KS_SERIES_MIN_LAMBDA:
        if lam <= 0.0:
            return 1.0
        y = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        return min(1.0, max(0.0, 1.0 - _SQRT_2PI / lam * (y + y**9 + y**25 + y**49)))
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def best_fit(samples) -> FitReport:
    """Fit all seven families, KS-score each, and pick the converged fit with
    the smallest D (ties: fewer parameters, then family name)."""
    x = _check_samples(samples)
    per_family = {}
    failed = {}
    for family in ALL_FAMILIES:
        try:
            fit, converged = _FITTERS[family](x)
        except (ValueError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
            failed[family] = str(exc)
            continue
        per_family[family] = FamilyFit(dist=fit, ks=ks_test(fit, x), converged=converged)

    converged = [(ff.ks.statistic_d, ff.dist.param_count, fam.value, fam) for fam, ff in per_family.items() if ff.converged]
    if not converged:
        raise AllFitsFailed("no candidate family produced a converged fit")
    best = min(converged)[3]
    return FitReport(per_family=per_family, failed=failed, best=best, sample_n=x.size)


def report_to_dict(report: FitReport) -> dict:
    """JSON-ready view of a FitReport: params are [shape..., loc, scale]."""
    families = {}
    for family, ff in report.per_family.items():
        families[family.value] = {
            "params": ff.dist.params_list(),
            "ks_d": ff.ks.statistic_d,
            "ks_p": ff.ks.p_value,
            "converged": ff.converged,
        }
    for family, message in report.failed.items():
        families[family.value] = {"error": message, "converged": False}
    return {"best": report.best.value, "n": report.sample_n, "families": families}
