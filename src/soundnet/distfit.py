"""Maximum-likelihood fitting of seven candidate families plus KS scoring.

Every family is expressed in loc-scale form (z = (x - loc) / scale) so fitted
parameters read as the usual (loc, scale) pair, with any shape parameters in
front. Closed-form estimators are used wherever the likelihood admits them.
Each family is one _Family record in _FAMILIES: fitter, pdf, CDF, support
rule (checked once, in _fit) and whether loc is fitted or fixed at 0.
The Gibrat and exponentiated-Weibull fits profile out the parameter with a
closed-form conditional MLE (the Gibrat scale, the exponentiated-Weibull
shape a) and search over the rest.

best_fit and fit_mle sort the sample once, and every fitter and the KS
statistic read that one sorted copy. Every sum of products is
np.einsum("i,i", a, b), numpy's own loop, not np.dot, which goes to BLAS and
sums in an order that follows OpenBLAS's thread count. So each fit float
depends only on the sample's values: not on their order, and not on the
number of BLAS threads.

Gibrat here means a lognormal with the shape pinned at 1, i.e. density
exp(-(log z)^2 / 2) / (z * sqrt(2*pi)) on z > 0. Its profile likelihood has
one parameter, loc < min(x), and the score and its derivative have closed
forms, so the fit is a safeguarded Newton root search on the score
(_root_search, bisecting whenever a Newton step would leave the bracket). A
search that finds no root, as on samples tied at the minimum whose optimum
lies closer to min(x) than a float can resolve, reports its last point with
`converged` false.

The exponentiated-Weibull fit is a safeguarded Newton minimisation of the
profile negative log-likelihood P over (log c, log scale), with closed-form
gradient and Hessian (_expweib_profile). Each step solves with the Hessian's
eigenvalues made positive (Nocedal & Wright 2006, section 3.4), is cut to
length 2 and is halved until P does not increase. A start where P is not
finite (as where the mean overflows) is an InvalidFit. The likelihood need not
have an interior maximum. On broadband noise its supremum lies at c -> inf,
a -> 0 with a*c fixed, where (1 - exp(-z^c))^a tends to the power law
z^(a*c); on some small or multimodal samples at a -> inf, c -> 0, where the
family tends to a Frechet law (Cheng & Amin 1983). The search therefore runs
inside c <= EXPWEIB_MAX_C = 1e3 and a <= EXPWEIB_MAX_A = 1e5, two orders of
magnitude above any interior fit on melodies. Steps are clipped at the c
bound; the search stops there if P still falls toward larger c, when its
next step is too short to move, and when a step that lowers P would leave
the a bound. A boundary fit is reported at the last point inside the bounds
with `converged` false and a `reason` naming the limit, so it cannot win
best_fit. Both sides follow one rule: each limit family's MLE is the supremum
of P along that limit, so a stop whose P it matches or beats is a boundary fit
there. The power-law MLE has a closed form. The Frechet MLE, found only where
a step leaves the a bound, has its scale in closed form and its shape from
_root_search. A stop below both that leaves the a bound, or the c bound with P
still falling, has left the bounds. A sample of n >= 32,768 values is first
searched on a pilot of its order statistics, x[k // 2 :: k] of the sorted
sample with k = n // 4,096 (4,096 to 4,608 points). The search on the full
sample then starts at the pilot's last point, whatever its outcome, and
decides every stop and reason, and so the reported point, on its own; on the
benchmark's noise recordings the pilot takes 11-19 evaluations and the full
sample 1-4. A stop on the c bound, where P is nearly flat, can lie elsewhere
than a cold search's (its KS D moved by up to 1.3e-3 on those recordings). The
term log(1 - exp(-t)), t = (x/scale)^c, follows Maechler (2012, "Accurately
computing log(1 - exp(-|a|))"): log(-expm1(-t)) up to t = log 2,
log1p(-exp(-t)) above, and the asymptote w - t/2 where w = log t < -30, as t
underflows. The density and CDF are exp of their logs everywhere.

The KS statistic evaluates each CDF at every _KS_BLOCK-th sorted sample
first and then only inside the blocks whose monotonicity bound can reach the
largest deviation (_ks_d_blocked); D is the same float as with the CDF
evaluated at every sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllFitsFailed, DegenerateData, InsufficientData, InvalidFit, NonConvergence, NonFiniteValues

MIN_SAMPLES = 20

# Bounds of the exponentiated-Weibull search (see the module docstring). On the
# golden and benchmark melodies every point the search visits has c < 2 and
# a < 1.2e3.
EXPWEIB_MAX_C = 1e3
EXPWEIB_MAX_A = 1e5
BOUNDARY_C = "likelihood supremum at c → ∞ (power-law limit)"
BOUNDARY_A = "likelihood supremum at a → ∞, c → 0 (Fréchet limit)"
OUT_OF_BOUNDS = "search left the shape bounds without a supremum on their boundary"
EVAL_CAP = "exponentiated-Weibull Newton search hit its evaluation cap"
ROOT_SEARCH_FAILED = "Gibrat location search found no root of the profile score"
# The exponentiated-Weibull search (_search_expweib) stops once its next step is
# shorter than _STEP_TOL in (log c, log scale), and reports EVAL_CAP after
# _EXPWEIB_MAX_EVALS profile evaluations. A fit on a golden sequence or on any of
# the benchmark's 96 melodies takes 7-29 of them.
_STEP_TOL = 1e-10
_MAX_STEP = 2.0
_EIG_FLOOR = 1e-8
_EXPWEIB_MAX_EVALS = 100
# A sample of at least _PILOT_MIN_N values is first searched on the pilot
# x[k // 2 :: k] of the sorted sample, k = n // _PILOT_POINTS >= 8: 4,096 to
# 4,608 order statistics, so a pilot evaluation costs about 1/k of a full one.
_PILOT_POINTS = 4096
_PILOT_MIN_N = 8 * _PILOT_POINTS
# below w = log t = -30, log(1 - exp(-t)) equals w - t/2 to double precision
_TAIL_W = -30.0
_EXP_MIN = -700.0
_LOG_2 = math.log(2.0)
# _root_search (the Gibrat location, the Frechet shape) ends once the Newton step
# or the bracket is shorter than _ROOT_TOL in v, and fails after _ROOT_MAX_EVALS
# score evaluations or past |v| = _ROOT_MAX_V; golden and benchmark Gibrat fits take <= 11.
_ROOT_TOL = 1e-9
_ROOT_MAX_EVALS = 60
_ROOT_MAX_V = 700.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _erf(z):
    z = np.asarray(z, dtype=np.float64)
    return np.fromiter(map(math.erf, z.ravel().tolist()), np.float64, count=z.size).reshape(z.shape)


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


ALL_FAMILIES = tuple(DistFamily)


@dataclass(frozen=True)
class FittedDistribution:
    family: DistFamily
    shape_params: tuple
    loc: float
    scale: float

    def pdf(self, x):
        return _FAMILIES[self.family].pdf(np.asarray(x, dtype=np.float64), self.shape_params, self.loc, self.scale)

    def cdf(self, x):
        return _FAMILIES[self.family].cdf(np.asarray(x, dtype=np.float64), self.shape_params, self.loc, self.scale)

    def loglike(self, samples) -> float:
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(self.pdf(samples))))

    @property
    def param_count(self) -> int:
        return len(self.shape_params) + 1 + _FAMILIES[self.family].fits_loc

    def params_list(self) -> list:
        return [*self.shape_params, self.loc, self.scale]


@dataclass(frozen=True)
class KsResult:
    statistic_d: float
    p_value: float
    n: int


@dataclass(frozen=True)
class FamilyFit:
    """One family's fit and KS score; `reason` says why an unconverged fit is
    not an interior optimum (a supremum on a boundary of the parameter space,
    a search that left its bounds, the exponentiated-Weibull search's
    evaluation cap, or a Gibrat location search that found no root)."""

    dist: FittedDistribution
    ks: KsResult
    reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class FitReport:
    per_family: dict
    failed: dict
    best: DistFamily
    sample_n: int


# --- densities and CDFs ------------------------------------------------------

def _z(x, loc, scale):
    return (x - loc) / scale


def _on_support(x, loc, scale, support, f, off=0.0):
    """f(z) where support(z) holds for z = (x - loc) / scale, `off` elsewhere."""
    z = _z(x, loc, scale)
    out = np.full_like(z, off)
    m = support(z)
    out[m] = f(z[m])
    return out


def _normal_pdf(x, _shapes, loc, scale):
    z = _z(x, loc, scale)
    return np.exp(-0.5 * z * z) / (scale * _SQRT_2PI)


def _normal_cdf(x, _shapes, loc, scale):
    return _phi(_z(x, loc, scale))


def _lognormal_pdf(x, shapes, loc, scale):
    (s,) = shapes
    return _on_support(
        x, loc, scale, lambda z: z > 0, lambda z: np.exp(-0.5 * (np.log(z) / s) ** 2) / (z * s * _SQRT_2PI) / scale
    )


def _lognormal_cdf(x, shapes, loc, scale):
    (s,) = shapes
    return _on_support(x, loc, scale, lambda z: z > 0, lambda z: _phi(np.log(z) / s))


def _exponential_pdf(x, _shapes, loc, scale):
    return _on_support(x, loc, scale, lambda z: z >= 0, lambda z: np.exp(-z) / scale)


def _exponential_cdf(x, _shapes, loc, scale):
    return _on_support(x, loc, scale, lambda z: z >= 0, lambda z: -np.expm1(-z))


def _pareto_pdf(x, shapes, loc, scale):
    (b,) = shapes
    return _on_support(x, loc, scale, lambda z: z >= 1, lambda z: b / scale * z ** (-b - 1.0))


def _pareto_cdf(x, shapes, loc, scale):
    (b,) = shapes
    return _on_support(x, loc, scale, lambda z: z >= 1, lambda z: 1.0 - z ** (-b))


def _powerlaw_pdf(x, shapes, loc, scale):
    (a,) = shapes
    return _on_support(x, loc, scale, lambda z: (z > 0) & (z <= 1), lambda z: a / scale * z ** (a - 1.0))


def _powerlaw_cdf(x, shapes, loc, scale):
    (a,) = shapes
    z = np.clip(_z(x, loc, scale), 0.0, 1.0)
    return z**a


def _log1mexp(t):
    """log(1 - exp(-t)), t > 0, by Maechler's branches, each exact on its side of log 2."""
    log_u = np.log(-np.expm1(-t))
    big = np.flatnonzero(t > _LOG_2)
    log_u[big] = np.log1p(-np.exp(-t[big]))
    return log_u


def _exp_log1mexp(w):
    """(t, log(1 - exp(-t))) for t = exp(w).

    Where w is at least _TAIL_W this is exp(w) and _log1mexp(t). Where
    w < _TAIL_W, log(1 - exp(-t)) is the asymptote w - t/2, which stays finite
    where t underflows, and w is clipped at _EXP_MIN before the exponential:
    below it t only underflows (and numpy's exp leaves its vector path), and
    raising t to exp(_EXP_MIN) = 1e-304 there changes none of the sums and
    differences it enters.
    """
    with np.errstate(over="ignore", divide="ignore"):
        t = np.exp(np.maximum(w, _EXP_MIN))
        log_u = w - 0.5 * t
        head = w >= _TAIL_W
        log_u[head] = _log1mexp(t[head])
    return t, log_u


def _expweib_logpdf(x, shapes, loc, scale):
    """Log density in log space throughout; -inf off the support."""
    a, c = shapes

    def logpdf(z):
        lz = np.log(z)
        t, log_u = _exp_log1mexp(c * lz)
        return math.log(a) + math.log(c) - math.log(scale) + (a - 1.0) * log_u - t + (c - 1.0) * lz

    with np.errstate(over="ignore", invalid="ignore"):
        return _on_support(x, loc, scale, lambda z: z > 0, logpdf, off=-np.inf)


def _expweib_logcdf(x, shapes, loc, scale):
    """Log CDF in log space throughout; -inf off the support."""
    a, c = shapes
    with np.errstate(over="ignore", invalid="ignore"):
        return _on_support(
            x, loc, scale, lambda z: z > 0, lambda z: a * _exp_log1mexp(c * np.log(z))[1], off=-np.inf
        )


def _expweib_pdf(x, shapes, loc, scale):
    return np.nan_to_num(np.exp(_expweib_logpdf(x, shapes, loc, scale)), nan=0.0, posinf=np.inf)


def _expweib_cdf(x, shapes, loc, scale):
    return np.exp(_expweib_logcdf(x, shapes, loc, scale))


def _gibrat(f):
    """A lognormal pdf or CDF with the shape pinned at s = 1."""
    return lambda x, _shapes, loc, scale: f(x, (1.0,), loc, scale)


# --- maximum-likelihood fitters ----------------------------------------------

def _fit_normal(x):
    return FittedDistribution(DistFamily.NORMAL, (), float(x.mean()), float(x.std())), None


def _fit_exponential(x):
    loc = float(x.min())
    return FittedDistribution(DistFamily.EXPONENTIAL, (), loc, float(x.mean() - loc)), None


def _fit_lognormal(x):
    lx = np.log(x)
    return FittedDistribution(DistFamily.LOG_NORMAL, (float(lx.std()),), 0.0, float(np.exp(lx.mean()))), None


def _fit_pareto(x):
    scale = float(x.min())
    b = x.size / float(np.sum(np.log(x / scale)))
    return FittedDistribution(DistFamily.PARETO, (b,), 0.0, scale), None


def _fit_powerlaw(x):
    scale = float(x.max())
    a = -x.size / float(np.sum(np.log(x / scale)))
    return FittedDistribution(DistFamily.POWER_LAW, (a,), 0.0, scale), None


def _gibrat_score(x, lo, spread, v):
    """(dL/dv, d2L/dv2, (loc, scale)) of the Gibrat profile negative log-likelihood
    L at loc = lo - spread * exp(v), with the scale at its MLE there.

    With d = x - loc, r = spread / d and lz = log d - mean(log d),
    dL/dloc = -sum(r (1 + lz)) / spread and
    d2L/dloc2 = -(sum(r^2 lz) + sum(r)^2 / n) / spread^2; r is taken relative
    to `spread` so that it stays finite on subnormal samples.
    """
    t = math.exp(v)
    loc = lo - spread * t
    d = x - loc
    lxl = np.log(d)
    log_scale = float(np.mean(lxl))
    lz = lxl - log_scale
    r = spread / d
    s1 = float(np.einsum("i,i", r, 1.0 + lz))
    sr = float(np.sum(r))
    s2 = float(np.einsum("i,i", r * r, lz))
    return t * s1, t * s1 - t * t * (s2 + sr * sr / x.size), (loc, math.exp(log_scale))


def _root_search(score, v):
    """(state at the last finite point, found) of the search from v for the root of
    a score g, negative below it and positive above; score(v) = (g, dg/dv, state).
    The step away from v doubles until g changes sign, then Newton steps close in,
    bisecting whenever one would leave the bracket."""
    g, h, state = score(v)
    if not math.isfinite(g):
        return state, False
    evals = 1
    below = above = None  # the nearest points either side of the root, score < 0 and > 0
    edge = False  # `below` is the edge of the domain, where the score is not finite
    step = -1.0 if g > 0.0 else 1.0
    while True:
        if g < 0.0:
            below, edge = v, False
        elif g > 0.0:
            above = v
        else:
            return state, True
        if below is None or above is None:  # step away from the start, doubling the step
            nxt = v + step
            step *= 2.0
            if abs(nxt) > _ROOT_MAX_V:
                return state, False
        else:
            newton = v - g / h if h > 0.0 else math.nan
            if abs(newton - v) <= _ROOT_TOL:
                return state, True
            if above - below <= _ROOT_TOL:
                return state, not edge
            nxt = newton if below < newton < above else 0.5 * (below + above)
        if evals >= _ROOT_MAX_EVALS:
            return state, False
        evals += 1
        at_nxt = score(nxt)
        if math.isfinite(at_nxt[0]):
            v, (g, h, state) = nxt, at_nxt
        elif nxt < v:
            below, edge = nxt, True
        else:
            return state, False


def _fit_gibrat(x):
    # For a fixed loc the scale's MLE is the geometric mean of x - loc. The profile
    # L(loc) goes to +inf as loc -> min(x) and as loc -> -inf, so its score changes
    # sign around a minimum in v = log((min(x) - loc) / (max(x) - min(x))).
    lo = float(x.min())
    spread = float(x.max()) - lo
    (loc, scale), found = _root_search(lambda v: _gibrat_score(x, lo, spread, v), math.log(0.1))
    return FittedDistribution(DistFamily.GIBRAT, (), float(loc), float(scale)), None if found else ROOT_SEARCH_FAILED


def _expweib_profile(lx, sum_lx, theta):
    """(P, a, gradient, Hessian) of the exponentiated-Weibull profile negative
    log-likelihood P at theta = (log c, log scale), a = -n / sum(L) being the
    shape's MLE there; P is +inf where it or a derivative is not finite.

    With eta = c (log x - log scale), t = e^eta and L = log(1 - e^-t),
    -P = n log a + n log c - sum(log x) + sum((a - 1) L - t + eta). Its
    eta-derivatives at fixed a use g = L' = t / expm1(t) and g' = g (1 - g - t);
    the profile Hessian adds (a^2 / n) v v^T, v = (sum(g eta), -c sum(g)).
    """
    n = lx.size
    c, q = math.exp(theta[0]), float(theta[1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = c * (lx - q)
        t, log_u = _exp_log1mexp(eta)
        sum_log_u = float(np.sum(log_u))
        if not -np.inf < sum_log_u < 0.0:
            return math.inf, math.nan, None, None
        a = -n / sum_log_u
        ll = n * (math.log(a) + math.log(c) - q) + (a - 1.0) * sum_log_u - float(np.sum(t)) + (c - 1.0) * (sum_lx - n * q)
        g = t / np.expm1(t)
        d1 = (a - 1.0) * g - t + 1.0
        d2 = (a - 1.0) * (g * (1.0 - g - t)) - t
        s1, s1e = float(np.sum(d1)), float(np.einsum("i,i", d1, eta))
        d2e = d2 * eta
        s2, s2e, s2ee = float(np.sum(d2)), float(np.sum(d2e)), float(np.einsum("i,i", d2e, eta))
        v = np.array([float(np.einsum("i,i", g, eta)), -c * float(np.sum(g))])
        grad = np.array([-(n + s1e), c * s1])
        hess = -np.array([[s2ee + s1e, -c * (s2e + s1)], [-c * (s2e + s1), c * c * s2]]) - (a * a / n) * np.outer(v, v)
    if not (math.isfinite(ll) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        return math.inf, a, None, None
    return -ll, a, grad, hess


def _newton_step(grad, hess):
    """The modified Newton step -H^-1 grad, with the Hessian's eigenvalues
    replaced by their absolute values floored at _EIG_FLOOR times the largest
    (Nocedal & Wright 2006, section 3.4), cut to length _MAX_STEP."""
    w, v = np.linalg.eigh(hess)
    w = np.abs(w)
    step = -v @ ((v.T @ grad) / np.maximum(w, _EIG_FLOOR * w.max()))
    length = math.hypot(*step)
    return step * (_MAX_STEP / length) if length > _MAX_STEP else step


def _fit_expweib(x):
    # for a fixed (c, scale) the MLE of the shape a is -n / sum(log(1 - exp(-z^c))),
    # so the search is over theta = (log c, log scale) alone; on a large sample it
    # starts where a search on _PILOT_POINTS of its order statistics ended (x is sorted)
    start = None
    if x.size >= _PILOT_MIN_N:
        k = x.size // _PILOT_POINTS
        try:
            pilot = _search_expweib(x[k // 2 :: k], None)[0]
            start = np.log([pilot.shape_params[1], pilot.scale])
        except (InvalidFit, ValueError, ArithmeticError):  # a pilot fit _fit would reject, as on tied values
            pass  # the full search takes its default start
    return _search_expweib(x, start)


def _search_expweib(x, start):
    """The safeguarded Newton search of the profile over theta = (log c, log scale)
    from `start`, or from (c0, scale0) by the coefficient of variation if `start`
    is None or P is not finite there; (fit, reason) at its last point."""
    lx = np.log(x)
    sum_lx = float(np.sum(lx))
    p_max = math.log(EXPWEIB_MAX_C)
    value = math.inf
    if start is not None:
        theta = np.array([min(start[0], p_max), start[1]])
        value, a, grad, hess = _expweib_profile(lx, sum_lx, theta)
    if not math.isfinite(value):
        mean, std = float(x.mean()), float(x.std())
        c0 = min(max((std / mean) ** -1.086, 0.1), 20.0)
        scale0 = mean / math.gamma(1.0 + 1.0 / c0)
        theta = np.array([min(math.log(c0), p_max), math.log(scale0)])
        value, a, grad, hess = _expweib_profile(lx, sum_lx, theta)
        if not math.isfinite(value):  # as where the mean overflows and the start is NaN
            raise InvalidFit(f"exponentiated_weibull profile is not finite at its start (c {c0}, scale {scale0})")

    def fit_at(reason):
        c, scale = np.exp(theta)
        return FittedDistribution(DistFamily.EXPONENTIATED_WEIBULL, (float(a), float(c)), 0.0, float(scale)), reason

    def settle(left_a=False):
        # a stop whose P the power-law (c -> inf) or Frechet (a -> inf) MLE matches
        # or beats is a boundary fit at that limit, the supremum of P along it
        if value >= _powerlaw_limit_nll(x.size, sum_lx, float(lx.max())):
            return fit_at(BOUNDARY_C)
        if left_a:
            return fit_at(BOUNDARY_A if value >= _frechet_limit_nll(lx, sum_lx) else OUT_OF_BOUNDS)
        return fit_at(OUT_OF_BOUNDS if theta[0] >= p_max and grad[0] < 0.0 else None)

    evals = 1
    while not (theta[0] >= p_max and grad[0] < 0.0):  # stop on the c bound if P still falls toward c -> inf
        step = _newton_step(grad, hess)
        while True:  # backtrack until P does not increase; c stays inside its bound
            trial = theta + step
            trial[0] = min(trial[0], p_max)
            if math.hypot(*(trial - theta)) < _STEP_TOL:
                return settle()
            if evals >= _EXPWEIB_MAX_EVALS:
                return fit_at(EVAL_CAP)
            evals += 1
            at_trial = _expweib_profile(lx, sum_lx, trial)
            if at_trial[0] <= value:
                break
            step *= 0.5
        if at_trial[1] > EXPWEIB_MAX_A:  # the descent leaves the a bound, toward the Frechet law
            return settle(left_a=True)
        theta, (value, a, grad, hess) = trial, at_trial
    return settle()


def _powerlaw_limit_nll(n, sum_lx, log_top):
    """Negative log-likelihood of the power-law MLE (scale = max x), from sum(log x)."""
    sum_lz = sum_lx - n * log_top
    k = -n / sum_lz
    return -(n * (math.log(k) - log_top) + (k - 1.0) * sum_lz)


def _frechet_score(lx, sum_lx, u):
    """(dL/du, d2L/du2, L) of the Frechet profile negative log-likelihood L, strictly
    convex in the shape alpha = e^u, at loc 0 and the scale's MLE sigma^alpha =
    n / sum(x^-alpha): dL/dalpha = sum(log x) - n / alpha - n m and d2L/dalpha2 =
    n / alpha^2 + n var, m and var being the mean and variance of log x weighted by
    x^-alpha, taken as exp(-alpha (log x - min log x)) so that none overflows."""
    n, alpha, lo = lx.size, math.exp(u), float(lx.min())
    d = lx - lo
    w = np.exp(-alpha * d)
    sw = float(np.sum(w))
    m = float(np.einsum("i,i", w, d)) / sw
    var = float(np.einsum("i,i", w, (d - m) ** 2)) / sw
    sum_d = sum_lx - n * lo
    g = alpha * (sum_d - n * m) - n
    nll = n * (math.log(sw) - u - math.log(n) + 1.0) + sum_lx + alpha * sum_d
    return g, g + n + n * alpha * alpha * var, nll


def _frechet_limit_nll(lx, sum_lx):
    """Negative log-likelihood of the Frechet MLE (loc 0), or the larger one at the root
    search's last point; it starts where log x's Gumbel law (scale 1 / alpha) has std(log x)."""
    u0 = math.log(math.pi / (math.sqrt(6.0) * float(lx.std())))
    return _root_search(lambda u: _frechet_score(lx, sum_lx, u), u0)[0]


@dataclass(frozen=True)
class _Family:
    """One candidate family: `fit(x)` receives the sample sorted ascending and
    returns its (FittedDistribution, reason); `pdf` and `cdf` are called as
    f(x, shape_params, loc, scale); `positive` means the support needs every
    sample > 0, which _fit checks before `fit` runs; `fits_loc` means loc is
    fitted, not fixed at 0."""

    fit: object
    pdf: object
    cdf: object
    positive: bool
    fits_loc: bool


_FAMILIES = {
    DistFamily.NORMAL: _Family(_fit_normal, _normal_pdf, _normal_cdf, False, True),
    DistFamily.LOG_NORMAL: _Family(_fit_lognormal, _lognormal_pdf, _lognormal_cdf, True, False),
    DistFamily.EXPONENTIAL: _Family(_fit_exponential, _exponential_pdf, _exponential_cdf, False, True),
    DistFamily.PARETO: _Family(_fit_pareto, _pareto_pdf, _pareto_cdf, True, False),
    DistFamily.GIBRAT: _Family(_fit_gibrat, _gibrat(_lognormal_pdf), _gibrat(_lognormal_cdf), False, True),
    DistFamily.POWER_LAW: _Family(_fit_powerlaw, _powerlaw_pdf, _powerlaw_cdf, True, False),
    DistFamily.EXPONENTIATED_WEIBULL: _Family(_fit_expweib, _expweib_pdf, _expweib_cdf, True, False),
}


def _check_samples(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < MIN_SAMPLES:
        raise InsufficientData(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    if not np.isfinite(x).all():
        raise NonFiniteValues("samples contain NaN or infinite values")
    if x.min() == x.max():
        raise DegenerateData("all samples are identical")
    return x


def _fit(family: DistFamily, x: np.ndarray):
    """The family's (fit, reason) on the sample x, sorted ascending; InvalidFit
    if x leaves a positive family's support, if the fitter raises ValueError or
    ArithmeticError (with its message), or if a parameter is not finite or the
    scale is not positive."""
    record = _FAMILIES[family]
    if record.positive and x.min() <= 0.0:
        raise InvalidFit(f"{family.value} requires strictly positive samples")
    try:
        with np.errstate(all="ignore"):  # magnitudes near the float64 limits; the checks below judge the result
            fit, reason = record.fit(x)
    except (ValueError, ArithmeticError) as exc:  # magnitudes the arithmetic cannot take
        raise InvalidFit(str(exc)) from exc
    params = fit.params_list()
    if not (np.isfinite(params).all() and fit.scale > 0.0):
        raise InvalidFit(f"{family.value} fit has a non-finite parameter or a scale <= 0: {params}")
    return fit, reason


def fit_mle(family: DistFamily, samples) -> FittedDistribution:
    """Fit one family by maximum likelihood.

    Raises only SoundnetError subclasses: InsufficientData / DegenerateData /
    NonFiniteValues on bad input; InvalidFit if the family cannot be fitted to
    the samples, as when they leave its support, or their magnitudes break the
    fitter's arithmetic or leave a parameter non-finite or the scale at 0;
    and NonConvergence (carrying the fit found) if a search hits its
    evaluation cap or finds no root, or if the likelihood's supremum lies on a
    boundary of the parameter space.
    """
    fit, reason = _fit(family, np.sort(_check_samples(samples)))
    if reason is not None:
        raise NonConvergence(f"{family.value} fit did not converge: {reason}", fit=fit)
    return fit


def ks_test(fit: FittedDistribution, samples) -> KsResult:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted sample;
    p = Q_KS(lambda) with lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.
    Raises InsufficientData on an empty sample, and NonFiniteValues when the
    sample holds NaN or an infinite value.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if x.size < 1:
        raise InsufficientData("ks_test needs at least one sample")
    if not np.isfinite(x).all():
        raise NonFiniteValues("samples contain NaN or infinite values")
    return _ks_sorted(fit, x)


def _ks_sorted(fit: FittedDistribution, x: np.ndarray) -> KsResult:
    """ks_test on a sample that is already sorted ascending."""
    n = x.size
    d = _ks_d_blocked(fit.cdf, x)
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return KsResult(statistic_d=d, p_value=_kolmogorov_q(lam), n=n)


def _ks_d(f, j, n) -> float:
    """max((j + 1)/n - f, f - j/n): the KS deviations at 0-based sorted ranks j."""
    return float(max(np.max((j + 1.0) / n - f), np.max(f - j / n)))


# _ks_d_blocked evaluates the CDF at every _KS_BLOCK-th sorted sample first.
# _KS_SLACK covers a computed CDF that falls by a few ulps where the true one
# rises, so a block skipped on its bound cannot hold the maximum.
_KS_BLOCK = 64
_KS_SLACK = 1e-12


def _ks_d_blocked(cdf, x):
    """The KS statistic D of the sorted sample x, with the CDF evaluated only
    where the maximum can be.

    With F non-decreasing, every rank j strictly inside the block [j0, j1] has
    (j + 1)/n - F(x_j) <= j1/n - F(x_j0) and F(x_j) - j/n <= F(x_j1) - (j0 + 1)/n.
    Blocks whose bound falls short of the largest deviation at the block ends
    are skipped; D is the maximum over the exactly evaluated ranks, the same
    float as the dense formula gives. If the CDF values at the block ends are
    not finite and non-decreasing, the bound does not hold and every block is
    evaluated.
    """
    n = x.size
    ends = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
    f_ends = cdf(x[ends])
    j_ends = ends.astype(np.float64)
    d = _ks_d(f_ends, j_ends, n)
    if np.isfinite(f_ends).all() and (np.diff(f_ends) >= 0.0).all():
        bound = np.maximum(j_ends[1:] / n - f_ends[:-1], f_ends[1:] - (j_ends[:-1] + 1.0) / n)
    else:
        bound = np.full(ends.size - 1, np.inf)
    starts = ends[:-1][bound >= d - _KS_SLACK]
    j = (starts[:, None] + np.arange(1, _KS_BLOCK)).ravel()
    j = j[j < n - 1]
    return max(d, _ks_d(cdf(x[j]), j.astype(np.float64), n)) if j.size else d


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
    """Fit all seven families, KS-score each, and pick the converged fit with the
    smallest D (ties: fewer free parameters, counting the shapes, the scale and a
    fitted loc, then family name). An InvalidFit family goes to `failed`."""
    x = np.sort(_check_samples(samples))
    per_family = {}
    failed = {}
    for family in ALL_FAMILIES:
        try:
            fit, reason = _fit(family, x)
            ks = _ks_sorted(fit, x)
            if not math.isfinite(ks.statistic_d):
                raise InvalidFit(f"{family.value} fit has a non-finite KS statistic: {fit.params_list()}")
        except InvalidFit as exc:
            failed[family] = str(exc)
            continue
        per_family[family] = FamilyFit(dist=fit, ks=ks, reason=reason)

    converged = [(ff.ks.statistic_d, ff.dist.param_count, fam.value, fam) for fam, ff in per_family.items() if ff.converged]
    if not converged:
        raise AllFitsFailed("no candidate family produced a converged fit")
    best = min(converged)[3]
    return FitReport(per_family=per_family, failed=failed, best=best, sample_n=x.size)


def report_to_dict(report: FitReport) -> dict:
    """JSON-ready view of a FitReport: params are [shape..., loc, scale]; an
    unconverged fit also carries its `reason`. `ks_p` is the asymptotic
    Kolmogorov p-value for a fully specified null. The parameters are estimated
    from the same sample, so it is biased upward (Lilliefors 1967, JASA
    62(318)) and serves as a comparative score."""
    families = {}
    for family, ff in report.per_family.items():
        families[family.value] = {
            "params": ff.dist.params_list(),
            "ks_d": ff.ks.statistic_d,
            "ks_p": ff.ks.p_value,
            "converged": ff.converged,
        }
        if ff.reason is not None:
            families[family.value]["reason"] = ff.reason
    for family, message in report.failed.items():
        families[family.value] = {"error": message, "converged": False}
    return {"best": report.best.value, "n": report.sample_n, "families": families}
