"""Consistency scoring of a detected lag trajectory.

The lag path lives on anti-diagonal layers; here it is resampled onto the
calendar index t of the second series, then a rolling ordinary least squares
fit of y_t on x_{t - lag(t)} asks, window by window, whether the pairing the
path proposes actually explains the data. The window's slope, its t
statistic, and a two-sided Student-t p-value are reported; windows whose
shifted regressor is constant are undefined rather than errors.

The Student-t tail is evaluated through the regularized incomplete beta
function, computed with a Lentz continued fraction that runs over all
windows at once; no external stats dependency is involved.
"""

import math
from dataclasses import dataclass

import numpy as np


def round_half_away(v):
    """Round to nearest integer with halves away from zero (unlike np.round)."""
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


# --- Student-t tail --------------------------------------------------------

_BETA_MAXIT = 300
_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300


def _clamp_tiny(v):
    """Lift entries with |v| < _BETA_FPMIN to _BETA_FPMIN, in place."""
    v[np.abs(v) < _BETA_FPMIN] = _BETA_FPMIN


def _beta_cont_frac(a, b, x):
    """Continued fraction for the incomplete beta, by Lentz's method.

    Elementwise over the array x with scalar a and b. Each element runs the
    same sequence of correctly rounded + - * / as a scalar loop would and
    leaves the loop at its own convergence step.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty(x.size)
    idx = np.arange(x.size)
    c = np.ones(x.size)
    d = 1.0 - qab * x / qap
    _clamp_tiny(d)
    d = 1.0 / d
    h = d
    m = 0
    while idx.size:
        m += 1
        if m > _BETA_MAXIT:
            raise RuntimeError("incomplete beta continued fraction did not converge")
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        _clamp_tiny(d)
        c = 1.0 + aa / c
        _clamp_tiny(c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        _clamp_tiny(d)
        c = 1.0 + aa / c
        _clamp_tiny(c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _BETA_EPS
        if done.any():
            out[idx[done]] = h[done]
            live = ~done
            idx, x, c, d, h = idx[live], x[live], c[live], d[live], h[live]
    return out


def _incomplete_beta(a, b, x):
    """I_x(a, b) elementwise over the float64 array x, for scalar a, b > 0."""
    out = np.empty(x.size)
    low, high = x <= 0.0, x >= 1.0
    out[low] = 0.0
    out[high] = 1.0
    # NaN goes on to the continued fraction, which then does not converge.
    inner = np.flatnonzero(~(low | high))
    xs = x[inner]
    # Summed left to right, so the lgamma terms can be taken out of the
    # per-element sum without changing a bit.
    g = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = np.array(
        [math.exp(g + a * math.log(v) + b * math.log1p(-v)) for v in xs.tolist()]
    )
    # Choose the representation whose continued fraction converges fast.
    lower = xs < (a + 1.0) / (a + b + 2.0)
    upper = ~lower
    out[inner[lower]] = front[lower] * _beta_cont_frac(a, b, xs[lower]) / a
    out[inner[upper]] = 1.0 - front[upper] * _beta_cont_frac(b, a, 1.0 - xs[upper]) / b
    return out


def _student_t_pvalues(t, df):
    """Two-sided Student-t p-values elementwise over the float64 array t."""
    out = np.zeros(t.size)  # p = 0 for an infinite t
    out[np.isnan(t)] = np.nan
    finite = np.flatnonzero(np.isfinite(t))
    tf = t[finite]
    # t * t is +inf beyond |t| ~ 1e154, which gives x = 0 and p = 0.
    with np.errstate(over="ignore"):
        x = df / (df + tf * tf)
    out[finite] = _incomplete_beta(0.5 * df, 0.5, x)
    return out


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    return float(_incomplete_beta(a, b, np.array([x], dtype=np.float64))[0])


def student_t_two_sided_pvalue(t, df):
    """P(|T_df| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(_student_t_pvalues(np.array([t], dtype=np.float64), df)[0])


# --- lag resampling ---------------------------------------------------------


def resample_lag_to_time(taus, lags, n):
    """Map a per-layer lag trajectory onto the calendar index of series y.

    A layer tau with mean lag x sits at continuous time (tau + x) / 2 on the
    y axis. Each layer is assigned to the nearest integer index (halves away
    from zero), collisions are averaged, interior gaps are filled by linear
    interpolation, and indices outside [0, n-1] are dropped.

    Returns (t_index, lag_at_t) with t_index a contiguous integer range.
    """
    taus = np.asarray(taus, dtype=np.float64)
    lags = np.asarray(lags, dtype=np.float64)
    t_assign = round_half_away((taus + lags) / 2.0).astype(np.int64)
    keep = (t_assign >= 0) & (t_assign <= n - 1)
    t_assign = t_assign[keep]
    vals = lags[keep]
    if t_assign.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    sums = np.bincount(t_assign, weights=vals, minlength=n)
    counts = np.bincount(t_assign, minlength=n)
    have = counts > 0
    t_have = np.nonzero(have)[0]
    avg = sums[have] / counts[have]
    t_index = np.arange(t_have[0], t_have[-1] + 1, dtype=np.int64)
    lag_at_t = np.interp(t_index, t_have, avg)
    return t_index, lag_at_t


@dataclass
class SyncedSamples:
    """Rows (t, y_t, x_{t - lag(t)}) usable by the rolling regression.

    excluded counts time indices dropped because the shifted x index fell
    outside the observed range.
    """

    t: np.ndarray
    y: np.ndarray
    x_lagged: np.ndarray
    excluded: int


def make_synced(pair, t_index, lag_at_t):
    """Pair each y_t with its lag-shifted x partner, dropping off-range rows."""
    t_index = np.asarray(t_index, dtype=np.int64)
    shift = round_half_away(lag_at_t).astype(np.int64)
    src = t_index - shift
    ok = (src >= 0) & (src < pair.n) & (t_index >= 0) & (t_index < pair.n)
    return SyncedSamples(
        t=t_index[ok],
        y=pair.y[t_index[ok]],
        x_lagged=pair.x[src[ok]],
        excluded=int(np.count_nonzero(~ok)),
    )


# --- rolling regression ------------------------------------------------------


@dataclass
class ConsistencyReport:
    """Rolling-window OLS results of y_t on x_{t - lag(t)}.

    Arrays are aligned; row k describes the window of `window` consecutive
    synced samples ending at time index t_end[k]. Windows with a constant
    regressor carry defined=False and NaN statistics. significant marks
    defined windows with p_value <= alpha.
    """

    window: int
    alpha: float
    t_end: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    t_stat: np.ndarray
    p_value: np.ndarray
    significant: np.ndarray
    defined: np.ndarray
    n_excluded_samples: int

    @property
    def n_windows(self):
        return self.t_end.size

    @property
    def n_defined(self):
        return int(np.count_nonzero(self.defined))

    @property
    def frac_significant(self):
        d = self.n_defined
        if d == 0:
            return float("nan")
        return float(np.count_nonzero(self.significant) / d)


def _window_sums(v, w):
    cs = np.concatenate([[0.0], np.cumsum(v)])
    return cs[w:] - cs[:-w]


def run_consistency(pair, t_index, lag_at_t, window, alpha=0.05):
    """Rolling OLS of y_t on x_{t - lag(t)} over the synced sample rows."""
    w = int(window)
    if w < 3:
        raise ValueError("window must span at least 3 samples")
    sample = make_synced(pair, t_index, lag_at_t)
    x, y, t = sample.x_lagged, sample.y, sample.t
    m = x.size
    if m < w:
        empty_f = np.empty(0)
        empty_b = np.empty(0, dtype=bool)
        return ConsistencyReport(
            window=w,
            alpha=alpha,
            t_end=np.empty(0, dtype=np.int64),
            slope=empty_f,
            intercept=empty_f.copy(),
            t_stat=empty_f.copy(),
            p_value=empty_f.copy(),
            significant=empty_b,
            defined=empty_b.copy(),
            n_excluded_samples=sample.excluded,
        )

    # Shift to the global means first; slopes are shift-invariant and the
    # windowed cross sums lose less precision near zero. Exact powers of
    # two then scale each to a peak in [0.5, 1), so no square overflows.
    gx = float(x.mean())
    gy = float(y.mean())
    xs = x - gx
    ys = y - gy
    ex, ey = (int(np.frexp(np.abs(v).max())[1]) for v in (xs, ys))
    xs, ys = np.ldexp(xs, -ex), np.ldexp(ys, -ey)
    sx = _window_sums(xs, w)
    sy = _window_sums(ys, w)
    sxx = _window_sums(xs * xs, w)
    syy = _window_sums(ys * ys, w)
    sxy = _window_sums(xs * ys, w)
    sxx_c = np.maximum(sxx - sx * sx / w, 0.0)
    syy_c = np.maximum(syy - sy * sy / w, 0.0)
    sxy_c = sxy - sx * sy / w

    defined = sxx_c > 0.0
    slope = np.full(sx.size, np.nan)
    intercept = np.full(sx.size, np.nan)
    t_stat = np.full(sx.size, np.nan)
    p_value = np.full(sx.size, np.nan)

    d = defined
    # b is the slope of the scaled series; rss, se and t stay on that scale.
    b = sxy_c[d] / sxx_c[d]
    slope[d] = np.ldexp(b, ey - ex)
    # Means on the original scale recover the intercept.
    mean_x = np.ldexp(sx[d] / w, ex) + gx
    mean_y = np.ldexp(sy[d] / w, ey) + gy
    intercept[d] = mean_y - slope[d] * mean_x

    rss = np.maximum(syy_c[d] - b * sxy_c[d], 0.0)
    df = w - 2
    se = np.sqrt(rss / df / sxx_c[d])
    ts = np.empty(se.size)
    nz = se > 0.0
    ts[nz] = b[nz] / se[nz]
    # Zero residual is an exact fit: infinite t unless the slope is zero too.
    sl = b[~nz]
    ts[~nz] = np.where(sl == 0.0, 0.0, np.sign(sl) * np.inf)
    t_stat[d] = ts
    pv = _student_t_pvalues(ts, df)
    p_value[d] = pv

    significant = np.zeros(sx.size, dtype=bool)
    significant[d] = pv <= alpha
    return ConsistencyReport(
        window=w,
        alpha=alpha,
        t_end=t[w - 1 :].copy(),
        slope=slope,
        intercept=intercept,
        t_stat=t_stat,
        p_value=p_value,
        significant=significant,
        defined=defined,
        n_excluded_samples=sample.excluded,
    )
