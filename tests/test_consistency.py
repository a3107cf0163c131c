"""Rolling-regression significance machinery.

The Student-t tail values below were frozen from an independent
high-precision computation (mpmath, 40 decimal digits) before the fast
continued-fraction implementation was written; they are the reference this
module is held to.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toplag import consistency
from toplag.consistency import (
    make_synced,
    regularized_incomplete_beta,
    resample_lag_to_time,
    round_half_away,
    run_consistency,
    student_t_two_sided_pvalue,
)
from toplag.ingest import AlignedPair

# (df, |t|) -> two-sided p, 16 significant digits
FROZEN_T_TAILS = {
    (3, 1.96): 0.1448522085648537,
    (3, 2.58): 0.08177980931652529,
    (18, 1.96): 0.06566395547696734,
    (18, 2.58): 0.01887576659539453,
    (98, 1.96): 0.05283590387840338,
    (98, 2.58): 0.01136400217759828,
}


class TestRounding:
    @pytest.mark.parametrize(
        "v,want",
        [(0.5, 1.0), (-0.5, -1.0), (1.5, 2.0), (2.5, 3.0), (-2.5, -3.0),
         (0.49, 0.0), (-0.49, 0.0), (3.0, 3.0)],
    )
    def test_halves_go_away_from_zero(self, v, want):
        assert round_half_away(v) == want

    def test_differs_from_bankers_rounding_at_even_halves(self):
        assert round_half_away(2.5) == 3.0
        assert np.round(2.5) == 2.0

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_result_is_nearest_integer(self, v):
        r = float(round_half_away(v))
        assert r == int(r)
        assert abs(r - v) <= 0.5


class TestStudentT:
    def test_matches_frozen_reference_table(self):
        for (df, t), want in FROZEN_T_TAILS.items():
            got = student_t_two_sided_pvalue(t, df)
            assert got == pytest.approx(want, rel=1e-12)

    def test_matches_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (3, 18, 98, 5, 47):
            for t in (0.0, 0.3, 1.96, 2.58, 7.5):
                want = 2.0 * float(scipy_stats.t.sf(t, df))
                assert student_t_two_sided_pvalue(t, df) == pytest.approx(
                    want, rel=1e-10, abs=1e-300
                )

    def test_symmetric_in_t(self):
        assert student_t_two_sided_pvalue(-2.2, 9) == student_t_two_sided_pvalue(
            2.2, 9
        )

    def test_extremes(self):
        assert student_t_two_sided_pvalue(0.0, 5) == 1.0
        assert student_t_two_sided_pvalue(np.inf, 5) == 0.0

    @given(
        st.integers(2, 200),
        st.floats(0.0, 50.0),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_decreasing_in_abs_t(self, df, t, dt):
        lo = student_t_two_sided_pvalue(t + dt, df)
        hi = student_t_two_sided_pvalue(t, df)
        assert lo <= hi + 1e-15


class TestIncompleteBeta:
    @given(st.floats(0.5, 50.0), st.floats(0.5, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_endpoints(self, a, b):
        assert regularized_incomplete_beta(a, b, 0.0) == 0.0
        assert regularized_incomplete_beta(a, b, 1.0) == 1.0

    @given(
        st.floats(0.5, 20.0),
        st.floats(0.5, 20.0),
        st.floats(0.001, 0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_reflection_identity(self, a, b, x):
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(
        st.floats(0.5, 20.0),
        st.floats(0.5, 20.0),
        st.floats(0.01, 0.98),
        st.floats(0.001, 0.019),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_x(self, a, b, x, dx):
        assert regularized_incomplete_beta(a, b, x + dx) >= regularized_incomplete_beta(
            a, b, x
        )


class TestResample:
    def test_constant_lag_passes_through(self):
        n = 50
        taus = np.arange(4, 2 * n - 6)
        lags = np.full(taus.size, 4.0)
        t, lag_t = resample_lag_to_time(taus, lags, n)
        assert np.all(lag_t == 4.0)
        assert np.array_equal(t, np.arange(t[0], t[-1] + 1))

    def test_identity_diagonal_maps_to_zero(self):
        n = 30
        taus = np.arange(0, 2 * n - 1, 2)
        lags = np.zeros(taus.size)
        t, lag_t = resample_lag_to_time(taus, lags, n)
        assert np.all(lag_t == 0.0)

    def test_step_trajectory_recovered_away_from_transition(self):
        n = 120
        taus = np.arange(0, 2 * n - 1)
        # lag 3 while the back-projected time is below n/2, then 9
        lags = np.where((taus + 3) / 2 < n / 2, 3.0, 9.0)
        t, lag_t = resample_lag_to_time(taus, lags, n)
        true = np.where(t < n / 2, 3.0, 9.0)
        away = np.abs(t - n / 2) > 6
        assert np.all(np.abs(lag_t[away] - true[away]) <= 1.0)

    def test_out_of_range_layers_dropped(self):
        t, lag_t = resample_lag_to_time([0, 2, 4], [-8.0, 0.0, 0.0], 10)
        assert t.min() >= 0 and t.max() <= 9

    def test_collisions_average(self):
        # two layers land on the same integer time; the values average
        t, lag_t = resample_lag_to_time([4, 5], [0.0, 1.0], 10)
        # (4+0)/2 = 2, (5+1)/2 = 3 -> no collision here; force one:
        t2, lag2 = resample_lag_to_time([4, 6], [2.0, 0.0], 10)
        assert np.array_equal(t2, [3])
        assert lag2[0] == pytest.approx(1.0)


class TestSyncedSamples:
    def test_rows_pair_y_with_shifted_x(self):
        x = np.arange(20.0)
        y = np.arange(20.0) * 10
        pair = AlignedPair(x=x, y=y)
        s = make_synced(pair, np.arange(20), np.full(20, 3.0))
        assert s.excluded == 3
        assert np.array_equal(s.t, np.arange(3, 20))
        assert np.array_equal(s.x_lagged, x[:17])

    def test_fractional_lags_round_half_away(self):
        pair = AlignedPair(x=np.arange(10.0), y=np.arange(10.0))
        s = make_synced(pair, np.arange(10), np.full(10, 2.5))
        assert np.array_equal(s.x_lagged, pair.x[s.t - 3])


class TestRollingRegression:
    def _pair(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=n)

    def test_perfect_fit_slope_one_everywhere(self):
        x = self._pair()
        pair = AlignedPair(x=x, y=x.copy())
        rep = run_consistency(pair, np.arange(200), np.zeros(200), window=20)
        assert rep.n_windows == 200 - 20 + 1
        assert np.all(np.abs(rep.slope - 1.0) <= 1e-9)
        assert np.all(rep.p_value[rep.defined] < 1e-12)
        assert np.all(rep.significant[rep.defined])

    def test_exact_line_window(self):
        pair = AlignedPair(x=np.array([1.0, 2, 3, 4, 5]), y=np.array([2.0, 4, 6, 8, 10]))
        rep = run_consistency(pair, np.arange(5), np.zeros(5), window=5)
        assert rep.n_windows == 1
        assert rep.slope[0] == pytest.approx(2.0, abs=1e-12)
        assert rep.intercept[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isinf(rep.t_stat[0]) and rep.t_stat[0] > 0
        assert rep.p_value[0] == 0.0

    def test_t_stat_sign_follows_slope(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        y = -0.8 * x + rng.normal(0, 0.5, size=300)
        pair = AlignedPair(x=x, y=y)
        rep = run_consistency(pair, np.arange(300), np.zeros(300), window=25)
        d = rep.defined & (rep.slope != 0)
        assert np.all(np.sign(rep.t_stat[d]) == np.sign(rep.slope[d]))

    def test_window_count_is_samples_minus_window_plus_one(self):
        pair = AlignedPair(x=self._pair(157), y=self._pair(157, seed=1))
        rep = run_consistency(pair, np.arange(157), np.zeros(157), window=30)
        assert rep.n_windows == 157 - 30 + 1

    def test_shifting_regressor_moves_only_intercept(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=250)
        y = 1.4 * x + rng.normal(0, 0.3, size=250)
        a = run_consistency(AlignedPair(x=x, y=y), np.arange(250), np.zeros(250), 20)
        b = run_consistency(
            AlignedPair(x=x + 100.0, y=y), np.arange(250), np.zeros(250), 20
        )
        assert np.all(np.abs(a.slope - b.slope) <= 1e-9)
        assert np.all(
            np.abs((a.intercept - b.intercept) - 100.0 * a.slope) <= 1e-6
        )

    def test_constant_regressor_window_undefined(self):
        x = np.ones(40)
        x[25:] = np.arange(15)
        rng = np.random.default_rng(0)
        pair = AlignedPair(x=x, y=rng.normal(size=40))
        rep = run_consistency(pair, np.arange(40), np.zeros(40), window=10)
        assert not rep.defined[0]
        assert np.isnan(rep.slope[0])
        assert not rep.significant[0]
        assert rep.defined[-1]

    def test_independent_noise_rejects_at_nominal_rate(self):
        rng = np.random.default_rng(42)
        n = 2300
        pair = AlignedPair(x=rng.normal(size=n), y=rng.normal(size=n))
        rep = run_consistency(pair, np.arange(n), np.zeros(n), window=20)
        assert rep.n_windows >= 2000
        assert rep.frac_significant == pytest.approx(0.05, abs=0.03)

    def test_huge_series_keep_every_window(self):
        # Centred values near 1e200 square past the double range unless each
        # series is first scaled by an exact power of two; the pair scaled
        # by 2**-700 then gives the same bits.
        rng = np.random.default_rng(3)
        x = 1e200 * rng.normal(size=60)
        y = 0.5 * x + 1e200 * rng.normal(size=60)
        t, lag = np.arange(60), np.zeros(60)
        big = run_consistency(AlignedPair(x=x, y=y), t, lag, window=20)
        small = run_consistency(
            AlignedPair(x=np.ldexp(x, -700), y=np.ldexp(y, -700)), t, lag, window=20
        )
        assert big.n_defined == big.n_windows == 41
        for name in ("slope", "t_stat", "p_value"):
            assert getattr(big, name).tobytes() == getattr(small, name).tobytes()
        assert np.ldexp(big.intercept, -700).tobytes() == small.intercept.tobytes()

    def test_too_small_window_rejected(self):
        pair = AlignedPair(x=np.arange(10.0), y=np.arange(10.0))
        with pytest.raises(ValueError):
            run_consistency(pair, np.arange(10), np.zeros(10), window=2)

    def test_fewer_samples_than_window_gives_empty_report(self):
        pair = AlignedPair(x=np.arange(8.0), y=np.arange(8.0))
        rep = run_consistency(pair, np.arange(8), np.zeros(8), window=12)
        assert rep.n_windows == 0
        assert np.isnan(rep.frac_significant)


# Reference tail: the scalar Lentz loop as it was before the p-values of all
# windows were computed in one pass. The vector code must reproduce it bit
# for bit.
def _ref_beta_cont_frac(a, b, x):
    """Continued fraction for the incomplete beta, by Lentz's method."""
    _BETA_MAXIT = consistency._BETA_MAXIT
    _BETA_EPS = consistency._BETA_EPS
    _BETA_FPMIN = consistency._BETA_FPMIN
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _ref_regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Choose the representation whose continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _ref_beta_cont_frac(a, b, x) / a
    return 1.0 - front * _ref_beta_cont_frac(b, a, 1.0 - x) / b


def _ref_student_t_two_sided_pvalue(t, df):
    """P(|T_df| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return _ref_regularized_incomplete_beta(0.5 * df, 0.5, x)


def _t_grid():
    rng = np.random.default_rng(12)
    scales = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
    ts = np.concatenate([s * rng.standard_normal(40) for s in scales])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e300, -1e300]
    return np.concatenate([ts, special])


def _same_bits(got, want):
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(
        want, dtype=np.float64
    ).tobytes()


class TestTailsMatchScalarReference:
    @pytest.mark.parametrize("df", [1, 2, 5, 18, 38, 100])
    def test_vector_pvalues_are_byte_identical(self, df):
        ts = _t_grid()
        want = [_ref_student_t_two_sided_pvalue(float(v), df) for v in ts]
        assert _same_bits(consistency._student_t_pvalues(ts, df), want)

    @pytest.mark.parametrize("df", [1, 2, 5, 18, 38, 100])
    def test_scalar_wrapper_is_byte_identical(self, df):
        for v in _t_grid().tolist():
            got = student_t_two_sided_pvalue(v, df)
            assert type(got) is float
            assert _same_bits(got, _ref_student_t_two_sided_pvalue(v, df))

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (2, 3), (9.0, 0.5), (0.3, 7.5), (50.0, 0.5)])
    def test_incomplete_beta_is_byte_identical(self, a, b):
        xs = [0.0, 1e-300, 1e-12, 0.01, 0.2, 0.5, 0.7, 0.9, 0.999, 1 - 1e-12, 1.0]
        xs += np.random.default_rng(5).random(30).tolist()
        for x in xs:
            got = regularized_incomplete_beta(a, b, x)
            assert _same_bits(got, _ref_regularized_incomplete_beta(a, b, x))

    def test_huge_t_is_silent(self):
        with np.errstate(all="raise"):
            got = consistency._student_t_pvalues(np.array([1e200, -1e160, 3.0]), 18)
        assert got[0] == 0.0 and got[1] == 0.0 and 0.0 < got[2] < 1.0

    def test_empty_input(self):
        assert consistency._student_t_pvalues(np.empty(0), 5).size == 0

    def test_run_consistency_report_is_byte_identical(self):
        rng = np.random.default_rng(8)
        n = 600
        x = rng.normal(size=n)
        y = 0.4 * np.roll(x, 2) + rng.normal(size=n)
        x[100:130] = 1.5  # constant regressor: undefined windows
        y[300:340] = 2.0 * x[298:338]  # exact fit: a huge or infinite t
        lag = np.where(np.arange(n) < 450, 2.0, 1.0)
        window = 20
        rep = run_consistency(AlignedPair(x=x, y=y), np.arange(n), lag, window)
        d = rep.defined
        assert 0 < rep.n_defined < rep.n_windows
        assert np.abs(rep.t_stat[d]).max() > 1e6
        pv = np.array(
            [_ref_student_t_two_sided_pvalue(float(v), window - 2) for v in rep.t_stat[d]]
        )
        want = np.full(rep.n_windows, np.nan)
        want[d] = pv
        assert _same_bits(rep.p_value, want)
        want_sig = np.zeros(rep.n_windows, dtype=bool)
        want_sig[d] = pv <= rep.alpha
        assert np.array_equal(rep.significant, want_sig)

    def test_nonconvergence_still_raises(self, monkeypatch):
        monkeypatch.setattr(consistency, "_BETA_MAXIT", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            student_t_two_sided_pvalue(1.3, 18)
        with pytest.raises(RuntimeError, match="did not converge"):
            consistency._student_t_pvalues(np.array([0.4, 1.3, 2.5]), 18)

    def test_nan_x_still_raises_like_the_scalar_loop(self):
        with pytest.raises(RuntimeError):
            _ref_regularized_incomplete_beta(2.0, 3.0, float("nan"))
        with pytest.raises(RuntimeError):
            regularized_incomplete_beta(2.0, 3.0, float("nan"))
