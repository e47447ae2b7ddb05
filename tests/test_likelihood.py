import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from pseudoe.likelihood import TfdParams, log1mexp, sigmoid
from pseudoe.model import _likelihood
from reference import log_interpolated, logit_from_log

WN18RR = TfdParams(tau1=0.29015, tau2=0.21697, u=0.040226, alpha=0.3673, alpha_prime=0.75182)


def log_fd(x, tau, u=0.0, alpha=1.0):
    """One Fermi-Dirac factor as the kernel computes it: the beta = 1 (Wick)
    factor at dt = 0 and |dx|^2 = alpha * x; a negative value is plain
    arithmetic to the kernel."""
    tfd = TfdParams(tau1=tau, tau2=1.0, u=u, alpha=0.5, alpha_prime=0.5, beta=1.0)
    x = alpha * np.asarray(x, dtype=np.float64)
    return _likelihood(tfd, np.zeros_like(x), x, 0.0, 0.0, 0.0)[4]


def log_tfd(s2, dt, params):
    """log F of the triple Fermi-Dirac likelihood as the kernel computes it
    for beta = 0 ``params``, with |dx|^2 = s2 + dt^2 so that s^2 = s2."""
    dt = np.asarray(dt, dtype=np.float64)
    return _likelihood(params, dt, s2 + dt * dt, 0.0, 0.0, 0.0)[4]


def masked_sigmoid(x):
    """`sigmoid` as first written: each sign of x on its own gathered copy."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_log1mexp(x):
    """`log1mexp` as first written: each side of -log 2 on its own gathered copy."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = x < -np.log(2.0)
    out[small] = np.log1p(-np.exp(x[small]))
    out[~small] = np.log(-np.expm1(x[~small]))
    return out


CUT = -math.log(2.0)
EDGES = [
    *(0.0, -0.0, math.inf, -math.inf, math.nan, 1e4, -1e4),
    *(CUT, math.nextafter(CUT, -math.inf), math.nextafter(CUT, 0.0)),
    *(-1e-17, -(2.0**-60)),  # exp(x) rounds to 1
]


def helper_inputs():
    """The edge values and a random spread over both signs and many magnitudes."""
    rng = np.random.default_rng(0)
    spread = np.exp(rng.uniform(-60.0, 10.0, 2_000))
    return np.concatenate([EDGES, rng.normal(0.0, 30.0, 2_000), spread, -spread])


def mp_log_fd(x, tau, u, alpha):
    """Arbitrary-precision transcription of the Fermi-Dirac definition."""
    import mpmath as mp

    mp.mp.dps = 50
    return -mp.log(mp.e ** ((mp.mpf(alpha) * x - mp.mpf(u)) / mp.mpf(tau)) + 1)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TfdParams(tau1=0.0, tau2=1.0, u=0.0, alpha=0.5, alpha_prime=0.5)
        with pytest.raises(ValueError):
            TfdParams(tau1=1.0, tau2=1.0, u=-0.1, alpha=0.5, alpha_prime=0.5)
        with pytest.raises(ValueError):
            TfdParams(tau1=1.0, tau2=1.0, u=0.0, alpha=1.5, alpha_prime=0.5)
        with pytest.raises(ValueError):
            TfdParams(tau1=1.0, tau2=1.0, u=0.0, alpha=0.5, alpha_prime=0.5, beta=1.2)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("u", np.nan, "u must be a non-negative real, got nan"),
            ("u", np.inf, "u must be a non-negative real, got inf"),
            ("tau1", np.inf, "tau1 must be a positive real, got inf"),
            ("tau1", np.nan, "tau1 must be a positive real, got nan"),
            ("tau2", np.inf, "tau2 must be a positive real, got inf"),
        ],
    )
    def test_non_finite_values_refused(self, name, value, message):
        settings = {"tau1": 1.0, "tau2": 1.0, "u": 0.0, "alpha": 0.5, "alpha_prime": 0.5, name: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            TfdParams(**settings)


class TestHelpers:
    """`sigmoid` and `log1mexp` run one expression on every element; they must
    keep the bits of the masked forms, signed zeros and NaNs included."""

    @pytest.mark.parametrize("helper,masked", [(sigmoid, masked_sigmoid), (log1mexp, masked_log1mexp)])
    def test_bits_match_the_masked_forms(self, helper, masked):
        x = helper_inputs()
        with np.errstate(all="ignore"):  # log1mexp is undefined at x >= 0, as before
            assert np.array_equal(helper(x).view(np.int64), masked(x).view(np.int64))

    @pytest.mark.parametrize("helper", [sigmoid, log1mexp])
    def test_no_warning_below_zero(self, helper):
        # An untaken branch must not warn either: unclamped, log1p(-exp(x))
        # runs log1p(-1) at x = -1e-17, where exp(x) rounds to 1.
        x = helper_inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            helper(x[x < 0])
            for value in x[x < 0][:20]:
                helper(float(value))

    def test_log1mexp_warns_where_it_is_undefined(self):
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert log1mexp(0.0) == -math.inf
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(log1mexp(1.0))

    @pytest.mark.parametrize(
        "helper,masked,value",
        [(sigmoid, masked_sigmoid, v) for v in (0.0, -0.0, math.inf, -math.inf, -1e-17, 1e4, -3.5, 2.5)]
        + [(log1mexp, masked_log1mexp, v) for v in (-math.inf, CUT, -1e-17, -1e4, -3.5)],
    )
    def test_scalar_in_float_out(self, helper, masked, value):
        out = helper(value)
        assert isinstance(out, float)
        assert np.array([out]).view(np.int64)[0] == masked([value]).view(np.int64)[0]


class TestLogFd:
    def test_exponent_zero_gives_half(self):
        assert log_fd(0.0, 1.0, 0.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_limit_large_x(self):
        assert log_fd(1e6, 1.0, 0.0, 1.0) < -9e5  # F -> 0, log F -> -inf

    def test_frozen_value(self):
        # independent high-precision evaluation: log(1/(e^2 + 1))
        assert log_fd(1.0, 0.5, 0.0, 1.0) == pytest.approx(-2.1269280110429725, abs=1e-12)
        assert log_fd(1.0, 0.5, 0.0, 1.0) == pytest.approx(float(mp_log_fd(1, 0.5, 0, 1)), abs=1e-13)

    def test_stable_at_extreme_exponent(self):
        v = log_fd(1e8, 0.01, 0.0, 1.0)
        assert np.isfinite(v) and v == pytest.approx(-1e10)

    @given(x1=st.floats(-100, 100), gap=st.floats(0.001, 100), alpha=st.floats(0, 1))
    def test_monotone_nonincreasing(self, x1, gap, alpha):
        assert log_fd(x1 + gap, 1.3, 0.2, alpha) <= log_fd(x1, 1.3, 0.2, alpha)


class TestLogTfd:
    def test_origin_is_half(self):
        params = TfdParams(tau1=0.7, tau2=0.3, u=0.0, alpha=0.2, alpha_prime=0.9)
        assert log_tfd(0.0, 0.0, params) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_symmetric_when_alphas_match(self):
        params = TfdParams(tau1=0.7, tau2=0.3, u=0.1, alpha=0.6, alpha_prime=0.6)
        for dt in (0.3, 1.7, -2.5):
            assert log_tfd(1.0, dt, params) == pytest.approx(log_tfd(1.0, -dt, params), abs=1e-12)

    def test_frozen_wn18rr_value(self):
        # high-precision transcription of the triple product (k = 1)
        assert log_tfd(3.0, 1.0, WN18RR) == pytest.approx(-4.6218829558321847, abs=1e-12)

    def test_against_mpmath_oracle(self):
        expected = (
            mp_log_fd(3.0, WN18RR.tau1, WN18RR.u, 1.0)
            + mp_log_fd(-1.0, WN18RR.tau2, 0.0, WN18RR.alpha)
            + mp_log_fd(1.0, WN18RR.tau2, 0.0, WN18RR.alpha_prime)
        ) / 3
        assert log_tfd(3.0, 1.0, WN18RR) == pytest.approx(float(expected), abs=1e-13)

    @given(s2=st.floats(-50, 50), dt=st.floats(-20, 20))
    def test_strictly_negative(self, s2, dt):
        assert log_tfd(s2, dt, WN18RR) < 0.0

    @given(s2=st.floats(-50, 50), gap=st.floats(0.01, 50), dt=st.floats(-20, 20))
    def test_monotone_in_s2(self, s2, gap, dt):
        assert log_tfd(s2 + gap, dt, WN18RR) <= log_tfd(s2, dt, WN18RR)

    @given(s2=st.floats(-20, 20), dt=st.floats(-10, -0.01))
    def test_time_asymmetry_direction(self, s2, dt):
        # with alpha' > alpha, negative dt (head earlier) scores higher, and
        # the gap is exactly dt (alpha - alpha') / (3 tau2)
        gap = log_tfd(s2, dt, WN18RR) - log_tfd(s2, -dt, WN18RR)
        assert gap > 0.0
        assert gap == pytest.approx(dt * (WN18RR.alpha - WN18RR.alpha_prime) / (3 * WN18RR.tau2), abs=1e-12)


class TestInterpolation:
    def test_endpoints_exact(self):
        assert log_interpolated(-2.3, -5.7, 0.0) == -2.3
        assert log_interpolated(-2.3, -5.7, 1.0) == -5.7

    def test_midpoint(self):
        assert log_interpolated(-2.0, -4.0, 0.5) == pytest.approx(-3.0, abs=1e-15)

    @given(
        a=st.floats(-50, -1e-3),
        b=st.floats(-50, -1e-3),
        b1=st.floats(0, 1),
        b2=st.floats(0, 1),
    )
    def test_affine_and_monotone_in_beta(self, a, b, b1, b2):
        mid = log_interpolated(a, b, 0.5 * (b1 + b2))
        two = 0.5 * (log_interpolated(a, b, b1) + log_interpolated(a, b, b2))
        assert mid == pytest.approx(two, rel=1e-12, abs=1e-12)
        lo, hi = sorted((a, b))
        assert lo - 1e-12 <= log_interpolated(a, b, b1) <= hi + 1e-12


class TestLogit:
    def test_half(self):
        assert logit_from_log(math.log(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_three_quarters(self):
        assert logit_from_log(math.log(0.75)) == pytest.approx(1.0986122886681097, abs=1e-14)

    def test_deep_tail(self):
        # complement is ~1, so the logit is log p itself up to ~2e-22
        assert logit_from_log(-50.0) == pytest.approx(-50.0, rel=1e-12)

    @given(p=st.floats(1e-15, 1.0 - 1e-12))
    def test_sigmoid_inverts_logit(self, p):
        assert sigmoid(logit_from_log(math.log(p))) == pytest.approx(p, rel=1e-12)

    @given(x=st.floats(-700, -1e-12))
    def test_log1mexp_matches_direct(self, x):
        direct = math.log1p(-math.exp(x)) if x < -1e-5 else math.log(-math.expm1(x))
        assert log1mexp(x) == pytest.approx(direct, rel=1e-12)
