import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from pseudoe.geometry import GeometryConfig, Signature
from pseudoe.model import _wrap
from reference import squared_interval, wick_squared_distance

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
small_vec = st.lists(finite, min_size=1, max_size=5).map(np.asarray)


class TestTypes:
    def test_signature_dim(self):
        assert Signature(2, 3).dim == 5

    @pytest.mark.parametrize("n_t,n_x", [(0, 3), (1, 0), (-1, 2)])
    def test_signature_rejects_nonpositive(self, n_t, n_x):
        with pytest.raises(ValueError):
            Signature(n_t, n_x)

    def test_geometry_rejects_bad_circumference(self):
        with pytest.raises(ValueError):
            GeometryConfig(Signature(1, 2), 0.0)
        with pytest.raises(ValueError):
            GeometryConfig(Signature(1, 2), -3.0)
        GeometryConfig(Signature(1, 2), None)  # non-compact is fine


class TestWrapTime:
    """The kernel's cylinder wrap."""

    def test_zero(self):
        assert _wrap(0.0, 8.0) == 0.0

    def test_minimal_displacement(self):
        # minimize |7 - 8a| over integers a: a=1 gives -1
        assert _wrap(7.0, 8.0) == -1.0

    def test_boundary_half_open(self):
        # |-4| ties |4|; the half-open interval [-C/2, C/2) keeps -4
        assert _wrap(-4.0, 8.0) == -4.0
        assert _wrap(4.0, 8.0) == -4.0

    @given(t=st.floats(-50, 50), c=st.floats(0.1, 20), k=st.integers(-3, 3))
    @example(t=3.0, c=0.4, k=2)
    @example(t=-0.5, c=1 / 3, k=-2)
    def test_periodicity(self, t, c, k):
        # t + k * c is itself rounded, so at the seam the two wraps can sit
        # at opposite ends of [-c/2, c/2): compare them as points of the circle.
        d = abs(_wrap(t + k * c, c) - _wrap(t, c))
        assert min(d, c - d) <= 1e-9 * c

    @given(t=st.floats(-1e5, 1e5), c=st.floats(0.1, 100))
    @example(t=3.0, c=0.4)  # the rounded quotient alone gives -0.20000000000000018
    @example(t=-0.5, c=1 / 3)
    def test_range(self, t, c):
        w = _wrap(t, c)
        assert -c / 2 <= w < c / 2


class TestSquaredInterval:
    """The oracle's interval and Wick distance."""

    def test_coincident(self):
        assert squared_interval(0.0, np.zeros(3)) == 0.0

    def test_unit_timelike(self):
        assert squared_interval(1.0, np.zeros(3)) == -1.0

    def test_mixed(self):
        assert squared_interval(1.0, np.array([2.0])) == 3.0

    def test_wick_values(self):
        assert wick_squared_distance(0.0, np.zeros(2)) == 0.0
        assert wick_squared_distance(1.0, np.zeros(2)) == 1.0
        assert wick_squared_distance(1.0, np.array([2.0])) == 5.0

    @given(dt=finite, dx=small_vec)
    def test_wick_minus_twice_dt2(self, dt, dx):
        # s^2 and its Wick rotation differ by exactly 2 dt^2; float tolerance
        # scales with the magnitudes being cancelled
        scale = 1.0 + dt * dt + float(np.sum(dx * dx))
        assert squared_interval(dt, dx) == pytest.approx(
            wick_squared_distance(dt, dx) - 2.0 * dt * dt, abs=1e-12 * scale
        )

    @given(dt=finite, dx=small_vec)
    def test_wick_nonnegative_and_dominates(self, dt, dx):
        w = wick_squared_distance(dt, dx)
        assert w >= 0.0
        assert w >= squared_interval(dt, dx)

    @given(dt=finite, dx=small_vec)
    def test_negation_symmetry(self, dt, dx):
        assert squared_interval(dt, dx) == squared_interval(-dt, -dx)
        assert wick_squared_distance(dt, dx) == wick_squared_distance(-dt, -dx)

