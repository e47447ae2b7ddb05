import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from pseudoe.relmaps import Variant
from reference import relation_maps, scale, time_project, translate

coords = st.lists(st.floats(-100, 100), min_size=2, max_size=4).map(np.asarray)


def make_rel(n_t=2, n_x=3, seed=0):
    """Random relation maps (h, u, r)."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n_t), rng.normal(size=1 + n_x), rng.normal(size=1 + n_x)


class TestTimeProject:
    def test_identity_single_time(self):
        x = np.array([1.0, 2.0])
        t, out_x = time_project(([3.2], x), [1.0])
        assert t == 3.2
        np.testing.assert_array_equal(out_x, x)

    def test_coordinate_selection(self):
        t, _ = time_project(([2.0, 9.0], [0.0]), [1.0, 0.0])
        assert t == 2.0

    def test_dot_product(self):
        t, _ = time_project(([2.0, 4.0], [0.0]), [0.5, 0.5])
        assert t == 3.0

    @given(
        t1=st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.asarray),
        t2=st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.asarray),
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
    )
    def test_linear_in_time(self, t1, t2, a, b):
        h = np.array([0.3, -1.2, 0.5])
        x = np.zeros(2)
        combined = time_project((a * t1 + b * t2, x), h)[0]
        split = a * time_project((t1, x), h)[0] + b * time_project((t2, x), h)[0]
        assert combined == pytest.approx(split, rel=1e-9, abs=1e-9)

    @given(x=coords)
    def test_space_passes_through(self, x):
        _, out_x = time_project(([1.0, -2.0], x), [0.4, 0.6])
        assert out_x is not None
        np.testing.assert_array_equal(out_x, x)


class TestEndomorphisms:
    def test_zero_translation(self):
        x = np.array([2.0, 3.0])
        t, out_x = translate((1.0, x), np.zeros(3))
        assert t == 1.0
        np.testing.assert_array_equal(out_x, x)

    def test_translation_value(self):
        t, x = translate((1.0, np.array([2.0])), np.array([-1.0, 3.0]))
        assert t == 0.0
        np.testing.assert_array_equal(x, [5.0])

    def test_translation_inverse(self):
        p = (0.7, np.array([1.0, -2.0]))
        u = np.array([0.5, -1.5, 2.0])
        t, x = translate(translate(p, u), -u)
        assert t == pytest.approx(p[0])
        np.testing.assert_allclose(x, p[1])

    def test_identity_scaling(self):
        x = np.array([2.0, 3.0])
        t, out_x = scale((1.5, x), np.ones(3))
        assert t == 1.5
        np.testing.assert_array_equal(out_x, x)

    def test_scaling_value(self):
        t, x = scale((2.0, np.array([3.0])), np.array([0.5, 2.0]))
        assert t == 1.0
        np.testing.assert_array_equal(x, [6.0])

    def test_zero_scaling_allowed(self):
        t, x = scale((2.0, np.array([3.0])), np.zeros(2))
        assert t == 0.0
        np.testing.assert_array_equal(x, [0.0])


class TestTransformPair:
    def test_dt_identity_maps(self):
        h, u, r = make_rel(n_t=1)
        head = (np.array([1.2]), np.array([0.5, -0.5, 2.0]))
        tail = (np.array([-0.3]), np.array([1.0, 1.0, 1.0]))
        hp, tp = relation_maps(head, tail, h, np.zeros_like(u), np.ones_like(r), Variant.DT)
        assert hp[0] == 1.2 and tp[0] == -0.3
        np.testing.assert_array_equal(hp[1], head[1])
        np.testing.assert_array_equal(tp[1], tail[1])

    def test_mt_projects_without_endomorphism(self):
        _, u, r = make_rel(n_t=2)
        head = (np.array([4.0, 9.0]), np.array([1.0, 2.0, 3.0]))
        tail = (np.array([-1.0, 7.0]), np.array([0.0, 0.0, 0.0]))
        hp, tp = relation_maps(head, tail, np.array([1.0, 0.0]), u, r, Variant.MT)
        assert hp[0] == 4.0 and tp[0] == -1.0
        np.testing.assert_array_equal(hp[1], head[1])
        np.testing.assert_array_equal(tp[1], tail[1])

    def test_both_matches_sequential_composition(self, rng):
        for seed in range(5):
            h, u, r = make_rel(n_t=3, n_x=4, seed=seed)
            head = (rng.normal(size=3), rng.normal(size=4))
            tail = (rng.normal(size=3), rng.normal(size=4))
            hp, tp = relation_maps(head, tail, h, u, r, Variant.BOTH)
            expected_h = translate(time_project(head, h), u)
            expected_t = scale(time_project(tail, h), r)
            assert hp[0] == pytest.approx(expected_h[0])
            np.testing.assert_allclose(hp[1], expected_h[1])
            assert tp[0] == pytest.approx(expected_t[0])
            np.testing.assert_allclose(tp[1], expected_t[1])

    def test_swap_transforms_assignment(self, rng):
        h, u, r = make_rel(n_t=2, n_x=3, seed=7)
        head = (rng.normal(size=2), rng.normal(size=3))
        tail = (rng.normal(size=2), rng.normal(size=3))
        hp, tp = relation_maps(head, tail, h, u, r, Variant.BOTH, swap=True)
        expected_h = scale(time_project(head, h), r)
        expected_t = translate(time_project(tail, h), u)
        assert hp[0] == pytest.approx(expected_h[0])
        np.testing.assert_allclose(tp[1], expected_t[1])
