import numpy as np
import pytest

from securebc import (EncodingOrder, SolverConfig, UnsupportedK,
                      example_two_user, hull_2d, sample_channel_set,
                      trace_region)
from securebc.region import _weight_grid

FAST = SolverConfig(objective_tol=1e-7, lambda_tol=1e-4)


class TestWeightGrid:
    def test_two_user_dense_grid_count(self):
        assert len(_weight_grid(2, 0.01)) == 101

    def test_degenerate_step_gives_extremes(self):
        grid = _weight_grid(2, 1.0)
        assert grid == [(0.0, 1.0), (1.0, 0.0)]

    def test_three_user_simplex(self):
        grid = _weight_grid(3, 0.5)
        assert len(grid) == 6
        for w in grid:
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_cases(self):
        with pytest.raises(UnsupportedK):
            _weight_grid(4, 0.5)
        with pytest.raises(UnsupportedK):
            _weight_grid(3, 0.01)
        with pytest.raises(UnsupportedK):
            _weight_grid(2, 0.0)
        with pytest.raises(UnsupportedK, match="at most 1"):
            _weight_grid(2, 1.5)
        with pytest.raises(UnsupportedK, match="finite and positive number"):  # True is not 1
            _weight_grid(2, True)

    def test_two_user_smallest_step(self):
        # 1e-4 is the finest two-user grid; a finer step is refused before
        # any grid is built (1e-9 would make 10^9 points)
        assert len(_weight_grid(2, 1e-4)) == 10001
        with pytest.raises(UnsupportedK, match="step >= 1e-4"):
            trace_region(example_two_user(), 1e-9)


class TestTraceRegion:
    def test_degenerate_sweep_single_user_points(self):
        ch = example_two_user()
        trace = trace_region(ch, 1.0, "theorem", FAST)
        assert len(trace.points) == 2
        w_first = trace.points[0].weights.weights
        assert w_first == (0.0, 1.0)
        # the single-user weight point maximizes that user's rate alone
        assert trace.points[0].order.permutation == (2, 1)
        assert trace.points[1].order.permutation == (1, 2)
        assert trace.points[0].rates.per_user[1] > 1.0

    def test_both_corners_policy_exposes_both_corner_tuples(self):
        ch = example_two_user()
        trace = trace_region(ch, 0.5, "both_corners", FAST)
        tied = [p for p in trace.points if p.weights.weights == (0.5, 0.5)]
        assert len(tied) == 2
        rates = {p.order.permutation: p.rates.per_user for p in tied}
        assert rates[(1, 2)][0] == pytest.approx(0.8334, abs=1e-2)
        assert rates[(1, 2)][1] == pytest.approx(0.7643, abs=1e-2)
        assert rates[(2, 1)][0] == pytest.approx(0.5324, abs=1e-2)
        assert rates[(2, 1)][1] == pytest.approx(1.065, abs=1e-2)

    def test_fixed_order_policy(self):
        ch = example_two_user()
        trace = trace_region(ch, 0.5, EncodingOrder([2, 1]), FAST)
        assert all(p.order.permutation == (2, 1) for p in trace.points)

    def test_rates_are_clamped_nonnegative(self):
        ch = example_two_user()
        trace = trace_region(ch, 0.5, "theorem", FAST)
        assert np.all(trace.rate_array() >= 0.0)

    def test_zero_eavesdropper_trace_dominates(self):
        ch = example_two_user()
        secret = trace_region(ch, 0.5, "theorem", FAST)
        open_bc = trace_region(ch.with_zero_eavesdropper(), 0.5, "theorem", FAST)
        for p, p0 in zip(secret.points, open_bc.points):
            r = np.array(p.rates.per_user)
            r0 = np.array(p0.rates.per_user)
            assert np.all(r <= r0 + 1e-8)

    def test_corner_weight_maximizes_own_rate(self):
        ch = example_two_user()
        trace = trace_region(ch, 0.5, "theorem", FAST)
        r1_at_corner = trace.points[-1].rates.per_user[0]  # w = (1, 0)
        best_r1 = max(p.rates.per_user[0] for p in trace.points)
        assert r1_at_corner >= best_r1 - 2e-2

    def test_three_user_coarse_sweep(self):
        ch = sample_channel_set(51, 3, 2, [2, 2, 2], 1, 1.0)
        trace = trace_region(ch, 0.5, "theorem", FAST)
        assert len(trace.points) == 6
        assert np.all(trace.rate_array() >= 0.0)

    def test_dense_sweep_frontier_includes_both_corners(self):
        # the 1/100-step sweep over the weight simplex; running both orders
        # at the tied midpoint exposes both corner rate tuples
        ch = example_two_user()
        trace = trace_region(ch, 0.01, "both_corners", FAST)
        assert len(trace.points) == 102  # 101 grid points + 1 extra at the tie
        pts = trace.rate_array()
        for corner in ((0.8334, 0.7643), (0.5324, 1.065)):
            dist = np.min(np.max(np.abs(pts - np.array(corner)), axis=1))
            assert dist <= 1e-2

    def test_single_user_trace_has_one_point(self):
        ch = sample_channel_set(3, 1, 2, [2], 1, 1.0)
        trace = trace_region(ch, 0.5, "theorem", FAST)
        assert [(p.weights.weights, p.order.permutation) for p in trace.points] == [
            ((1.0,), (1,))]
        assert trace.points[0].wsr == trace.points[0].rates.per_user[0] > 0.0

    def test_unknown_policy_refused(self):
        with pytest.raises(ValueError, match="unknown order policy 'greedy'"):
            trace_region(example_two_user(), 0.5, "greedy", FAST)

    def test_trace_is_deterministic(self):
        ch = example_two_user()
        base = trace_region(ch, 0.5, "theorem", FAST)
        again = trace_region(ch, 0.5, "theorem", FAST)
        for a, b in zip(base.points, again.points):
            assert a.rates.per_user == b.rates.per_user
            assert a.order.permutation == b.order.permutation


class TestHull:
    def test_square_with_interior_point(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = hull_2d(pts)
        assert sorted(hull) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_collinear_points(self):
        hull = hull_2d([(0, 0), (1, 1), (2, 2)])
        assert sorted(hull) == [(0.0, 0.0), (2.0, 2.0)]

    def test_two_or_fewer_distinct_points_are_their_own_hull(self):
        assert hull_2d([]) == []
        assert hull_2d([(1, 2), (1, 2)]) == [(1.0, 2.0)]
        assert hull_2d([(1, 2), (0, 0), (1, 2)]) == [(0.0, 0.0), (1.0, 2.0)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_refused(self, bad):
        # a NaN point gave a NaN vertex and a repeated vertex
        with pytest.raises(ValueError, match="finite"):
            hull_2d([(0, 0), (1, bad), (0, 1), (1, 0)])

    def test_duplicates_removed(self):
        hull = hull_2d([(0, 0), (0, 0), (1, 0), (0, 1), (1, 0)])
        assert len(hull) == 3
