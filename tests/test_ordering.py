import numpy as np
import pytest

import securebc.ordering as ordering_mod
from securebc import (EncodingOrder, InnerNotImproved, LengthMismatch, SolverConfig,
                      TooManyUsers, WeightVector, compare_orders, enumerate_orders,
                      example_three_user, optimal_order, sample_channel_set)

rng = np.random.default_rng(31)

FAST = SolverConfig(objective_tol=1e-7, lambda_tol=1e-4)


def failing_batch(permutation, exc):
    """A stand-in for the batch solver in which the task with this encoding
    order ends in ``exc``."""
    true_batch = ordering_mod.solve_wsr_batch

    def batch(tasks, cfg=None):
        out = true_batch(tasks, cfg)
        return [exc if order.permutation == permutation else rep
                for (_, _, order), rep in zip(tasks, out)]
    return batch


class TestOptimalOrder:
    def test_published_weight_triples(self):
        assert optimal_order(WeightVector([0.15, 0.2, 0.65])).permutation == (3, 2, 1)
        assert optimal_order(WeightVector([0.2, 0.1, 0.7])).permutation == (3, 1, 2)

    def test_uniform_weights_tie_break(self):
        assert optimal_order(WeightVector([1, 1, 1, 1])).permutation == (1, 2, 3, 4)

    def test_invariant_under_positive_rescaling(self):
        for _ in range(20):
            w = rng.random(4) + 0.01
            a = optimal_order(WeightVector(w))
            b = optimal_order(WeightVector(w * float(rng.random() * 9 + 0.1)))
            assert a.permutation == b.permutation

    def test_idempotent_on_sorted_weights(self):
        w = WeightVector([0.5, 0.3, 0.2])
        first = optimal_order(w)
        assert first.permutation == (1, 2, 3)
        sorted_w = WeightVector([w.weights[u - 1] for u in first.permutation])
        assert optimal_order(sorted_w).permutation == (1, 2, 3)

    def test_always_a_permutation(self):
        for _ in range(30):
            k = int(rng.integers(1, 6))
            order = optimal_order(WeightVector(rng.random(k) + 1e-3))
            assert sorted(order.permutation) == list(range(1, k + 1))



RAW_KINDS = (list, tuple, np.array)


class TestRawWeights:
    """The order rule reads a raw weight sequence as its WeightVector, and a
    weight count that is not the order's raises LengthMismatch."""

    @pytest.mark.parametrize("kind", RAW_KINDS)
    def test_optimal_order(self, kind):
        for raw in ([0.2, 0.3, 0.5], [0.3, 0.7], [0.4, 0.1, 0.4, 0.1]):
            assert optimal_order(kind(raw)) == optimal_order(WeightVector(raw))

    @pytest.mark.parametrize("kind", RAW_KINDS)
    def test_is_weight_sorted(self, kind):
        raw = [0.2, 0.3, 0.5]
        for order in enumerate_orders(3):
            assert (ordering_mod.is_weight_sorted(order, kind(raw))
                    == ordering_mod.is_weight_sorted(order, WeightVector(raw)))
        assert ordering_mod.is_weight_sorted(EncodingOrder([3, 2, 1]), kind(raw))

    @pytest.mark.parametrize("kind", RAW_KINDS)
    def test_matches_rule(self, kind):
        for best, verdict in (((3, 2, 1), True), ((1, 2, 3), False)):
            cmp = ordering_mod.OrderComparison((), EncodingOrder(best), EncodingOrder([3, 2, 1]))
            assert cmp.matches_rule(kind([0.2, 0.3, 0.5])) is verdict

    @pytest.mark.parametrize("kind", RAW_KINDS + (WeightVector,))
    @pytest.mark.parametrize("users, raw", ((3, [1, 1]), (2, [1, 2, 3])))
    def test_count_mismatch(self, kind, users, raw):
        order = EncodingOrder(range(1, users + 1))
        cmp = ordering_mod.OrderComparison((), order, order)
        with pytest.raises(LengthMismatch, match=f"{len(raw)} weights for {users} users"):
            ordering_mod.is_weight_sorted(order, kind(raw))
        with pytest.raises(LengthMismatch):
            cmp.matches_rule(kind(raw))

class TestEnumerateOrders:
    def test_single_user(self):
        assert [o.permutation for o in enumerate_orders(1)] == [(1,)]

    def test_three_users_lexicographic(self):
        got = [o.permutation for o in enumerate_orders(3)]
        assert got == [(1, 2, 3), (1, 3, 2), (2, 1, 3),
                       (2, 3, 1), (3, 1, 2), (3, 2, 1)]

    def test_too_many_users(self):
        with pytest.raises(TooManyUsers):
            enumerate_orders(7)
        with pytest.raises(TooManyUsers):
            enumerate_orders(0)
        with pytest.raises(TooManyUsers, match="an integer of at least 1"):  # True is not 1
            enumerate_orders(True)


class TestCompareOrders:
    def test_two_user_instance(self):
        ch = sample_channel_set(41, 2, 2, [2, 2], 1, 1.0)
        w = WeightVector([0.25, 0.75])
        cmp = compare_orders(ch, w, FAST)
        assert len(cmp.per_order) == 2
        assert cmp.theorem_order.permutation == (2, 1)
        assert cmp.best_order == cmp.theorem_order
        assert cmp.matches_rule(w)
        wsrs = {r.order.permutation: r.wsr for r in cmp.per_order}
        assert wsrs[(2, 1)] >= wsrs[(1, 2)] - 2e-3

    def test_single_user_trivial(self):
        ch = sample_channel_set(42, 1, 2, [2], 1, 1.0)
        cmp = compare_orders(ch, WeightVector([1.0]), FAST)
        assert len(cmp.per_order) == 1
        assert cmp.best_order.permutation == (1,)

    def test_weight_count_mismatch_fails_fast(self):
        from securebc import LengthMismatch
        ch = sample_channel_set(44, 2, 2, [2, 2], 1, 1.0)
        with pytest.raises(LengthMismatch):
            compare_orders(ch, WeightVector([1.0]), FAST)

    def test_solver_failure_recorded_not_fatal(self, monkeypatch):
        ch = sample_channel_set(43, 2, 2, [2, 2], 1, 1.0)
        monkeypatch.setattr(ordering_mod, "solve_wsr_batch",
                            failing_batch((1, 2), RuntimeError("boom")))
        cmp = compare_orders(ch, WeightVector([0.3, 0.7]), FAST)
        failed = [r for r in cmp.per_order if r.error is not None]
        assert len(failed) == 1
        assert failed[0].order.permutation == (1, 2)
        assert failed[0].wsr == -np.inf
        assert cmp.best_order.permutation == (2, 1)

    def test_tie_goes_to_weight_sorted_order(self, monkeypatch):
        # every order reaches the same weighted sum to within 7.5e-7, the
        # rule's order lowest: the tie goes to the weight-sorted order, not
        # to the lexicographically first
        from securebc import RatePoint
        ch = sample_channel_set(43, 3, 2, [2, 2, 2], 1, 1.0)
        shift = {p: 1.5e-7 * i for i, p in enumerate(
            [(3, 2, 1), (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)])}

        class Report:
            def __init__(self, order):
                self.rates = RatePoint((0.0, 0.0, 0.0), 1.0 + shift[order.permutation])

        monkeypatch.setattr(ordering_mod, "solve_wsr_batch",
                            lambda tasks, cfg=None: [Report(order) for _, _, order in tasks])
        cmp = compare_orders(ch, WeightVector([0.2, 0.3, 0.5]), FAST)
        assert cmp.best_order.permutation == (3, 2, 1)
        assert cmp.matches_rule(WeightVector([0.2, 0.3, 0.5]))

    def test_inner_not_improved_propagates(self, monkeypatch):
        # documented as a bug, so it must not be folded into an error string
        ch = sample_channel_set(43, 2, 2, [2, 2], 1, 1.0)
        monkeypatch.setattr(ordering_mod, "solve_wsr_batch",
                            failing_batch((2, 1), InnerNotImproved("no ascent")))
        with pytest.raises(InnerNotImproved):
            compare_orders(ch, WeightVector([0.3, 0.7]), FAST)

    def test_criterion_2_sweep_budget(self, monkeypatch):
        # the 12 solves behind criterion 2's two verdicts, counted in sweeps
        # (machine independent): 663 when each price started from the
        # bracket's top record, 459 from the predictor start
        reports = []
        true_batch = ordering_mod.solve_wsr_batch

        def batch(tasks, cfg=None):
            out = true_batch(tasks, cfg)
            reports.extend(out)
            return out

        monkeypatch.setattr(ordering_mod, "solve_wsr_batch", batch)
        for weights in ((0.15, 0.2, 0.65), (0.2, 0.1, 0.7)):
            compare_orders(example_three_user(), WeightVector(weights))
        assert len(reports) == 12
        assert all(r.termination == "converged" for r in reports)
        assert sum(r.outer_iters for r in reports) <= 500
