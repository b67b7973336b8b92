"""Lockstep batches: solve_wsr_batch against solve_wsr, bit for bit."""

import numpy as np
import pytest

import securebc.ordering as ordering_mod
import securebc.region as region_mod
import securebc.solver as solver_mod
from securebc import (BC, CovariancePlan, DimensionMismatch, EncodingOrder,
                      InnerNotImproved, NonPositiveDefinite, WeightVector, compare_orders,
                      enumerate_orders, example_three_user, example_two_user,
                      sample_channel_set, solve_wsr, solve_wsr_batch,
                      trace_region)
from securebc.linalg import herm, inv_i_plus, logdet_i_plus
from securebc.rates import random_plan


def assert_same_report(got, want):
    assert got.lambda_trace == want.lambda_trace
    assert got.objective_trace == want.objective_trace
    assert got.outer_iters == want.outer_iters
    assert got.termination == want.termination
    assert got.lambda_final == want.lambda_final
    for a, b in zip(got.plan.matrices, want.plan.matrices):
        assert np.array_equal(a, b)
    assert got.rates == want.rates


def batch_spy(monkeypatch, module):
    """Record the tasks and outcomes of every batch ``module`` runs."""
    seen = []
    true_batch = module.solve_wsr_batch

    def spy(tasks, cfg=None):
        out = true_batch(tasks, cfg)
        seen.extend(zip(tasks, out))
        return out

    monkeypatch.setattr(module, "solve_wsr_batch", spy)
    return seen


def group_spy(monkeypatch):
    """Record the size of every group the tick loop runs (a single solve
    is a group of one)."""
    sizes = []
    true_lockstep = solver_mod.lockstep

    def spy(members, cfg):
        sizes.append(len(members))
        return true_lockstep(members, cfg)

    monkeypatch.setattr(solver_mod, "lockstep", spy)
    return sizes


def stack_spy(monkeypatch):
    """Record the row count of every stacked sweep."""
    counts = []
    true_stacked = solver_mod._sweep_stacked

    def spy(rows):
        counts.append(len(rows))
        return true_stacked(rows)

    monkeypatch.setattr(solver_mod, "_sweep_stacked", spy)
    return counts


def assert_equals_solo(seen):
    assert seen
    for (ch, w, order), report in seen:
        assert_same_report(report, solve_wsr(ch, w, order))


class TestEqualsSolo:
    def test_compare_orders_three_user_example(self, monkeypatch):
        seen = batch_spy(monkeypatch, ordering_mod)
        compare_orders(example_three_user(), WeightVector([0.15, 0.2, 0.65]))
        assert len(seen) == 6
        assert_equals_solo(seen)

    def test_compare_orders_one_shape_per_order(self, monkeypatch):
        # n_k = (1, 2, 3): every order has antenna counts by position of its
        # own, so each task is a group of one and takes the per-problem path
        ch = sample_channel_set(7, 3, 3, [1, 2, 3], 1, 1.0)
        sizes = group_spy(monkeypatch)
        stacked = stack_spy(monkeypatch)
        seen = batch_spy(monkeypatch, ordering_mod)
        compare_orders(ch, WeightVector([0.2, 0.3, 0.5]))
        assert len(seen) == 6 and sizes == [1] * 6 and stacked == []
        assert_equals_solo(seen)

    def test_shape_groups_with_one_and_three_antennas(self, monkeypatch):
        # n_k = (1, 1, 3), n_e = 3: swapping users 1 and 2 keeps the antenna
        # counts by position, so the six orders at two weights form three
        # groups of four, with n = 1 user stacks and n = 3 eavesdropper stacks
        ch = sample_channel_set(7, 3, 3, [1, 1, 3], 3, 1.0)
        tasks = [(ch, WeightVector(w), order) for w in ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))
                 for order in enumerate_orders(3)]
        sizes = group_spy(monkeypatch)
        stacked = stack_spy(monkeypatch)
        out = solve_wsr_batch(tasks)
        assert sizes == [4, 4, 4]
        # ticks with fewer pending rows sweep them one by one
        assert stacked and min(stacked) >= solver_mod.LOCKSTEP_MIN
        monkeypatch.undo()
        assert_equals_solo(list(zip(tasks, out)))

    def test_four_transmit_antennas(self, monkeypatch):
        # 4 x 4 eigh stacks; n = 3 log-dets by LDL^H pivots, n = 3 inverses by np.linalg.inv
        ch = sample_channel_set(9, 2, 4, [3, 3], 2, 1.0)
        tasks = [(ch, WeightVector(w), order) for w in ((0.3, 0.7), (0.5, 0.5), (0.8, 0.2))
                 for order in enumerate_orders(2)]
        sizes = group_spy(monkeypatch)
        out = solve_wsr_batch(tasks)
        assert sizes == [6]
        monkeypatch.undo()
        assert_equals_solo(list(zip(tasks, out)))

    def test_trace_region_both_corners(self, monkeypatch):
        seen = batch_spy(monkeypatch, region_mod)
        trace = trace_region(example_two_user(), 0.1, "both_corners")
        assert len(seen) == len(trace.points) == 12
        assert_equals_solo(seen)

    def test_anderson_steps(self, monkeypatch):
        # at P = 1e2 and 1e7 some sweeps creep; the per-problem _anderson
        # steps beat plans that stacked sweeps made (on two transmit
        # antennas, as in the region's instances, none was kept)
        true_anderson, true_stacked = solver_mod._anderson, solver_mod._sweep_stacked
        last, kept = [[]], []  # kept: per kept step, whether a stacked sweep made the plan it beat

        def in_stack(*args):
            last[0] = true_stacked(*args)
            return last[0]

        def spy(prob, lam, pairs, *args):
            out = true_anderson(prob, lam, pairs, *args)
            if out[0] is not pairs[-1][1]:
                kept.append(any(pairs[-1][1] is plan for plan, _, _ in last[0]))
            return out

        monkeypatch.setattr(solver_mod, "_sweep_stacked", in_stack)
        monkeypatch.setattr(solver_mod, "_anderson", spy)
        tasks = [(sample_channel_set(5, 2, 3, 2, 1, power), WeightVector(w), order)
                 for power in (1e2, 1e7) for w in ((0.3, 0.7), (0.6, 0.4))
                 for order in enumerate_orders(2)]
        out = solve_wsr_batch(tasks)
        assert sum(kept) >= 10, (len(kept), sum(kept))
        monkeypatch.undo()
        assert_equals_solo(list(zip(tasks, out)))


def branch_rows():
    """Position-2 block updates on K = 2 instances that take each branch of
    the update: the full step, a capped water-fill, Armijo backtracking,
    and the round-off return at the zero plan above the top price."""
    rows = []
    for seed in (0, 6, 21, 55):
        rng = np.random.default_rng(seed)
        ch = sample_channel_set(seed, 2, 2, [2, 2], 1, 1.0)
        plan = random_plan(BC, [2, 2], 1.0, rng)
        lam = float(10 ** rng.uniform(-4, 0.5))
        rows.append((ch, plan, lam, WeightVector(rng.random(2) + 0.05)))
    ch = sample_channel_set(3, 2, 2, [2, 2], 1, 1.0)
    w = WeightVector([0.4, 0.6])
    top = solver_mod._top_price(solver_mod._Problem(ch, EncodingOrder([1, 2]), w))
    rows.append((ch, CovariancePlan.zero(BC, ch), 2.0 * top, w))
    return rows


def stack_of(probs, plans):
    """Problems of one shape and their plans by position, stacked by row."""
    return solver_mod.Stack.of(probs), [np.stack(q) for q in zip(*plans)]


def test_stacked_block_update_row_by_row(monkeypatch):
    order = EncodingOrder([1, 2])
    probs, plans, lams, want, kinds = [], [], [], [], []
    true_concave, true_fill = solver_mod._concave_value, solver_mod._waterfill
    for ch, plan, lam, w in branch_rows():
        seen = {"values": 0, "capped": False}

        def count(*args, seen=seen):
            seen["values"] += 1
            return true_concave(*args)

        def fill(h, wk, base, M, P, power, seen=seen):
            seen["capped"] = np.linalg.eigvalsh(M)[0] <= 0.0
            return true_fill(h, wk, base, M, P, power)

        monkeypatch.setattr(solver_mod, "_concave_value", count)
        monkeypatch.setattr(solver_mod, "_waterfill", fill)
        prob = solver_mod._Problem(ch, order, w)
        Q = prob.blocks(plan)
        want.append(solver_mod._block_update(prob, Q, lam, 1))
        kinds.append("capped" if seen["capped"] else
                     {1: "round-off", 2: "full step"}.get(seen["values"], "backtracked"))
        probs.append(prob)
        plans.append(Q)
        lams.append(lam)
    monkeypatch.undo()
    assert {"capped", "round-off", "full step", "backtracked"} <= set(kinds), kinds
    st, Q = stack_of(probs, plans)
    got = solver_mod._block_update(st, Q, np.array(lams), 1)
    for row, expected in enumerate(want):
        assert np.array_equal(got[row], expected), kinds[row]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_log_dets_and_inverses(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    m = a @ herm(a)
    got = logdet_i_plus(m)
    assert np.array_equal(got, [logdet_i_plus(x) for x in m])
    # a row with I + m indefinite leaves the closed forms (and, at n > 2,
    # Cholesky) for the per-matrix routine, which rejects it
    m[3] = -2.0 * np.eye(n)
    with pytest.raises(NonPositiveDefinite):
        logdet_i_plus(m)
    inv = inv_i_plus(m)
    for row, x in enumerate(m):
        assert np.array_equal(inv[row], inv_i_plus(x))


def test_every_batch_solve_goes_through_solve_wsr(monkeypatch):
    # a wrapper of solve_wsr sees each solve of a batch, with the report or
    # error the batch returns for it
    seen = []
    true_solve = solver_mod.solve_wsr

    def wrapper(ch, w, order, cfg=None):
        try:
            report = true_solve(ch, w, order, cfg)
        except Exception as exc:
            seen.append(exc)
            raise
        seen.append(report)
        return report

    monkeypatch.setattr(solver_mod, "solve_wsr", wrapper)
    sizes = group_spy(monkeypatch)
    ch = example_two_user()
    tasks = [(ch, WeightVector([a, 1 - a]), order) for a in (0.2, 0.6)
             for order in enumerate_orders(2)]
    tasks.insert(1, (ch, tasks[0][1], EncodingOrder([1, 2, 3])))
    out = solve_wsr_batch(tasks)
    assert sizes == [4]
    assert len(seen) == len(out) == 5 and all(a is b for a, b in zip(seen, out))
    assert isinstance(out[1], DimensionMismatch)
    seen.clear()
    trace = trace_region(ch, 0.1, "both_corners")
    assert [p.rates for p in trace.points] == [r.rates for r in seen]


def test_raw_weight_sequences_equal_their_weight_vectors(monkeypatch):
    ch = example_two_user()
    raws = ([1, 3], (3.0, 1.0))
    for raw in raws:
        for order in enumerate_orders(2):
            assert_same_report(solve_wsr(ch, raw, order), solve_wsr(ch, WeightVector(raw), order))
    sizes = group_spy(monkeypatch)
    tasks = [(ch, raw, order) for raw in raws for order in enumerate_orders(2)]
    out = solve_wsr_batch(tasks)
    assert sizes == [4]
    for (_, raw, order), report in zip(tasks, out):
        assert_same_report(report, solve_wsr(ch, WeightVector(raw), order))
    monkeypatch.undo()
    ch = example_three_user()
    raw = [0.15, 0.2, 0.65]
    assert compare_orders(ch, raw) == compare_orders(ch, WeightVector(raw))


def test_search_made_ahead_only_for_its_task(monkeypatch):
    # a wrapper that hands solve_wsr other objects gets a solve of its own
    true_solve = solver_mod.solve_wsr
    monkeypatch.setattr(solver_mod, "solve_wsr", lambda ch, w, order, cfg=None:
                        true_solve(ch, WeightVector(w.weights[::-1]), order, cfg))
    sizes = group_spy(monkeypatch)
    ch = example_two_user()
    tasks = [(ch, WeightVector([a, 1 - a]), order) for a in (0.3, 0.6)
             for order in enumerate_orders(2)]
    out = solve_wsr_batch(tasks)
    # the group of four, then a search of its own for each wrapped solve
    assert sizes == [4, 1, 1, 1, 1]
    monkeypatch.undo()
    for (_, w, order), report in zip(tasks, out):
        assert_same_report(report, solve_wsr(ch, WeightVector(w.weights[::-1]), order))


class TestFailureIsolation:
    def test_bad_task_alone_reports_its_error(self):
        ch = example_two_user()
        w = WeightVector([0.3, 0.7])
        tasks = [(ch, w, EncodingOrder([2, 1])), (ch, w, EncodingOrder([1, 2, 3])),
                 (ch, WeightVector([0.6, 0.4]), EncodingOrder([1, 2])),
                 (ch, w, EncodingOrder([1, 2]))]
        out = solve_wsr_batch(tasks)
        assert isinstance(out[1], DimensionMismatch)
        for i in (0, 2, 3):
            assert_same_report(out[i], solve_wsr(*tasks[i]))

    @staticmethod
    def fail_rows(monkeypatch, after):
        """Make the block update fail on the rows with these weights by
        position, each from its given block update on, on a stack or a
        single problem (every update takes one convex-part gradient).  A
        stacked tick that fails is swept again row by row, where only the
        target row fails."""
        true_grad = solver_mod._grad_cvx
        calls = [0]

        def grad(prob, *args):
            calls[0] += 1
            for w in np.atleast_2d(prob.w).tolist():
                if calls[0] >= after.get(tuple(w), np.inf):
                    raise InnerNotImproved(f"injected at {tuple(w)}")
            return true_grad(prob, *args)

        monkeypatch.setattr(solver_mod, "_grad_cvx", grad)

    def test_row_failure_stays_in_its_row(self, monkeypatch):
        ch = example_two_user()
        tasks = [(ch, WeightVector([a, 1 - a]), EncodingOrder([2, 1]))
                 for a in (0.1, 0.2, 0.3, 0.4)]
        target = tasks[1][1].weights[::-1]  # by position
        self.fail_rows(monkeypatch, {target: 5})
        out = solve_wsr_batch(tasks)
        assert isinstance(out[1], InnerNotImproved)
        assert str(target) in str(out[1])
        monkeypatch.undo()
        for i in (0, 2, 3):
            assert_same_report(out[i], solve_wsr(*tasks[i]))

    @staticmethod
    def no_ascent(monkeypatch, target):
        """Let no Armijo step pass on the row with these weights by position,
        on a stack or a single problem: after each block update's first
        concave value (its start, u0), the row's trial points score -inf.
        Every update takes one convex-part gradient, which marks its start."""
        true_grad, true_value = solver_mod._grad_cvx, solver_mod._concave_value
        values = [0]

        def grad(*args):
            values[0] = 0
            return true_grad(*args)

        def value(w, *args):
            values[0] += 1
            v = true_value(w, *args)
            return v if values[0] == 1 else np.where(np.all(w == target, axis=-1), -np.inf, v)

        monkeypatch.setattr(solver_mod, "_grad_cvx", grad)
        monkeypatch.setattr(solver_mod, "_concave_value", value)

    def test_row_without_ascent_raises_in_its_stack_and_task(self, monkeypatch):
        order = EncodingOrder([1, 2])
        probs, plans, lams = [], [], []
        for ch, plan, lam, w in branch_rows():
            probs.append(solver_mod._Problem(ch, order, w))
            plans.append(probs[-1].blocks(plan))
            lams.append(lam)
        st, Q = stack_of(probs, plans)
        self.no_ascent(monkeypatch, probs[2].w)
        # the message names the gap of the row that found no step
        no_step = r"^no ascent found for block 2 despite ascent gap \d\.\d{3}e[+-]\d+$"
        with pytest.raises(InnerNotImproved, match=no_step):
            solver_mod._block_update(st, Q, np.array(lams), 1)
        with pytest.raises(InnerNotImproved, match=no_step):
            solver_mod._block_update(probs[2], plans[2], lams[2], 1)
        # in a batch the stacked tick raises, is swept again row by row, and
        # only the target row's task reports the error
        ch = example_two_user()
        tasks = [(ch, WeightVector([a, 1 - a]), EncodingOrder([2, 1]))
                 for a in (0.1, 0.2, 0.3, 0.4)]
        raised = []
        true_stacked = solver_mod._sweep_stacked

        def stacked(rows):
            try:
                return true_stacked(rows)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(solver_mod, "_sweep_stacked", stacked)
        self.no_ascent(monkeypatch, tasks[1][1].weights[::-1])  # by position
        out = solve_wsr_batch(tasks)
        assert len(raised) == 1 and isinstance(raised[0], InnerNotImproved)
        assert isinstance(out[1], InnerNotImproved)
        assert str(out[1]).startswith("no ascent found")
        monkeypatch.undo()
        for i in (0, 2, 3):
            assert_same_report(out[i], solve_wsr(*tasks[i]))

    def test_price_search_error_stays_in_its_task(self, monkeypatch):
        # an error raised by a price search itself, not by a sweep, is that
        # task's report; the group's other searches run on
        ch = example_two_user()
        tasks = [(ch, WeightVector([a, 1 - a]), EncodingOrder([2, 1]))
                 for a in (0.1, 0.2, 0.3, 0.4)]
        target = list(tasks[1][1].weights[::-1])  # by position
        true_top = solver_mod._top_price

        def top(prob):
            if prob.w.tolist() == target:
                raise FloatingPointError("injected in the price search")
            return true_top(prob)

        monkeypatch.setattr(solver_mod, "_top_price", top)
        sizes = group_spy(monkeypatch)
        out = solve_wsr_batch(tasks)
        assert sizes == [4]
        assert isinstance(out[1], FloatingPointError) and "injected" in str(out[1])
        monkeypatch.undo()
        for i in (0, 2, 3):
            assert_same_report(out[i], solve_wsr(*tasks[i]))

    def test_trace_region_raises_first_failing_task(self, monkeypatch):
        # the later task fails first in time; the earlier one in task order
        # is raised
        self.fail_rows(monkeypatch, {(0.25, 0.75): 30, (0.75, 0.25): 3})
        with pytest.raises(InnerNotImproved, match=r"\(0.25, 0.75\)"):
            trace_region(example_two_user(), 0.25, EncodingOrder([1, 2]))

    def test_compare_orders_reraises_inner_not_improved(self, monkeypatch):
        w = WeightVector([0.15, 0.2, 0.65])
        self.fail_rows(monkeypatch, {w.weights: 4})  # order (1, 2, 3)
        with pytest.raises(InnerNotImproved):
            compare_orders(example_three_user(), w)

    def test_group_error_reruns_tasks_alone(self, monkeypatch):
        # a stacked sweep that raises is made again row by row for its tick;
        # with every stacked sweep raising, every tick falls back, and on
        # the per-problem path one order fails and is recorded
        calls = []
        true_update = solver_mod._block_update

        def update(prob, Q, lam, k):
            if isinstance(prob, solver_mod.Stack):
                calls.append(len(lam))
                raise FloatingPointError("stacked")
            if prob.order.permutation == (1, 2, 3):
                raise RuntimeError("boom")
            return true_update(prob, Q, lam, k)

        ch = example_three_user()
        w = WeightVector([0.15, 0.2, 0.65])
        monkeypatch.setattr(solver_mod, "_block_update", update)
        cmp = compare_orders(ch, w)
        assert calls[0] == 6 and min(calls) >= solver_mod.LOCKSTEP_MIN
        failed = [r for r in cmp.per_order if r.error is not None]
        assert [r.order.permutation for r in failed] == [(1, 2, 3)]
        assert failed[0].error == "RuntimeError: boom"
        monkeypatch.undo()
        for r in cmp.per_order[1:]:
            assert r.rates == solve_wsr(ch, w, r.order).rates

    def test_occasional_stacked_error_costs_one_tick(self, monkeypatch):
        # every third stacked sweep raises, at its first block update; each
        # such tick is swept again row by row and the group runs on stacked,
        # every report equal to a solve alone (a sweep made twice or lost
        # would show in the traces)
        true_update = solver_mod._block_update
        calls = []

        def flaky(prob, Q, lam, k):
            if isinstance(prob, solver_mod.Stack):
                calls.append(k)
                if k == 0 and calls.count(0) % 3 == 0:
                    raise FloatingPointError("stacked")
            return true_update(prob, Q, lam, k)

        monkeypatch.setattr(solver_mod, "_block_update", flaky)
        ch, w = example_three_user(), WeightVector([0.15, 0.2, 0.65])
        tasks = [(ch, w, order) for order in enumerate_orders(3)]
        out = solve_wsr_batch(tasks)
        assert len(calls) > 10
        monkeypatch.undo()
        assert_equals_solo(list(zip(tasks, out)))

    def test_small_groups_take_the_per_problem_path(self, monkeypatch):
        stacked = stack_spy(monkeypatch)
        w = WeightVector([0.4, 0.6])
        # two groups of one, then a group of two
        tasks = [(ch, w, o) for ch in (sample_channel_set(5, 2, 2, [1, 2], 1, 1.0),
                                       sample_channel_set(5, 2, 2, [2, 2], 1, 1.0))
                 for o in enumerate_orders(2)]
        assert solver_mod.LOCKSTEP_MIN > 2
        out = solve_wsr_batch(tasks)
        assert stacked == []
        monkeypatch.undo()
        for task, report in zip(tasks, out):
            assert_same_report(report, solve_wsr(*task))
