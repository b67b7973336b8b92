import numpy as np
import pytest

import securebc.solver as solver_mod
from conftest import (fd_gradient, herm, rand_bc_plan, rand_instance,
                      waterfilling_capacity, waterfilling_covariance)
from securebc import (BC, ChannelSet, CovariancePlan, EncodingOrder,
                      InnerNotImproved, SolverConfig, WeightVector,
                      dpc_secrecy_rates, gradient_cvx, lagrangian,
                      maximize_lagrangian, sample_channel_set, solve_wsr,
                      solve_wsr_multistart, split_objective, surrogate_update,
                      weighted_sum)

rng = np.random.default_rng(23)

FAST = SolverConfig(objective_tol=1e-7, lambda_tol=1e-4)


def _rand_setup(K=None, n_t=None, n_e=None, seed_weights=True):
    ch = rand_instance(rng, K=K, n_t=n_t, n_e=n_e, square=True)
    K = ch.num_users
    order = EncodingOrder(rng.permutation(K) + 1)
    w = WeightVector(rng.random(K) + 0.05) if seed_weights else WeightVector([1.0] * K)
    plan = rand_bc_plan(rng, ch)
    return ch, order, w, plan


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.max_outer_iters == 2000

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(objective_tol=0.0)
        for cap in ("max_outer_iters", "inner_max_iters"):
            for bad in (0, -3, 1.5, "5", True, None):
                with pytest.raises(ValueError):
                    SolverConfig(**{cap: bad})


class TestLagrangian:
    def test_zero_plan_gives_lambda_times_power(self):
        ch, order, w, _ = _rand_setup()
        lam = float(rng.random() + 0.1)
        plan = CovariancePlan.zero(BC, ch)
        assert lagrangian(ch, order, plan, w, lam) == pytest.approx(
            lam * ch.power, abs=1e-12)

    def test_zero_price_equals_weighted_rates(self):
        ch, order, w, plan = _rand_setup()
        ref = weighted_sum(dpc_secrecy_rates(ch, order, plan), w)
        assert lagrangian(ch, order, plan, w, 0.0) == pytest.approx(ref, abs=1e-12)

    def test_matches_direct_reconstruction(self):
        ch, order, w, plan = _rand_setup()
        lam = 0.37
        ref = (weighted_sum(dpc_secrecy_rates(ch, order, plan), w)
               - lam * (plan.total_trace - ch.power))
        assert lagrangian(ch, order, plan, w, lam) == pytest.approx(ref, abs=1e-12)


class TestSplitObjective:
    def test_parts_sum_to_lagrangian(self):
        for _ in range(100):
            ch, order, w, plan = _rand_setup()
            lam = float(rng.random())
            k = int(rng.integers(1, ch.num_users + 1))
            ccv, cvx = split_objective(ch, order, plan, w, lam, k)
            assert ccv + cvx == pytest.approx(
                lagrangian(ch, order, plan, w, lam), abs=1e-9)

    def test_single_user_convex_part(self):
        ch, order, w, plan = _rand_setup(K=1)
        lam = 0.8
        _, cvx = split_objective(ch, order, plan, w, lam, 1)
        g = ch.eavesdropper
        q = plan.matrices[0]
        from securebc import logdet_hpd
        eve = logdet_hpd(np.eye(ch.n_e) + g @ q @ herm(g)) if np.any(g) else 0.0
        assert cvx == pytest.approx(-eve + lam * ch.power, abs=1e-10)

    def test_zero_plan_decomposition(self):
        ch, order, w, _ = _rand_setup()
        lam = 0.4
        plan = CovariancePlan.zero(BC, ch)
        ccv, cvx = split_objective(ch, order, plan, w, lam, 1)
        assert ccv == pytest.approx(0.0, abs=1e-12)
        assert ccv + cvx == pytest.approx(lam * ch.power, abs=1e-12)

    def test_block_index_out_of_range(self):
        ch, order, w, plan = _rand_setup(K=2)
        from securebc import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            split_objective(ch, order, plan, w, 0.1, 3)


class TestGradient:
    def test_single_user_closed_form(self):
        ch, order, w, plan = _rand_setup(K=1)
        lam = 0.5
        g = ch.eavesdropper
        q = plan.matrices[0]
        ref = -w.weights[0] * herm(g) @ np.linalg.inv(
            np.eye(ch.n_e) + g @ q @ herm(g)) @ g
        got = gradient_cvx(ch, order, plan, w, lam, 1)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_zero_eavesdropper_zero_earlier_weights(self):
        ch = rand_instance(rng, K=3, square=True).with_zero_eavesdropper()
        order = EncodingOrder([1, 2, 3])
        w = WeightVector([0.0, 0.0, 1.0])
        plan = rand_bc_plan(rng, ch)
        got = gradient_cvx(ch, order, plan, w, 0.3, 3)
        assert np.max(np.abs(got)) < 1e-14

    def test_matches_finite_differences(self):
        for _ in range(12):
            ch, order, w, plan = _rand_setup()
            lam = float(rng.random())
            k = int(rng.integers(1, ch.num_users + 1))
            user = order.permutation[k - 1] - 1
            analytic = gradient_cvx(ch, order, plan, w, lam, k)
            if np.linalg.norm(analytic) < 1e-6:
                continue

            def cvx_at(x):
                mats = list(plan.matrices)
                mats[user] = x
                return split_objective(ch, order, CovariancePlan(BC, mats),
                                       w, lam, k)[1]

            numeric = fd_gradient(cvx_at, np.array(plan.matrices[user]))
            rel = (np.linalg.norm(numeric - analytic)
                   / np.linalg.norm(analytic))
            assert rel < 1e-5

    def test_gradient_is_hermitian(self):
        ch, order, w, plan = _rand_setup()
        got = gradient_cvx(ch, order, plan, w, 0.2, 1)
        assert np.max(np.abs(got - herm(got))) < 1e-12

    def test_tangent_under_estimates_convex_part(self):
        # the tangent plane of the convex block part is a global lower bound
        # and is tight at the expansion point
        for _ in range(20):
            ch, order, w, plan = _rand_setup()
            lam = float(rng.random())
            k = int(rng.integers(1, ch.num_users + 1))
            user = order.permutation[k - 1] - 1
            q0 = np.array(plan.matrices[user])
            f0 = split_objective(ch, order, plan, w, lam, k)[1]
            grad = gradient_cvx(ch, order, plan, w, lam, k)
            tangent_at_q0 = f0 + float(np.real(np.trace(grad @ (q0 - q0))))
            assert tangent_at_q0 == pytest.approx(f0, abs=1e-10)
            from securebc import random_psd
            trial = random_psd(ch.n_t, rng, trace=0.4 * ch.power)
            mats = list(plan.matrices)
            mats[user] = trial
            f_trial = split_objective(ch, order, CovariancePlan(BC, mats),
                                      w, lam, k)[1]
            tangent = f0 + float(np.real(np.trace(grad @ (trial - q0))))
            assert f_trial >= tangent - 1e-9


class TestSurrogateUpdate:
    def test_huge_price_drives_block_to_zero(self):
        ch, order, w, plan = _rand_setup(K=2)
        out = surrogate_update(ch, order, plan, w, 1e3, 1)
        assert float(np.trace(out).real) < 1e-6

    def test_stationary_point_is_fixed(self):
        h = np.array([[1.3, 0.2], [-0.4, 0.9]], dtype=complex)
        ch = ChannelSet([h], np.zeros((1, 2)), 10.0)
        lam = 0.45
        qstar = waterfilling_covariance(h, lam)
        plan = CovariancePlan(BC, [qstar])
        out = surrogate_update(ch, EncodingOrder([1]), plan,
                               WeightVector([1.0]), lam, 1)
        assert np.max(np.abs(out - qstar)) < 1e-8

    def test_single_user_matches_water_filling(self):
        h = np.array([[1.1, -0.3], [0.5, 0.8]], dtype=complex)
        ch = ChannelSet([h], np.zeros((1, 2)), 10.0)
        lam = 0.5
        start = CovariancePlan(BC, [0.5 * np.eye(2)])
        cfg = SolverConfig(objective_tol=1e-12, inner_max_iters=5000)
        out = surrogate_update(ch, EncodingOrder([1]), start,
                               WeightVector([1.0]), lam, 1, cfg)
        ref = waterfilling_covariance(h, lam)
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_never_decreases_surrogate(self):
        # monotone ascent of the full penalized objective per block update
        for _ in range(10):
            ch, order, w, plan = _rand_setup()
            lam = float(rng.random() * 0.5 + 0.05)
            before = lagrangian(ch, order, plan, w, lam)
            k = int(rng.integers(1, ch.num_users + 1))
            out = surrogate_update(ch, order, plan, w, lam, k)
            mats = list(plan.matrices)
            mats[order.permutation[k - 1] - 1] = out
            after = lagrangian(ch, order, CovariancePlan(BC, mats), w, lam)
            assert after >= before - 1e-9

    def test_inconsistent_gradient_detected(self, monkeypatch):
        # flipping the sign of the inner objective makes it inconsistent
        # with its gradient: the line search cannot ascend while the
        # gradient mapping stays large, which must be flagged as a bug
        h = np.array([[1.3, 0.1], [-0.2, 0.9]], dtype=complex)
        ch = ChannelSet([h], np.zeros((1, 2)), 10.0)
        plan = CovariancePlan(BC, [0.3 * np.eye(2)])
        true_ld = solver_mod.logdet_i_plus
        monkeypatch.setattr(solver_mod, "logdet_i_plus", lambda m: -true_ld(m))
        with pytest.raises(InnerNotImproved):
            surrogate_update(ch, EncodingOrder([1]), plan,
                             WeightVector([1.0]), 0.1, 1)


class TestMaximizeLagrangian:
    def test_per_block_trace_monotone(self):
        for _ in range(6):
            ch, order, w, _ = _rand_setup()
            lam = float(rng.random() * 0.8 + 0.1)
            cfg = SolverConfig(max_outer_iters=60)
            _, trace = maximize_lagrangian(ch, w, order, lam, cfg,
                                           per_block_trace=True)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9)

    def test_warm_start_from_plan(self):
        ch, order, w, plan = _rand_setup(K=2)
        out, trace = maximize_lagrangian(ch, w, order, 0.5, FAST, plan0=plan)
        assert trace[-1] >= trace[0] - 1e-9
        assert out.side == BC


class TestSolveWsr:
    def test_two_user_benchmark_both_orders(self):
        ch = ChannelSet([np.array([[1.0, -0.5], [0.5, 2.0]]),
                         np.array([[-0.3, 1.0], [2.0, -0.4]])],
                        np.array([[0.8, -1.6]]), 1.0)
        w = WeightVector([0.5, 0.5])
        r12 = solve_wsr(ch, w, EncodingOrder([1, 2]))
        assert r12.rates.per_user[0] == pytest.approx(0.8334, abs=1e-2)
        assert r12.rates.per_user[1] == pytest.approx(0.7643, abs=1e-2)
        assert r12.rates.sum_rate == pytest.approx(1.5977, abs=1e-2)
        r21 = solve_wsr(ch, w, EncodingOrder([2, 1]))
        assert r21.rates.per_user[0] == pytest.approx(0.5324, abs=1e-2)
        assert r21.rates.per_user[1] == pytest.approx(1.065, abs=1e-2)
        assert r21.rates.sum_rate == pytest.approx(1.5977, abs=1e-2)

    def test_vanishing_power(self):
        ch0 = rand_instance(rng, K=2, square=True)
        ch = ChannelSet(ch0.user_channels, ch0.eavesdropper, 1e-9)
        report = solve_wsr(ch, WeightVector([0.5, 0.5]), EncodingOrder([1, 2]), FAST)
        assert max(report.rates.per_user) < 1e-6
        assert report.plan.total_trace <= 1e-9 * (1 + 1e-6)

    def test_budget_slack_at_bottom_price(self):
        # the eavesdropper hears more than the user, so zero power is optimal
        # and the bottom price already leaves the budget slack
        ch = ChannelSet([[[1.0]]], [[2.0]], 1.0)
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]))
        assert report.lambda_trace == (solver_mod.LAMBDA_LO,)
        assert report.plan.total_trace == 0.0
        assert report.rates.per_user == (0.0,)
        assert report.termination == "converged"

    def test_converged_means_power_tight(self):
        # criterion 6's instances at a loose lambda_tol: a converged report
        # carries a plan within lambda_tol of the budget, not a bisection
        # midpoint further below it
        w = WeightVector([0.3, 0.7])
        converged = 0
        for seed in range(4):
            ch = sample_channel_set(seed, 2, 2, [2, 2], 1, 1.0)
            for order in (EncodingOrder([2, 1]), EncodingOrder([1, 2])):
                report = solve_wsr(ch, w, order, FAST)
                if report.termination == "converged":
                    converged += 1
                    power = report.plan.total_trace
                    assert (ch.power * (1 - FAST.lambda_tol) <= power
                            <= ch.power * (1 + 1e-6)), (seed, order, power)
        assert converged > 0

    def test_single_user_no_eavesdropper_hits_water_filling(self):
        cfg = SolverConfig(objective_tol=1e-12, lambda_tol=1e-9,
                           inner_max_iters=2000, max_outer_iters=4000)
        ch = sample_channel_set(100, 1, 2, [2], 1, 1.0).with_zero_eavesdropper()
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]), cfg)
        ref = waterfilling_capacity(ch.user_channels[0], 1.0)
        assert report.rates.sum_rate == pytest.approx(ref, abs=1e-6)

    def test_feasibility_and_rate_floor(self):
        for seed in range(5):
            ch = sample_channel_set(seed, 2, 2, [2, 2], 1, 1.0)
            report = solve_wsr(ch, WeightVector([0.4, 0.6]),
                               EncodingOrder([2, 1]), FAST)
            assert report.plan.total_trace <= ch.power * (1 + 1e-6)
            for q in report.plan.matrices:
                assert np.linalg.eigvalsh(q)[0] >= -1e-10
            raw = dpc_secrecy_rates(ch, EncodingOrder([2, 1]), report.plan)
            assert min(raw.per_user) >= -1e-8

    def test_deterministic(self):
        ch = sample_channel_set(9, 2, 2, [2, 2], 1, 1.0)
        a = solve_wsr(ch, WeightVector([0.3, 0.7]), EncodingOrder([2, 1]), FAST)
        b = solve_wsr(ch, WeightVector([0.3, 0.7]), EncodingOrder([2, 1]), FAST)
        assert a.rates.per_user == b.rates.per_user
        assert a.lambda_final == b.lambda_final
        for qa, qb in zip(a.plan.matrices, b.plan.matrices):
            assert np.array_equal(qa, qb)

    def test_report_shape(self):
        ch = sample_channel_set(4, 2, 2, [2, 2], 1, 1.0)
        report = solve_wsr(ch, WeightVector([0.5, 0.5]), EncodingOrder([1, 2]), FAST)
        assert report.termination in ("converged", "max_iters", "stalled")
        assert len(report.objective_trace) > 0
        assert len(report.lambda_trace) > 0
        assert report.outer_iters > 0
        assert report.rates.weighted_sum == pytest.approx(
            weighted_sum(report.rates, WeightVector([0.5, 0.5])), abs=1e-12)

    def test_zero_init_scheme(self):
        ch = sample_channel_set(2, 1, 2, [2], 1, 1.0).with_zero_eavesdropper()
        cfg = SolverConfig(objective_tol=1e-9)
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]), cfg,
                           plan0=CovariancePlan.zero(BC, ch))
        ref = waterfilling_capacity(ch.user_channels[0], 1.0)
        assert report.rates.sum_rate == pytest.approx(ref, abs=1e-4)

    def test_multistart_not_worse(self):
        ch = sample_channel_set(8, 2, 2, [2, 2], 1, 1.0)
        w = WeightVector([0.45, 0.55])
        single = solve_wsr(ch, w, EncodingOrder([2, 1]), FAST)
        multi = solve_wsr_multistart(ch, w, EncodingOrder([2, 1]), FAST,
                                     starts=3, seed=5)
        assert multi.rates.weighted_sum >= single.rates.weighted_sum - 1e-12


def test_solver_entry_points_reject_uplink_plans():
    # with n_k = n_t an uplink plan has downlink shapes; it must still be
    # refused, as dpc_secrecy_rates refuses it
    from securebc import MAC, DimensionMismatch
    ch = sample_channel_set(3, 2, 2, [2, 2], 1, 1.0)
    order, w = EncodingOrder([1, 2]), WeightVector([0.5, 0.5])
    mac = CovariancePlan(MAC, [0.25 * np.eye(2), 0.25 * np.eye(2)])
    calls = [
        lambda: lagrangian(ch, order, mac, w, 0.3),
        lambda: split_objective(ch, order, mac, w, 0.3, 1),
        lambda: gradient_cvx(ch, order, mac, w, 0.3, 1),
        lambda: surrogate_update(ch, order, mac, w, 0.3, 1),
        lambda: maximize_lagrangian(ch, w, order, 0.3, FAST, plan0=mac),
        lambda: solve_wsr(ch, w, order, FAST, plan0=mac),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()
