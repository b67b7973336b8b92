import numpy as np
import pytest

import securebc.solver as solver_mod
from conftest import (fd_gradient, herm, rand_bc_plan, rand_instance,
                      waterfilling_capacity, waterfilling_covariance)
from securebc import (BC, ChannelSet, CovariancePlan, EncodingOrder,
                      InnerNotImproved, LengthMismatch, SolverConfig, WeightVector,
                      dpc_secrecy_rates, example_three_user, example_two_user,
                      gradient_cvx, lagrangian,
                      maximize_lagrangian, optimal_order, sample_channel_set, solve_wsr,
                      split_objective, surrogate_update, weighted_sum)
from securebc.rates import within_budget

rng = np.random.default_rng(23)

FAST = SolverConfig(objective_tol=1e-7, lambda_tol=1e-4)
# the K = 2, n_t = 4 instances of the benchmark's snr-sweep workload
SNR_SEEDS = (555937504, 369084857, 1125298261, 449948378, 636350294, 1723892438,
             1316418840, 1162197000, 543196853, 351862683, 542835508, 292333901,
             1444876756, 208090601)


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
        for tol in ("objective_tol", "lambda_tol"):
            for bad in (0.0, float("inf"), float("nan"), True):  # True is not the number 1
                with pytest.raises(ValueError):
                    SolverConfig(**{tol: bad})
        for bad in (0, -3, 1.5, "5", True, None):
            with pytest.raises(ValueError):
                SolverConfig(max_outer_iters=bad)
        with pytest.raises(TypeError):
            SolverConfig(inner_max_iters=5)


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
        # 1.5 and "1" raised TypeError from indexing or from <=, and True ran as block 1
        ch, order, w, plan = _rand_setup(K=2)
        from securebc import DimensionMismatch
        for f in (split_objective, gradient_cvx, surrogate_update):
            for k in (0, 3, 1.5, "1", True):
                match = "out of range 1..2" if k == 3 else "an integer of at least 1"
                with pytest.raises(DimensionMismatch, match=match):
                    f(ch, order, plan, w, 0.1, k)


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


def test_inner_matches_vdot_bit_for_bit():
    # the one-product inner product against np.vdot, its loop reference,
    # on real and complex matrices and stacks; its own generator keeps the
    # module's draws
    gen = np.random.default_rng(3)
    for n in range(1, 9):
        for shape in ((n, n), (5, n, n)):
            for a, b in ((gen.standard_normal(shape), gen.standard_normal(shape)),
                         (gen.standard_normal(shape) + 1j * gen.standard_normal(shape),
                          gen.standard_normal(shape) + 1j * gen.standard_normal(shape))):
                got = solver_mod._inner(a, b)
                ref = (np.vdot(a, b).real if a.ndim == 2
                       else np.array([np.vdot(x, y).real for x, y in zip(a, b)]))
                assert got.shape == ref.shape and np.array_equal(got, ref)


class TestSurrogateUpdate:
    def test_huge_price_drives_block_to_zero(self):
        ch, order, w, plan = _rand_setup(K=2)
        out = surrogate_update(ch, order, plan, w, 1e3, 1)
        assert float(np.trace(out).real) < 1e-6

    def test_zero_plan_fixed_exactly_above_top_price(self):
        # at the zero plan every block's model matrix is lam I + w_k G^H G,
        # so no block moves exactly when lam >= max_k w_k lam_max(H_k^H H_k
        # - G^H G); a solve's price search never evaluates a price at or
        # above it
        local = np.random.default_rng(31)
        tested = 0
        for _ in range(20):
            ch = rand_instance(local, K=int(local.integers(1, 4)),
                               n_t=int(local.integers(1, 5)), square=False)
            K = ch.num_users
            order = EncodingOrder(local.permutation(K) + 1)
            w = WeightVector(local.random(K) + 0.05)
            g = ch.eavesdropper
            top = max(wk * np.linalg.eigvalsh(herm(h) @ h - herm(g) @ g)[-1]
                      for wk, h in zip(w.weights, ch.user_channels))
            if top <= 0:
                continue
            tested += 1
            zero = CovariancePlan.zero(BC, ch)
            above = [surrogate_update(ch, order, zero, w, top * (1 + 1e-9), k)
                     for k in range(1, K + 1)]
            assert not any(np.any(x) for x in above)
            below = [surrogate_update(ch, order, zero, w, top * (1 - 1e-3), k)
                     for k in range(1, K + 1)]
            assert any(np.any(x) for x in below)
            report = solve_wsr(ch, w, order, FAST)
            assert max(report.lambda_trace) < top, (top, report.lambda_trace)
        assert tested >= 15

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
        out = surrogate_update(ch, EncodingOrder([1]), start,
                               WeightVector([1.0]), lam, 1)
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
        # gradient mapping stays large, which must be flagged as a bug.
        # Position 2 keeps the iterative path (position 1 is closed form).
        h1 = np.array([[1.3, 0.1], [-0.2, 0.9]], dtype=complex)
        h2 = np.array([[0.7, -0.4], [0.3, 1.2]], dtype=complex)
        ch = ChannelSet([h1, h2], np.zeros((1, 2)), 10.0)
        plan = CovariancePlan(BC, [0.3 * np.eye(2), 0.3 * np.eye(2)])
        true_ld = solver_mod.logdet_i_plus
        monkeypatch.setattr(solver_mod, "logdet_i_plus", lambda m: -true_ld(m))
        with pytest.raises(InnerNotImproved, match="block 2"):
            surrogate_update(ch, EncodingOrder([1, 2]), plan,
                             WeightVector([1.0, 1.0]), 0.1, 2)

    def test_position_one_update_is_exact(self):
        # the position-1 surrogate w_1 logdet(B + H_1 X H_1^H) - tr(M X),
        # M = lam I - A, is maximized exactly: X is PSD, its gradient
        # Gamma is negative semidefinite and complementary to X
        narrow = zeroed = 0
        for _ in range(60):
            ch = rand_instance(rng, n_t=int(rng.integers(1, 5)), square=False)
            K, n_t = ch.num_users, ch.n_t
            order = EncodingOrder(rng.permutation(K) + 1)
            w = WeightVector(rng.random(K) + 0.05)
            plan = rand_bc_plan(rng, ch)
            lam = float(rng.uniform(0.05, 1.5))
            x = surrogate_update(ch, order, plan, w, lam, 1)
            first = order.permutation[0] - 1
            h = ch.user_channels[first]
            narrow += h.shape[0] < n_t
            later = sum((plan.matrices[u - 1] for u in order.permutation[1:]),
                        np.zeros((n_t, n_t)))
            b = np.eye(h.shape[0]) + h @ later @ herm(h)
            m = lam * np.eye(n_t) - gradient_cvx(ch, order, plan, w, lam, 1)
            gam = w.weights[first] * herm(h) @ np.linalg.inv(b + h @ x @ herm(h)) @ h - m
            gam = (gam + herm(gam)) / 2
            assert np.linalg.eigvalsh((x + herm(x)) / 2)[0] >= -1e-12
            assert np.linalg.eigvalsh(gam)[-1] <= 1e-9
            assert np.linalg.norm(x @ gam) <= 1e-9
            if K > 1:
                zero_w = WeightVector([0.0 if u == first else 1.0 for u in range(K)])
                assert not np.any(surrogate_update(ch, order, plan, zero_w, lam, 1))
                zeroed += 1
        assert narrow > 0 and zeroed > 0
        h = np.array([[1.1, -0.3], [0.5, 0.8]], dtype=complex)
        ch = ChannelSet([h], np.zeros((1, 2)), 10.0)
        out = surrogate_update(ch, EncodingOrder([1]), CovariancePlan(BC, [0.5 * np.eye(2)]),
                               WeightVector([1.0]), 0.5, 1)
        assert np.max(np.abs(out - waterfilling_covariance(h, 0.5))) < 1e-12

    def test_indefinite_model_is_trace_capped(self):
        # with user 1 along the eavesdropper row and a low price, the model
        # matrix lam I - A - E of position 2 is indefinite, so the step's
        # water-fill is unbounded unless its trace is capped
        ch = example_two_user()
        order, w, lam = EncodingOrder([1, 2]), WeightVector([0.5, 0.1]), 0.1
        plan = CovariancePlan(BC, [np.array([[0.2, -0.4], [-0.4, 0.8]]), np.zeros((2, 2))])
        g = ch.eavesdropper
        m = (lam * np.eye(2) - gradient_cvx(ch, order, plan, w, lam, 2)
             - w.weights[0] * herm(g) @ g)
        assert np.linalg.eigvalsh(m)[0] < -0.3
        out = surrogate_update(ch, order, plan, w, lam, 2)
        assert np.linalg.eigvalsh((out + herm(out)) / 2)[0] >= -1e-12
        after = CovariancePlan(BC, [plan.matrices[0], out])
        gain = lagrangian(ch, order, after, w, lam) - lagrangian(ch, order, plan, w, lam)
        assert gain > 0.1

    def test_zero_weight_indefinite_model_pours_along_lowest_eigenvector(self):
        # the same instance with user 2 weightless: position 2's model matrix
        # is indefinite and its water-fill pours nothing, so the capped
        # target is the whole cap along M's lowest eigenvector; the Armijo
        # search keeps a quarter of that step (cap 2P = 2)
        ch = example_two_user()
        order, w, lam = EncodingOrder([1, 2]), WeightVector([1.0, 0.0]), 0.1
        plan = CovariancePlan(BC, [np.array([[0.2, -0.4], [-0.4, 0.8]]), np.zeros((2, 2))])
        g = ch.eavesdropper
        m = (lam * np.eye(2) - gradient_cvx(ch, order, plan, w, lam, 2)
             - w.weights[0] * herm(g) @ g)
        m_val, m_vec = np.linalg.eigh(m)
        assert m_val[0] < -0.7
        out = surrogate_update(ch, order, plan, w, lam, 2)
        v = m_vec[:, 0]
        assert np.max(np.abs(out - 0.5 * np.outer(v, v.conj()))) <= 1e-12
        assert np.linalg.eigvalsh((out + herm(out)) / 2)[0] >= -1e-12
        after = CovariancePlan(BC, [plan.matrices[0], out])
        gain = lagrangian(ch, order, after, w, lam) - lagrangian(ch, order, plan, w, lam)
        assert gain == pytest.approx(0.2284, abs=1e-4)

    def test_rejects_nonpositive_price(self):
        # at zero price the position-1 surrogate is unbounded along the
        # directions the eavesdropper cannot see; True is not the price 1
        ch, order, w, plan = _rand_setup(K=2)
        for lam in (0.0, -0.5, float("inf"), float("nan"), True):
            with pytest.raises(ValueError, match="the power price"):
                surrogate_update(ch, order, plan, w, lam, 1)
            with pytest.raises(ValueError, match="the power price"):
                maximize_lagrangian(ch, w, order, lam, FAST)


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

    def test_sweep_is_cyclic_surrogate_update(self):
        # a sweep of the fixed-price run is surrogate_update applied to each
        # block in turn: no line-search state carries over between sweeps
        local = np.random.default_rng(7)
        cfg = SolverConfig(max_outer_iters=5)
        for _ in range(12):
            ch = rand_instance(local, K=int(local.integers(2, 4)),
                               n_t=int(local.integers(2, 4)), n_e=1)
            K = ch.num_users
            order = EncodingOrder(local.permutation(K) + 1)
            w = WeightVector(local.random(K) + 0.05)
            lam = float(0.05 + local.random())
            scale = ch.power / (K * ch.n_t)
            plan = CovariancePlan(BC, [scale * np.eye(ch.n_t)] * K)
            out, trace = maximize_lagrangian(ch, w, order, lam, cfg, plan0=plan)
            for _ in range(len(trace) - 1):
                for k in range(1, K + 1):
                    mats = list(plan.matrices)
                    mats[order.permutation[k - 1] - 1] = surrogate_update(
                        ch, order, plan, w, lam, k)
                    plan = CovariancePlan(BC, mats)
            for a, b in zip(out.matrices, plan.matrices):
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_warm_start_from_plan(self):
        ch, order, w, plan = _rand_setup(K=2)
        out, trace = maximize_lagrangian(ch, w, order, 0.5, FAST, plan0=plan)
        assert trace[-1] >= trace[0] - 1e-9
        assert out.side == BC


class TestAndersonSteps:
    def test_anderson_steps_ascend_within_limits(self, monkeypatch):
        # price evaluations follow creeping sweeps with projected Anderson
        # steps, which over-relax the sweep when the Anderson candidate is
        # refused; every plan a step keeps must be PSD within the plan
        # tolerance, at or below power_stop and strictly above the plain
        # sweep's objective, the objective trace of every evaluation must
        # not fall, no step follows a sweep that passed the stop test, and
        # the drifting sweeps at P = 1e7 keep over-relaxed plans
        real_anderson, real_evaluation = solver_mod._anderson, solver_mod._evaluation
        real_candidate = solver_mod.anderson_psd
        steps, kept, traces, candidates = [], [], [], []
        relaxed = {}

        def spy_candidate(pairs):
            candidates.append(real_candidate(pairs))
            return candidates[-1]

        def spy_anderson(prob, lam, pairs, wsr, power, lag, power_stop):
            out = real_anderson(prob, lam, pairs, wsr, power, lag, power_stop)
            plan, _, out_power, out_lag = out
            steps.append(plan)
            if plan is not pairs[-1][1]:
                for q in plan:
                    tol = 1e-10 * max(1.0, float(np.trace(q).real))
                    assert np.linalg.eigvalsh((q + herm(q)) / 2)[0] >= -tol
                assert out_power <= power_stop
                assert out_power == pytest.approx(sum(np.trace(q).real for q in plan),
                                                  rel=1e-12)
                assert out_lag > lag
                kept.append(plan)
                if plan is not candidates[-1]:
                    relaxed[prob.P] = relaxed.get(prob.P, 0) + 1
            return out

        def spy_evaluation(prob, lam, start, cfg, power_stop):
            run = real_evaluation(prob, lam, start, cfg, power_stop)
            request = next(run)
            while True:
                swept = yield request
                before = len(steps)
                try:
                    request = run.send(swept)
                except StopIteration as stop:
                    ev = stop.value
                    traces.append(ev.lag_trace)
                    assert ev.hit_cap or len(steps) == before
                    return ev

        monkeypatch.setattr(solver_mod, "anderson_psd", spy_candidate)
        monkeypatch.setattr(solver_mod, "_anderson", spy_anderson)
        monkeypatch.setattr(solver_mod, "_evaluation", spy_evaluation)
        local = np.random.default_rng(5)
        for power in (1e-3, 1.0, 1e7):
            for _ in range(3):
                K = int(local.integers(2, 4))
                ch = sample_channel_set(int(local.integers(2 ** 31)), K,
                                        int(local.integers(2, 4)), 2, 1, power)
                order = EncodingOrder(local.permutation(K) + 1)
                w = WeightVector(local.random(K) + 0.05)
                report = solve_wsr(ch, w, order)
                assert within_budget(report.plan.total_trace, ch.power)
        assert traces and len(kept) >= 10, (len(traces), len(steps), len(kept))
        assert relaxed.get(1e7, 0) >= 1, relaxed
        for trace in traces:
            t = np.array(trace)
            assert np.all(np.diff(t) >= -1e-9 * (1.0 + np.abs(t[:-1])))

    def test_high_snr_bottom_price_sweeps(self):
        # at P = 1e7 the bottom price lies above the budget-tight one, so the
        # solve is one loose evaluation; its position-2 block creeps toward
        # a water-fill target a few units ahead: 1,237 plain sweeps, and 542
        # over-relaxed ones (beta-doubling) that stopped short at 19.867389,
        # kept here as a floor; the pinned value is where the loose
        # evaluation stops with Anderson steps and their over-relaxed
        # fallback (19.8677709 with Anderson steps alone)
        ch = sample_channel_set(208090601, 2, 4, 2, 2, 1e7)
        report = solve_wsr(ch, WeightVector([0.3, 0.7]), EncodingOrder([2, 1]))
        assert len(report.lambda_trace) == 1
        assert report.termination == "converged"
        assert report.outer_iters <= 50
        assert report.rates.weighted_sum == pytest.approx(19.867755, abs=1e-5)
        assert report.rates.weighted_sum >= 19.867389

    def test_drift_at_constant_velocity(self):
        # at P = 1e7 the bottom-price evaluation of this instance moves about
        # 4 units of power from block 1 to block 2 per sweep; Anderson steps
        # see no residual differences on such a drift and are refused, and
        # plain sweeps took 504 to settle
        w = WeightVector([0.3, 0.7])
        report = solve_wsr(sample_channel_set(555937504, 2, 4, 2, 2, 1e7), w,
                           optimal_order(w))
        assert len(report.lambda_trace) == 1
        assert report.termination == "converged"
        assert report.outer_iters <= 100

    def test_forty_db_instances(self):
        # P = 1e4, which the benchmark leaves out: without the over-relaxed
        # fallback these 14 solves took 1,868 sweeps (11 converged)
        w = WeightVector([0.3, 0.7])
        reports = [solve_wsr(sample_channel_set(seed, 2, 4, 2, 2, 1e4), w, optimal_order(w))
                   for seed in SNR_SEEDS]
        assert sum(r.outer_iters for r in reports) <= 1400
        assert sum(r.termination == "converged" for r in reports) >= 11

    def test_twenty_db_instances_converge(self):
        # P = 1e2, which the benchmark leaves out: with beta-doubling
        # over-relaxation in place of Anderson steps these 14 solves took
        # 2,981 sweeps
        w = WeightVector([0.3, 0.7])
        sweeps = 0
        for seed in SNR_SEEDS:
            report = solve_wsr(sample_channel_set(seed, 2, 4, 2, 2, 1e2), w, optimal_order(w))
            assert report.termination == "converged", seed
            sweeps += report.outer_iters
        assert sweeps <= 1000


@pytest.mark.parametrize("entry", ["lagrangian", "split_objective", "gradient_cvx",
                                   "surrogate_update", "maximize_lagrangian", "solve_wsr"])
def test_entry_takes_raw_weights(entry):
    # every solver entry normalizes a raw weight sequence as WeightVector does,
    # and refuses a wrong weight count as WeightVector.of does
    ch, order = example_two_user(), EncodingOrder([2, 1])
    plan = rand_bc_plan(np.random.default_rng(3), ch)
    call = {
        "lagrangian": lambda w: lagrangian(ch, order, plan, w, 0.5),
        "split_objective": lambda w: split_objective(ch, order, plan, w, 0.5, 2),
        "gradient_cvx": lambda w: gradient_cvx(ch, order, plan, w, 0.5, 2),
        "surrogate_update": lambda w: surrogate_update(ch, order, plan, w, 0.5, 2),
        "maximize_lagrangian": lambda w: maximize_lagrangian(ch, w, order, 0.5, FAST,
                                                             plan0=plan)[0].matrices,
        "solve_wsr": lambda w: solve_wsr(ch, w, order, FAST).plan.matrices,
    }[entry]
    assert np.array_equal(np.asarray(call([3, 7])), np.asarray(call(WeightVector([3, 7]))))
    with pytest.raises(LengthMismatch, match="3 weights for 2 users"):
        call([1, 2, 3])


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
        assert within_budget(report.plan.total_trace, ch.power)

    def test_budget_slack_at_bottom_price(self):
        # the eavesdropper hears more than the user, so zero power is optimal
        # and the bottom price already leaves the budget slack
        ch = ChannelSet([[[1.0]]], [[2.0]], 1.0)
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]))
        assert report.lambda_trace == (solver_mod.LAMBDA_LO,)
        assert report.plan.total_trace == 0.0
        assert report.rates.per_user == (0.0,)
        assert report.termination == "converged"

    @staticmethod
    def _fake_evaluations(monkeypatch, power):
        # each evaluation asks for no sweep: it keeps its start plan and
        # reports the power power(lam, P)
        def evaluation(prob, lam, start, cfg, power_stop):
            return solver_mod._Eval(lam, start.Q, power(lam, prob.P), 0.0, False,
                                    (0.0,), (0.0,))
            yield  # a generator, as the price search drives it

        monkeypatch.setattr(solver_mod, "_evaluation", evaluation)

    def test_secant_off_the_bracket_takes_the_midpoint(self, monkeypatch):
        # a bottom residual of 1e300 P rounds the secant price onto the top
        # of the bracket, so the search evaluates the midpoint instead
        lo = solver_mod.LAMBDA_LO
        self._fake_evaluations(monkeypatch, lambda lam, P: 1e300 * P if lam == lo else P)
        ch, w, order = example_two_user(), WeightVector([0.3, 0.7]), EncodingOrder([1, 2])
        top = solver_mod._top_price(solver_mod._Problem(ch, order, w))
        report = solve_wsr(ch, w, order)
        assert report.lambda_trace == (lo, (lo + top) / 2)
        assert report.termination == "converged"

    def test_no_feasible_record_returns_the_lowest_power(self, monkeypatch):
        # every price overshoots the budget by more than P, so the bracket
        # closes with no feasible record and the solve reports the
        # lowest-power one, at the highest price, as stalled
        self._fake_evaluations(monkeypatch, lambda lam, P: P * (2 + 1 / (1 + lam)))
        report = solve_wsr(example_two_user(), [0.3, 0.7], EncodingOrder([1, 2]))
        assert report.termination == "stalled"
        assert len(report.lambda_trace) == 12
        assert report.lambda_final == max(report.lambda_trace)

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
                            and within_budget(power, ch.power)), (seed, order, power)
        assert converged > 0

    def test_converged_plans_pass_budget_check(self):
        # a converged plan is within the budget slack
        w = WeightVector([0.3, 0.7])
        converged = 0
        for seed in range(6):
            ch = sample_channel_set(seed, 2, 2, [2, 2], 1, 1.0)
            for order in (EncodingOrder([2, 1]), EncodingOrder([1, 2])):
                report = solve_wsr(ch, w, order)
                if report.termination == "converged":
                    converged += 1
                    assert within_budget(report.plan.total_trace, ch.power)
        assert converged > 0

    def test_price_evaluation_budget(self):
        # the secant price search meets the budget within a dozen evaluations
        # on both worked examples (plain bisection of the bracket takes 32-34)
        # and at P = 1e-3, where the power is zero over most prices below the
        # zero plan's stationarity threshold
        from itertools import permutations
        cases = [(example_two_user(), [0.5, 0.5], permutations([1, 2])),
                 (example_three_user(), [0.15, 0.2, 0.65], permutations([1, 2, 3]))]
        cases += [(sample_channel_set(seed, 2, 4, 2, 2, 1e-3), [0.3, 0.7], [(2, 1)])
                  for seed in (1, 2, 3, 4, 5, 1007)]
        for ch, w, orders in cases:
            for order in orders:
                report = solve_wsr(ch, WeightVector(w), EncodingOrder(list(order)))
                assert len(report.lambda_trace) <= 12, (ch.power, order,
                                                        report.lambda_trace)
                assert report.termination == "converged", order

    def test_power_jump_instance_reaches_budget(self):
        # the power jump near lam = 0.3563 (0.80 P to 1.09 P) is a property
        # of warm starts from the bracket's top, which stall at 0.80 P with
        # WSR 0.485, not of the problem: from the predictor start the search
        # meets the budget
        ch = sample_channel_set(6, 2, 2, [2, 2], 1, 1.0)
        report = solve_wsr(ch, WeightVector([0.3, 0.7]), EncodingOrder([1, 2]), FAST)
        assert report.termination == "converged"
        assert abs(report.plan.total_trace - ch.power) <= FAST.lambda_tol * ch.power
        assert report.rates.weighted_sum >= 0.56
        assert report.outer_iters <= 60
        assert within_budget(report.plan.total_trace, ch.power)

    def test_snr_range(self):
        # -30 to +70 dB on one K = 2, n_t = 4 instance: no solve raises, every
        # plan is within the budget, and up to +40 dB every solve meets it
        base = sample_channel_set(449948378, 2, 4, 2, 2, 1.0)
        w, order = WeightVector([0.3, 0.7]), EncodingOrder([2, 1])
        for power in (1e-3, 1.0, 1e2, 1e4, 1e7):
            ch = ChannelSet(list(base.user_channels), base.eavesdropper, power)
            report = solve_wsr(ch, w, order)
            assert within_budget(report.plan.total_trace, ch.power)
            if power <= 1e4:
                assert report.termination == "converged", (power, report.termination)

    def test_channel_scale_invariance(self):
        # (c H, c G, P / c^2) is the same problem as (H, G, P), with every
        # price scaled by c^2: at c = 100 the budget-tight price of the first
        # instance is in the thousands, and the census row (census 7, row 18:
        # K = 3, n_t = 4) has its price at 5.6e-5 at P = 1e4 and at 0.56 as
        # (100 H, 100 G, 1), so no stopping rule of the search may read an
        # absolute price or power scale
        from itertools import islice

        from census import cases
        _, row, row_w = next(islice(cases(7, 40), 18, None))
        instances = [(sample_channel_set(3, 2, 2, 2, 1, 1.0), WeightVector([0.3, 0.7]),
                      EncodingOrder([2, 1]), ((100.0, 1e-4), (1.0, 1.0))),
                     (row, row_w, optimal_order(row_w), ((1.0, 1e4), (100.0, 1.0)))]
        for base, w, order, scalings in instances:
            sums = []
            for c, power in scalings:
                ch = ChannelSet([c * h for h in base.user_channels],
                                c * base.eavesdropper, power)
                report = solve_wsr(ch, w, order)
                assert report.termination == "converged", (c, power, report.termination)
                assert within_budget(report.plan.total_trace, ch.power)
                sums.append(report.rates.weighted_sum)
            assert sums[0] == pytest.approx(sums[1], abs=1e-6)

    def test_single_user_no_eavesdropper_hits_water_filling(self):
        cfg = SolverConfig(objective_tol=1e-12, lambda_tol=1e-9, max_outer_iters=4000)
        ch = sample_channel_set(100, 1, 2, [2], 1, 1.0).with_zero_eavesdropper()
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]), cfg)
        ref = waterfilling_capacity(ch.user_channels[0], 1.0)
        assert report.rates.sum_rate == pytest.approx(ref, abs=1e-6)

    def test_feasibility_and_rate_floor(self):
        for seed in range(5):
            ch = sample_channel_set(seed, 2, 2, [2, 2], 1, 1.0)
            report = solve_wsr(ch, WeightVector([0.4, 0.6]),
                               EncodingOrder([2, 1]), FAST)
            assert within_budget(report.plan.total_trace, ch.power)
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
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]), cfg)
        ref = waterfilling_capacity(ch.user_channels[0], 1.0)
        assert report.rates.sum_rate == pytest.approx(ref, abs=1e-4)


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
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()
