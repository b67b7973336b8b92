"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -rA``) and then
asserts, so a failed criterion is both visible in the summary and fatal to
the run.  All randomness is seeded; reruns are bit-reproducible.
"""

import time

import numpy as np
import pytest

from conftest import (fd_gradient, rand_bc_plan, waterfilling_capacity)
from securebc import (BC, ChannelSet, CovariancePlan, EncodingOrder,
                      SolverConfig, WeightVector, compare_orders,
                      duality_property_ensemble, example_three_user,
                      example_two_user, gradient_cvx, maximize_lagrangian,
                      sample_channel_set, solve_wsr, split_objective)

FAST = SolverConfig(objective_tol=1e-7, lambda_tol=1e-4)
PRECISE = SolverConfig(objective_tol=1e-12, lambda_tol=1e-9, max_outer_iters=4000)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_two_user_benchmark_regression():
    ch = example_two_user()
    w = WeightVector([0.5, 0.5])
    t0 = time.time()
    r12 = solve_wsr(ch, w, EncodingOrder([1, 2]))
    t12 = time.time() - t0
    t0 = time.time()
    r21 = solve_wsr(ch, w, EncodingOrder([2, 1]))
    t21 = time.time() - t0
    errs = [
        abs(r12.rates.per_user[0] - 0.8334),
        abs(r12.rates.per_user[1] - 0.7643),
        abs(r12.rates.sum_rate - 1.5977),
        abs(r21.rates.per_user[0] - 0.5324),
        abs(r21.rates.per_user[1] - 1.065),
        abs(r21.rates.sum_rate - 1.5977),
    ]
    ok = max(errs) <= 1e-2 and t12 < 10.0 and t21 < 10.0
    _report("criterion 1 (two-user regression)", ok,
            f"max rate error {max(errs):.2e} <= 1e-2, "
            f"solve times {t12:.1f}s/{t21:.1f}s < 10s")


def test_criterion_2_three_user_order_verdicts():
    ch = example_three_user()
    cases = [((0.15, 0.2, 0.65), (3, 2, 1)), ((0.2, 0.1, 0.7), (3, 1, 2))]
    details = []
    ok = True
    for weights, expected in cases:
        t0 = time.time()
        cmp = compare_orders(ch, WeightVector(weights), None)
        dt = time.time() - t0
        got = cmp.best_order.permutation
        ok = ok and got == expected and dt < 300.0
        details.append(f"{weights} -> {list(got)} in {dt:.0f}s")
    _report("criterion 2 (three-user order verdicts)", ok, "; ".join(details))


def test_criterion_3_duality_property_suite():
    report = duality_property_ensemble(num_instances=200, seed=0, tol=1e-8)
    ok = report["passed"]
    _report("criterion 3 (duality suite, 200 instances)", ok,
            f"rate {report['max_rate_error']:.1e}, "
            f"trace {report['max_trace_error']:.1e}, "
            f"round-trip {report['max_roundtrip_error']:.1e} all <= 1e-8; "
            f"{report['failures']} failures")


def test_criterion_4_gradient_oracle():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t,
                                [n_t] * K, int(rng.integers(1, 3)), 1.0)
        order = EncodingOrder(rng.permutation(K) + 1)
        w = WeightVector(rng.random(K) + 0.1)
        plan = rand_bc_plan(rng, ch)
        lam = float(rng.random())
        k = int(rng.integers(1, K + 1))
        user = order.permutation[k - 1] - 1
        analytic = gradient_cvx(ch, order, plan, w, lam, k)

        def cvx_at(x, _mats=plan.matrices, _u=user, _o=order, _w=w,
                   _lam=lam, _k=k, _ch=ch):
            mats = list(_mats)
            mats[_u] = x
            return split_objective(_ch, _o, CovariancePlan(BC, mats),
                                   _w, _lam, _k)[1]

        numeric = fd_gradient(cvx_at, np.array(plan.matrices[user]), h=1e-6)
        denom = max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, float(np.linalg.norm(numeric - analytic) / denom))
    ok = worst <= 1e-5
    _report("criterion 4 (gradient vs finite differences, 50 instances)", ok,
            f"worst relative error {worst:.2e} <= 1e-5")


def test_criterion_5_block_update_monotonicity():
    rng = np.random.default_rng(500)
    worst_drop = 0.0
    cfg = SolverConfig(max_outer_iters=60)
    for _ in range(50):
        K = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t,
                                [n_t] * K, int(rng.integers(1, 3)), 1.0)
        order = EncodingOrder(rng.permutation(K) + 1)
        w = WeightVector(rng.random(K) + 0.1)
        lam = float(0.05 + 1.5 * rng.random())
        _, trace = maximize_lagrangian(ch, w, order, lam, cfg,
                                       per_block_trace=True)
        drops = -np.minimum(np.diff(trace), 0.0)
        if drops.size:
            worst_drop = max(worst_drop, float(drops.max()))
    ok = worst_drop <= 1e-9
    _report("criterion 5 (penalized-objective monotonicity, 50 instances)",
            ok, f"worst per-step drop {worst_drop:.2e} <= 1e-9")


def test_criterion_6_order_rule_statistical_check():
    w = WeightVector([0.3, 0.7])
    rule_order = EncodingOrder([2, 1])
    other = EncodingOrder([1, 2])
    failures = []
    for seed in range(100):
        ch = sample_channel_set(seed, 2, 2, [2, 2], 1, 1.0)
        wsr_rule = solve_wsr(ch, w, rule_order, FAST).rates.weighted_sum
        wsr_other = solve_wsr(ch, w, other, FAST).rates.weighted_sum
        if wsr_rule < wsr_other - 2e-3:
            failures.append((seed, wsr_rule, wsr_other))
    for seed, a, b in failures:
        print(f"  order-rule miss at seed {seed}: rule {a:.6f} < other {b:.6f}")
    ok = len(failures) <= 5
    _report("criterion 6 (order rule, 100 seeded two-user instances)", ok,
            f"{100 - len(failures)}/100 instances satisfy the rule "
            f"(needs >= 95)")


def test_criterion_7_equal_weight_sum_rate_is_order_free():
    w = WeightVector([1 / 3, 1 / 3, 1 / 3])
    orders = [EncodingOrder(p) for p in
              [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]]
    worst_spread = 0.0
    for seed in range(25):
        ch = sample_channel_set(700 + seed, 3, 2, [2, 2, 2], 1, 1.0)
        sums = [solve_wsr(ch, w, order, FAST).rates.sum_rate for order in orders]
        worst_spread = max(worst_spread, max(sums) - min(sums))
    ok = worst_spread <= 2e-2
    _report("criterion 7 (equal-weight sum rate across all orders, 25 seeds)",
            ok, f"worst spread {worst_spread:.2e} <= 2e-2")


def _grid_search_rate(H, G, P, n_theta, n_split):
    """Brute-force K=1 secrecy rate over Q = R(t) diag(p1,p2) R(t)^T."""
    delta = P / n_split
    pairs = [(i, j) for i in range(n_split + 1) for j in range(n_split + 1 - i)]
    p1 = np.array([i * delta for i, j in pairs])
    p2 = np.array([j * delta for i, j in pairs])
    g = G[0]
    best = -np.inf
    for th in np.linspace(0.0, np.pi, n_theta, endpoint=False):
        c, s = np.cos(th), np.sin(th)
        q11 = c * c * p1 + s * s * p2
        q22 = s * s * p1 + c * c * p2
        q12 = c * s * (p1 - p2)
        hq11 = H[0, 0] * q11 + H[0, 1] * q12
        hq12 = H[0, 0] * q12 + H[0, 1] * q22
        hq21 = H[1, 0] * q11 + H[1, 1] * q12
        hq22 = H[1, 0] * q12 + H[1, 1] * q22
        a11 = hq11 * H[0, 0] + hq12 * H[0, 1]
        a12 = hq11 * H[1, 0] + hq12 * H[1, 1]
        a22 = hq21 * H[1, 0] + hq22 * H[1, 1]
        det_user = (1.0 + a11) * (1.0 + a22) - a12 * a12
        leak = g[0] * (g[0] * q11 + g[1] * q12) + g[1] * (g[0] * q12 + g[1] * q22)
        m = float(np.max(np.log(det_user) - np.log1p(leak)))
        if m > best:
            best = m
    return best


def test_criterion_8_single_user_oracles():
    # (a) zero eavesdropper: closed-form water-filling capacity
    worst_wf = 0.0
    for seed in range(25):
        ch = sample_channel_set(100 + seed, 1, 2, [2], 1, 1.0).with_zero_eavesdropper()
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]), PRECISE)
        ref = waterfilling_capacity(ch.user_channels[0], 1.0)
        worst_wf = max(worst_wf, abs(report.rates.sum_rate - ref))
    ok_wf = worst_wf <= 1e-6

    # (b) real 2x2 wiretap instances against a brute-force grid search
    worst_grid = 0.0
    worst_halving = 0.0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        H = rng.standard_normal((2, 2))
        G = rng.standard_normal((1, 2))
        ch = ChannelSet([H.astype(complex)], G.astype(complex), 1.0)
        report = solve_wsr(ch, WeightVector([1.0]), EncodingOrder([1]), PRECISE)
        coarse = _grid_search_rate(H, G, 1.0, n_theta=360, n_split=200)
        fine = _grid_search_rate(H, G, 1.0, n_theta=720, n_split=400)
        worst_halving = max(worst_halving, abs(fine - coarse))
        worst_grid = max(worst_grid, abs(report.rates.sum_rate - fine))
    ok_grid = worst_grid <= 1e-3 and worst_halving < 1e-4

    ok = ok_wf and ok_grid
    _report("criterion 8 (single-user oracles)", ok,
            f"water-filling worst {worst_wf:.2e} <= 1e-6; "
            f"grid worst {worst_grid:.2e} <= 1e-3 "
            f"(grid halving shift {worst_halving:.2e} < 1e-4)")
