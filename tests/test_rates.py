import numpy as np
import pytest

from conftest import herm, rand_bc_plan, rand_instance
from securebc import (BC, MAC, ChannelSet, CovariancePlan, DimensionMismatch,
                      EncodingOrder, LengthMismatch, RatePoint, WeightVector,
                      bc_rates, bc_to_mac, build_context_from_bc, build_context_from_mac,
                      dpc_secrecy_rates, effective_eve_channels, logdet_hpd,
                      mac_rates, mac_side_objective, sample_channel_set,
                      weighted_sum, wsr_equivalence_pair)
from securebc.duality import FOLLOWING
from securebc import rates as rates_mod
from securebc.linalg import logdet_i_plus, random_psd
from securebc.rates import _log_ratios, dpc_rates_arrays, suffix_sums

rng = np.random.default_rng(7)


class TestEncodingOrder:
    def test_validates_permutation(self):
        EncodingOrder([2, 1, 3])
        with pytest.raises(ValueError):
            EncodingOrder([1, 1, 2])
        with pytest.raises(ValueError):
            EncodingOrder([0, 1])
        for entries in ([1.5, 2], [True, 2], ["1", "2"]):  # none of these is the order (1, 2)
            with pytest.raises(ValueError, match="an order entry must be an integer"):
                EncodingOrder(entries)
        assert EncodingOrder(np.array([2, 1])).permutation == (2, 1)

    def test_helpers(self):
        order = EncodingOrder([3, 1, 2])
        assert list(order.zero_based) == [2, 0, 1]
        assert order.reverse().permutation == (2, 1, 3)
        assert str(order) == "[3,1,2]"
        assert EncodingOrder.identity(3).permutation == (1, 2, 3)


class TestCovariancePlan:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            CovariancePlan(BC, [np.diag([1.0, -0.5])])

    def test_rejects_empty_and_non_square(self):
        with pytest.raises(DimensionMismatch, match="at least one matrix"):
            CovariancePlan(BC, [])
        with pytest.raises(DimensionMismatch, match="matrix 2 is not square"):
            CovariancePlan(BC, [np.eye(2), np.ones((2, 3))])

    @pytest.mark.parametrize("m, error, message", [
        (np.array([[np.nan]]), ValueError, "has a non-finite entry"),
        (np.array([[np.inf]]), ValueError, "has a non-finite entry"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError, "has a non-finite entry"),
        (np.full((3, 3), np.nan), ValueError, "has a non-finite entry"),
        (np.zeros((0, 0)), DimensionMismatch, "is empty"),
    ], ids=["nan-1x1", "inf-1x1", "nan-2x2", "nan-3x3", "empty-0x0"])
    def test_rejects_non_finite_and_empty_matrices(self, m, error, message):
        # a NaN slips past the eigenvalue test (NaN < -tol is false), and
        # would come out as NaN rates
        with pytest.raises(error, match=f"matrix 2 {message}"):
            CovariancePlan(BC, [np.eye(2), m])

    def test_count_mismatches(self):
        ch = sample_channel_set(0, 2, 2, [2, 1], 1, 3.0)
        with pytest.raises(DimensionMismatch, match="plan has 1 matrices for 2 users"):
            CovariancePlan(BC, [np.eye(2)]).validate_for(ch)
        plan = CovariancePlan.zero(BC, ch)
        for order, plan_ in ((EncodingOrder([1, 2, 3]), plan),
                             (EncodingOrder([1]), CovariancePlan(BC, [np.eye(2)]))):
            with pytest.raises(DimensionMismatch, match="disagree on the user count"):
                bc_rates(ch, order, plan_)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            CovariancePlan("downlink", [np.eye(2)])

    def test_total_trace_and_validation(self):
        ch = sample_channel_set(0, 2, 2, [2, 1], 1, 3.0)
        plan = CovariancePlan(BC, [np.eye(2), 0.5 * np.eye(2)])
        assert plan.total_trace == pytest.approx(3.0)
        plan.validate_for(ch, check_power=True)
        mac_plan = CovariancePlan(MAC, [np.eye(2), np.eye(1)])
        mac_plan.validate_for(ch)
        with pytest.raises(DimensionMismatch):
            CovariancePlan(MAC, [np.eye(1), np.eye(1)]).validate_for(ch)

    def test_power_budget_opt_in(self):
        ch = sample_channel_set(0, 1, 2, [2], 1, 0.5)
        plan = CovariancePlan(BC, [np.eye(2)])
        plan.validate_for(ch)  # shape check only
        with pytest.raises(ValueError):
            plan.validate_for(ch, check_power=True)

    def test_zero_plan(self):
        ch = sample_channel_set(0, 2, 3, [1, 2], 1, 1.0)
        assert CovariancePlan.zero(BC, ch).total_trace == 0.0
        zm = CovariancePlan.zero(MAC, ch)
        assert zm.matrices[0].shape == (1, 1)
        assert zm.matrices[1].shape == (2, 2)


class TestDpcSecrecyRates:
    def test_zero_plan_zero_rates(self):
        ch = rand_instance(rng)
        plan = CovariancePlan.zero(BC, ch)
        point = dpc_secrecy_rates(ch, EncodingOrder.identity(ch.num_users), plan)
        assert point.per_user == tuple([0.0] * ch.num_users)

    def test_single_user_zero_eavesdropper_matches_logdet(self):
        ch = sample_channel_set(3, 1, 2, [2], 1, 1.0).with_zero_eavesdropper()
        q = random_psd(2, rng, trace=1.0)
        plan = CovariancePlan(BC, [q])
        point = dpc_secrecy_rates(ch, EncodingOrder([1]), plan)
        h = ch.user_channels[0]
        ref = logdet_hpd(np.eye(2) + h @ q @ herm(h))
        assert point.per_user[0] == pytest.approx(ref, abs=1e-12)

    def test_zero_eavesdropper_equals_bc_rates_exactly(self):
        ch = rand_instance(rng, K=3).with_zero_eavesdropper()
        plan = rand_bc_plan(rng, ch)
        order = EncodingOrder([2, 3, 1])
        assert (dpc_secrecy_rates(ch, order, plan).per_user
                == bc_rates(ch, order, plan).per_user)

    def test_no_logdet_of_the_empty_suffix(self, monkeypatch):
        # the suffix after the last position is zero and its log det is 0, so
        # K = 3 secrecy rates take 3K - 1 = 8 log-dets and plain rates 2K - 1 = 5
        calls = []
        monkeypatch.setattr(rates_mod, "logdet_i_plus",
                            lambda m: calls.append(m) or logdet_i_plus(m))
        ch = sample_channel_set(4, 3, 2, [2, 1, 2], 2, 1.0)
        plan, order = rand_bc_plan(rng, ch), EncodingOrder([2, 3, 1])
        dpc_secrecy_rates(ch, order, plan)
        assert len(calls) == 8
        bc_rates(ch, order, plan)
        assert len(calls) == 8 + 5

    def test_wrong_side_rejected(self):
        ch = sample_channel_set(1, 1, 2, [2], 1, 1.0)
        plan = CovariancePlan(MAC, [np.eye(2) * 0.2])
        with pytest.raises(DimensionMismatch):
            dpc_secrecy_rates(ch, EncodingOrder([1]), plan)

    def test_shared_eavesdropper_logdets_are_bit_identical(self):
        # K + 1 eavesdropper log-dets shared by neighbouring positions give
        # the same numbers as the 2K of the per-position form, on single
        # plans and on (B, n, n) stacks
        gen = np.random.default_rng(11)
        for n_t in (1, 2, 3):
            for n_e in (1, 2, 3):
                K = int(gen.integers(1, 4))
                ch = sample_channel_set(int(gen.integers(2 ** 31)), K, n_t, [n_t] * K,
                                        n_e, 1.0)
                H, G = list(ch.user_channels), ch.eavesdropper
                for q in ([random_psd(n_t, gen) for _ in range(K)],
                          [np.array([random_psd(n_t, gen) for _ in range(4)])
                           for _ in range(K)]):
                    suf = suffix_sums(q)
                    old = _log_ratios(H, suf) - _log_ratios([G] * K, suf)
                    new = dpc_rates_arrays(H, G, q)
                    assert new.shape == old.shape
                    assert new.tobytes() == old.tobytes()


class TestBcMacRates:
    def test_scalar_single_user(self):
        h = np.array([[1.0]])
        ch = ChannelSet([h], np.zeros((1, 1)), 2.0)
        p = 1.7
        bc = bc_rates(ch, EncodingOrder([1]), CovariancePlan(BC, [[[p]]]))
        mac = mac_rates(ch, EncodingOrder([1]), CovariancePlan(MAC, [[[p]]]))
        assert bc.per_user[0] == pytest.approx(np.log(1 + p), abs=1e-12)
        assert mac.per_user[0] == pytest.approx(np.log(1 + p), abs=1e-12)

    def test_mac_rates_telescope(self):
        # the per-position uplink rates collapse onto one log-determinant
        for _ in range(10):
            ch = rand_instance(rng, square=False)
            K, n_t = ch.num_users, ch.n_t
            order = EncodingOrder(rng.permutation(K) + 1)
            mats = [random_psd(nk, rng, trace=0.4) for nk in ch.n_k]
            plan = CovariancePlan(MAC, mats)
            total = np.zeros((n_t, n_t), dtype=complex)
            for u, h in enumerate(ch.user_channels):
                total += herm(h) @ mats[u] @ h
            ref = logdet_hpd(np.eye(n_t) + total)
            got = sum(mac_rates(ch, order, plan).per_user)
            assert got == pytest.approx(ref, abs=1e-10)

    def test_bc_rates_telescope_with_identical_channels(self):
        # with one shared channel matrix the downlink ratios collapse too
        h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        ch = ChannelSet([h, h, h], np.zeros((1, 2)), 10.0)
        plan = rand_bc_plan(rng, ch)
        total = sum(plan.matrices)
        ref = logdet_hpd(np.eye(2) + h @ total @ herm(h))
        got = sum(bc_rates(ch, EncodingOrder([3, 1, 2]), plan).per_user)
        assert got == pytest.approx(ref, abs=1e-9)


class TestWeightedSum:
    def test_published_pair(self):
        point = RatePoint((0.8334, 0.7643), 0.0)
        assert weighted_sum(point, WeightVector([0.5, 0.5])) == pytest.approx(
            0.79885, abs=1e-12)

    def test_selector_weight(self):
        point = RatePoint((0.3, 0.9), 0.0)
        assert weighted_sum(point, WeightVector([1.0, 0.0])) == 0.3

    def test_uniform_weights_give_mean(self):
        point = RatePoint((0.3, 0.9, 0.6), 0.0)
        assert weighted_sum(point, WeightVector([1, 1, 1])) == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_sum(RatePoint((0.1,), 0.0), WeightVector([0.5, 0.5]))

    def test_raw_weights_are_normalized(self):
        point = RatePoint((0.3, 0.9), 0.0)
        assert weighted_sum(point, [1, 3]) == weighted_sum(point, WeightVector([1, 3])) == 0.75

    def test_raw_weights_are_checked(self):
        point = RatePoint((0.3, 0.9), 0.0)
        for bad in ([float("nan"), 1.0], [-1.0, 1.0], [0.0, 0.0]):
            with pytest.raises(ValueError):
                weighted_sum(point, bad)
        with pytest.raises(LengthMismatch):
            weighted_sum(point, [1.0, 2.0, 3.0])

    def test_clamping_only_on_report(self):
        point = RatePoint((-0.2, 0.5), 0.3)
        assert point.per_user[0] == -0.2
        assert point.clamped().per_user == (0.0, 0.5)


class TestMacSideObjective:
    def test_zero_plan(self):
        ch = rand_instance(rng, K=2)
        order = EncodingOrder([2, 1])
        plan = CovariancePlan.zero(MAC, ch)
        eve = [np.zeros((nk, ch.n_e)) for nk in
               (ch.n_k[u] for u in order.zero_based)]
        w = WeightVector([0.4, 0.6])
        assert mac_side_objective(ch, order, plan, eve, w) == 0.0

    @staticmethod
    def uplink_case():
        ch = sample_channel_set(11, 2, 3, [1, 2], 2, 1.0)
        order = EncodingOrder([2, 1])
        plan = CovariancePlan(MAC, [random_psd(nk, np.random.default_rng(nk), trace=0.3)
                                    for nk in ch.n_k])
        ctx = build_context_from_mac(ch, order, plan, mac_ladder=FOLLOWING)
        return ch, order, plan, effective_eve_channels(ctx)

    def test_raw_weights_are_normalized(self):
        ch, order, plan, eve = self.uplink_case()
        raw = mac_side_objective(ch, order, plan, eve, [1, 3])
        assert raw == mac_side_objective(ch, order, plan, eve, WeightVector([1, 3]))
        assert raw == mac_side_objective(ch, order, plan, eve, [0.25, 0.75])

    def test_raw_weights_are_checked(self):
        ch, order, plan, eve = self.uplink_case()
        for bad in ([float("nan"), 1.0], [-1.0, 1.0]):
            with pytest.raises(ValueError):
                mac_side_objective(ch, order, plan, eve, bad)
        for bad in ([1.0], [1.0, 1.0, 1.0], WeightVector([1.0, 1.0, 1.0])):
            with pytest.raises(LengthMismatch, match="weights for 2 users"):
                mac_side_objective(ch, order, plan, eve, bad)

    def test_effective_eavesdroppers_are_checked(self):
        ch, order, plan, eve = self.uplink_case()
        w = WeightVector([0.4, 0.6])
        with pytest.raises(DimensionMismatch, match="1 effective eavesdropper channels"):
            mac_side_objective(ch, order, plan, eve[:1], w)
        with pytest.raises(DimensionMismatch, match="position 2: effective eavesdropper"):
            mac_side_objective(ch, order, plan, [eve[0], np.zeros((3, 2))], w)

    def test_single_user_reduction(self):
        ch = rand_instance(rng, K=1, n_t=2, n_e=1)
        s = random_psd(ch.n_k[0], rng, trace=0.8)
        plan = CovariancePlan(MAC, [s])
        context = build_context_from_mac(ch, EncodingOrder([1]), plan,
                                         mac_ladder=FOLLOWING)
        eve = effective_eve_channels(context)
        h = ch.user_channels[0]
        ref = (logdet_hpd(np.eye(2) + herm(h) @ s @ h)
               - logdet_hpd(np.eye(1) + herm(eve[0]) @ s @ eve[0]))
        got = mac_side_objective(ch, EncodingOrder([1]), plan, eve,
                                 WeightVector([1.0]))
        assert got == pytest.approx(ref, abs=1e-10)

    def test_matches_downlink_weighted_secrecy_sum(self):
        # uplink-side objective with effective eavesdroppers == downlink WSR
        for _ in range(15):
            ch = rand_instance(rng, square=False)
            order = EncodingOrder(rng.permutation(ch.num_users) + 1)
            mats = [random_psd(nk, rng, trace=0.5 * ch.power / ch.num_users)
                    for nk in ch.n_k]
            plan = CovariancePlan(MAC, mats)
            w = WeightVector(rng.random(ch.num_users) + 0.05)
            # equal weights tie every position, so the uplink objective
            # skips each zero weight step
            for weights in (w, WeightVector(np.ones(ch.num_users))):
                obj, wsr = wsr_equivalence_pair(ch, order, plan, weights)
                assert obj == pytest.approx(wsr, abs=1e-8)


class TestEavesdropperDominance:
    def test_brackets_nonnegative_when_rates_nonnegative(self):
        # with every per-user secrecy rate >= 0, each positional bracket of
        # the uplink objective is nonnegative as well
        checked = 0
        trials = 0
        while checked < 25 and trials < 400:
            trials += 1
            K = int(rng.integers(1, 4))
            ch0 = rand_instance(rng, K=K, n_e=1, square=True)
            ch = ChannelSet(ch0.user_channels, 0.4 * ch0.eavesdropper, ch0.power)
            order = EncodingOrder(rng.permutation(K) + 1)
            plan = rand_bc_plan(rng, ch, budget_frac=0.6)
            rates = dpc_secrecy_rates(ch, order, plan).per_user
            if min(rates) < 0.0:
                continue
            checked += 1
            mac_plan = bc_to_mac(ch, order, plan, mac_ladder=FOLLOWING)
            ctx = build_context_from_bc(ch, order, plan, mac_ladder=FOLLOWING)
            eve = effective_eve_channels(ctx)
            idx = order.zero_based
            H = [ch.user_channels[u] for u in idx]
            S = [mac_plan.matrices[u] for u in idx]
            for k in range(K):
                a = np.eye(ch.n_t, dtype=complex)
                b = np.eye(ch.n_e, dtype=complex)
                for j in range(k, K):
                    a = a + herm(H[j]) @ S[j] @ H[j]
                    b = b + herm(eve[j]) @ S[j] @ eve[j]
                assert logdet_hpd(a) - logdet_hpd(b) >= -1e-8
        assert checked == 25, f"only {checked} qualifying instances in {trials} draws"
