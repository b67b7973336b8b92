import collections
import dataclasses

import numpy as np
import pytest

from conftest import herm, rand_bc_plan, rand_complex, rand_instance
from oracles import duality_map, ensemble_row
from securebc import (BC, MAC, ChannelSet, CovariancePlan, DimensionMismatch,
                      EncodingOrder, WeightVector, bc_rates, bc_to_mac,
                      build_context_from_bc, build_context_from_mac,
                      duality, duality_property_ensemble,
                      effective_eve_channels, mac_rates, mac_to_bc,
                      sample_channel_set)
from securebc.cli import cli_main
from securebc.duality import FOLLOWING, PRECEDING
from securebc.linalg import random_psd
from securebc.rates import random_plan

rng = np.random.default_rng(17)


def _rand_mac_plan(ch, budget_frac=0.8):
    mats = [random_psd(nk, rng) for nk in ch.n_k]
    total = sum(float(np.trace(m).real) for m in mats)
    scale = budget_frac * ch.power * (0.3 + 0.7 * rng.random()) / total
    return CovariancePlan(MAC, [m * scale for m in mats])


class TestSingleUser:
    def test_scalar_identity_mapping(self):
        ch = ChannelSet([np.array([[1.0]])], np.array([[0.7]]), 5.0)
        order = EncodingOrder([1])
        p = 1.3
        mac = bc_to_mac(ch, order, CovariancePlan(BC, [[[p]]]))
        assert mac.matrices[0][0, 0] == pytest.approx(p, abs=1e-12)
        back = mac_to_bc(ch, order, mac)
        assert back.matrices[0][0, 0] == pytest.approx(p, abs=1e-12)

    def test_scalar_ladders_are_identity(self):
        ch = ChannelSet([np.array([[1.0]])], np.array([[0.7]]), 5.0)
        ctx = build_context_from_bc(ch, EncodingOrder([1]),
                                    CovariancePlan(BC, [[[0.9]]]))
        assert ctx.c_list[0] == pytest.approx(np.ones((1, 1)))
        assert ctx.d_list[0] == pytest.approx(np.ones((1, 1)))
        # G~ = F E^H G^H up to the SVD phase; magnitude is pinned
        assert abs(ctx.effective_eve[0][0, 0]) == pytest.approx(0.7, abs=1e-12)

    def test_square_full_rank_preserves_eve_norm(self):
        ch = rand_instance(rng, K=1, n_t=3, n_e=2, square=True)
        plan = rand_bc_plan(rng, ch)
        ctx = build_context_from_bc(ch, EncodingOrder([1]), plan)
        # K=1: C = I, D = I, so the effective channel is a rotated G^H
        assert np.linalg.norm(ctx.effective_eve[0]) == pytest.approx(
            np.linalg.norm(ch.eavesdropper), rel=1e-10)


class TestLadders:
    def test_edge_ladders_are_identity(self):
        ch = rand_instance(rng, K=3, square=True)
        order = EncodingOrder([2, 3, 1])
        plan = rand_bc_plan(rng, ch)
        pre = build_context_from_bc(ch, order, plan, mac_ladder=PRECEDING)
        assert np.allclose(pre.d_list[0], np.eye(ch.n_t), atol=1e-12)
        last_c = pre.c_list[-1]
        assert np.allclose(last_c, np.eye(last_c.shape[0]), atol=1e-12)
        fol = build_context_from_bc(ch, order, plan, mac_ladder=FOLLOWING)
        assert np.allclose(fol.d_list[-1], np.eye(ch.n_t), atol=1e-12)

    def test_ladder_eigenvalue_floor(self):
        for _ in range(10):
            ch = rand_instance(rng, square=False)
            order = EncodingOrder(rng.permutation(ch.num_users) + 1)
            plan = rand_bc_plan(rng, ch)
            ctx = build_context_from_bc(ch, order, plan)
            for c in ctx.c_list:
                assert np.linalg.eigvalsh(c)[0] >= 1 - 1e-10
            for d in ctx.d_list:
                assert np.linalg.eigvalsh(d)[0] >= 1 - 1e-10

    @pytest.mark.parametrize("ladder", [PRECEDING, FOLLOWING])
    def test_edge_checks_reject_non_identity(self, ladder):
        ch = sample_channel_set(3, 3, 2, [2, 1, 2], 1, 1.0)
        ctx = build_context_from_bc(ch, EncodingOrder([2, 3, 1]), rand_bc_plan(rng, ch),
                                    mac_ladder=ladder)
        edge = 0 if ladder == PRECEDING else -1
        for field, at in (("c_list", -1), ("d_list", edge)):
            mats = list(getattr(ctx, field))
            n = mats[at].shape[0]
            mats[at] = np.eye(n, dtype=complex)
            dataclasses.replace(ctx, **{field: tuple(mats)})  # exact I passes
            off = np.eye(n, dtype=complex)
            off[0, 1] = off[1, 0] = 1e-8
            mats[at] = off
            with pytest.raises(ValueError, match="ladder inconsistency"):
                dataclasses.replace(ctx, **{field: tuple(mats)})

    def test_effective_eve_shapes(self):
        ch = sample_channel_set(5, 3, 2, [1, 3, 2], 2, 1.0)
        order = EncodingOrder([3, 1, 2])
        plan = rand_bc_plan(rng, ch)
        ctx = build_context_from_bc(ch, order, plan)
        for k, u in enumerate(order.zero_based):
            assert ctx.effective_eve[k].shape == (ch.n_k[u], ch.n_e)

    def test_zero_eavesdropper_gives_zero_effective_channels(self):
        ch = rand_instance(rng, K=2).with_zero_eavesdropper()
        plan = rand_bc_plan(rng, ch)
        ctx = build_context_from_bc(ch, EncodingOrder([1, 2]), plan)
        for ge in effective_eve_channels(ctx):
            assert np.all(ge == 0)

    def test_wrong_side_rejected(self):
        ch = rand_instance(rng, K=1)
        plan = CovariancePlan.zero(MAC, ch)
        with pytest.raises(DimensionMismatch):
            bc_to_mac(ch, EncodingOrder([1]), plan)

    def test_unknown_ladder_rejected(self):
        ch = rand_instance(rng, K=1)
        plan = CovariancePlan.zero(BC, ch)
        with pytest.raises(ValueError, match="unknown mac_ladder"):
            bc_to_mac(ch, EncodingOrder([1]), plan, mac_ladder="sideways")
        with pytest.raises(ValueError, match="unknown mac_ladder"):
            mac_to_bc(ch, EncodingOrder([1]), CovariancePlan.zero(MAC, ch), mac_ladder="sideways")
        ctx = build_context_from_bc(ch, EncodingOrder([1]), plan)
        with pytest.raises(ValueError, match="unknown mac_ladder"):
            dataclasses.replace(ctx, mac_ladder="sideways")


class TestTransforms:
    def test_zero_plan_maps_to_zero_plan(self):
        ch = rand_instance(rng, K=2, square=False)
        order = EncodingOrder([2, 1])
        mac = bc_to_mac(ch, order, CovariancePlan.zero(BC, ch))
        assert mac.total_trace == pytest.approx(0.0, abs=1e-15)
        back = mac_to_bc(ch, order, CovariancePlan.zero(MAC, ch))
        assert back.total_trace == pytest.approx(0.0, abs=1e-15)

    def test_rate_and_trace_preservation_downlink_generated(self):
        # users with at least n_t antennas: any downlink plan is waste-free
        for _ in range(20):
            n_t = int(rng.integers(1, 4))
            K = int(rng.integers(1, 4))
            n_k = [int(rng.integers(n_t, 4)) for _ in range(K)]
            ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t, n_k,
                                    int(rng.integers(1, 3)), 1.5)
            order = EncodingOrder(rng.permutation(K) + 1)
            plan = rand_bc_plan(rng, ch)
            mac = bc_to_mac(ch, order, plan)
            r_bc = np.array(bc_rates(ch, order, plan).per_user)
            r_mac = np.array(mac_rates(ch, order, mac).per_user)
            assert np.max(np.abs(r_bc - r_mac)) < 1e-8
            assert abs(plan.total_trace - mac.total_trace) < 1e-8

    def test_rate_and_trace_preservation_uplink_generated(self):
        # users with at most n_t antennas: any uplink plan is waste-free
        for _ in range(20):
            n_t = int(rng.integers(1, 4))
            K = int(rng.integers(1, 4))
            n_k = [int(rng.integers(1, n_t + 1)) for _ in range(K)]
            ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t, n_k,
                                    int(rng.integers(1, 3)), 2.0)
            order = EncodingOrder(rng.permutation(K) + 1)
            plan = _rand_mac_plan(ch)
            bc = mac_to_bc(ch, order, plan)
            r_mac = np.array(mac_rates(ch, order, plan).per_user)
            r_bc = np.array(bc_rates(ch, order, bc).per_user)
            assert np.max(np.abs(r_bc - r_mac)) < 1e-8
            assert abs(plan.total_trace - bc.total_trace) < 1e-8

    def test_round_trip_preserves_rates_even_for_wasteful_plans(self):
        # rate preservation needs no waste-freeness; only power equality does
        for _ in range(15):
            ch = rand_instance(rng, square=False)
            order = EncodingOrder(rng.permutation(ch.num_users) + 1)
            plan = rand_bc_plan(rng, ch)
            mac = bc_to_mac(ch, order, plan)
            back = mac_to_bc(ch, order, mac)
            r0 = np.array(bc_rates(ch, order, plan).per_user)
            r1 = np.array(mac_rates(ch, order, mac).per_user)
            r2 = np.array(bc_rates(ch, order, back).per_user)
            assert np.max(np.abs(r0 - r1)) < 1e-8
            assert np.max(np.abs(r0 - r2)) < 1e-8
            # a wasteful downlink plan can only lose power in the transform
            assert mac.total_trace <= plan.total_trace + 1e-8

    def test_round_trip_is_identity_on_waste_free_plans(self):
        for _ in range(10):
            n_t = int(rng.integers(1, 4))
            K = int(rng.integers(1, 3))
            n_k = [int(rng.integers(1, n_t + 1)) for _ in range(K)]
            ch = sample_channel_set(int(rng.integers(2 ** 31)), K, n_t, n_k, 1, 1.0)
            order = EncodingOrder(rng.permutation(K) + 1)
            plan = _rand_mac_plan(ch)
            back = bc_to_mac(ch, order, mac_to_bc(ch, order, plan))
            for a, b in zip(plan.matrices, back.matrices):
                assert np.max(np.abs(a - b)) < 1e-9

    def test_mapped_plans_skip_the_psd_check(self, monkeypatch):
        # a mapped plan is project_psd output, PSD by construction, and is
        # built without the eigenvalue check; a user's plan keeps the check
        import securebc.rates as rates_mod
        checked = []
        real = rates_mod.min_eigenvalue
        ch = sample_channel_set(5, 2, 3, [2, 1], 2, 1.0)
        order = EncodingOrder([2, 1])
        plan = rand_bc_plan(rng, ch)
        monkeypatch.setattr(rates_mod, "min_eigenvalue",
                            lambda m: checked.append(m) or real(m))
        mac = bc_to_mac(ch, order, plan)
        back = mac_to_bc(ch, order, mac)
        assert not checked
        for m in mac.matrices + back.matrices:
            assert np.linalg.eigvalsh(m)[0] >= -1e-12 * max(1.0, np.trace(m).real)
        with pytest.raises(ValueError, match="not PSD"):
            CovariancePlan(MAC, [np.diag([1.0, -0.5]), np.eye(1)])
        assert len(checked) == 1


def _close(got, want, rel):
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


class TestAgainstOracle:
    def test_sweep_matches_textbook_factors(self):
        # the geometric-mean factors against two eigh roots and an SVD per
        # position, on both sides and both ladders, with K 1-3 and n_t, n_k 1-4
        gen = np.random.default_rng(29)
        positions = 0
        while positions < 200:
            K, n_t = int(gen.integers(1, 4)), int(gen.integers(1, 5))
            n_k = [int(gen.integers(1, 5)) for _ in range(K)]
            ch = sample_channel_set(int(gen.integers(2 ** 31)), K, n_t, n_k,
                                    int(gen.integers(1, 3)), 1.5)
            order = EncodingOrder(gen.permutation(K) + 1)
            side = BC if gen.random() < 0.5 else MAC
            ladder = PRECEDING if gen.random() < 0.5 else FOLLOWING
            plan = random_plan(side, [n_t] * K if side == BC else n_k, ch.power, gen)
            ctx, mapped = duality._sweep(ch, order, plan, side, ladder)
            pos = order.zero_based
            want, eve = duality_map([ch.user_channels[u] for u in pos], ch.eavesdropper,
                                    [plan.matrices[u] for u in pos], side == BC,
                                    ladder == PRECEDING)
            for k, u in enumerate(pos):
                assert _close(mapped.matrices[u], want[k], 1e-10), (n_t, n_k, side, ladder)
                assert _close(ctx.effective_eve[k], eve[k], 1e-10), (n_t, n_k, side, ladder)
            positions += K

    def test_rank_deficient_channel_takes_the_svd_route(self, monkeypatch):
        # a 2 x 3 channel of rank 1 makes A = H D^-1 H^H singular, so the
        # geometric mean is undefined and the SVD definition maps the
        # position; per-user rates are still preserved, both ways
        gen = np.random.default_rng(4)
        low = rand_complex(gen, 2, 1) @ rand_complex(gen, 1, 3)
        ch = ChannelSet([low, rand_complex(gen, 2, 3)], rand_complex(gen, 1, 3), 2.0)
        shapes = []
        real = duality.svd_square_diag
        monkeypatch.setattr(duality, "svd_square_diag", lambda m: shapes.append(m.shape) or real(m))
        for order in (EncodingOrder([1, 2]), EncodingOrder([2, 1])):
            plan = rand_bc_plan(gen, ch)
            mac = bc_to_mac(ch, order, plan)
            back = mac_to_bc(ch, order, mac)
            r_bc = np.array(bc_rates(ch, order, plan).per_user)
            assert np.max(np.abs(r_bc - mac_rates(ch, order, mac).per_user)) < 1e-10
            assert np.max(np.abs(r_bc - bc_rates(ch, order, back).per_user)) < 1e-10
        assert shapes == [(3, 2)] * 4  # the rank-one user's position, each time


class TestEquivalenceContext:
    def test_following_ladder_context_from_mac(self):
        ch = rand_instance(rng, K=3, square=False)
        order = EncodingOrder(rng.permutation(3) + 1)
        plan = _rand_mac_plan(ch)
        ctx = build_context_from_mac(ch, order, plan, mac_ladder=FOLLOWING)
        assert ctx.mac_ladder == FOLLOWING
        assert np.allclose(ctx.d_list[-1], np.eye(ch.n_t), atol=1e-12)

    def test_effective_eve_identity_per_position(self):
        # G~_k^H S_k G~_k == G Q_k G^H, the algebraic core of the
        # uplink-objective equivalence, holds position by position
        for ladder in (PRECEDING, FOLLOWING):
            ch = rand_instance(rng, K=2, square=False)
            order = EncodingOrder(rng.permutation(2) + 1)
            plan = _rand_mac_plan(ch)
            bc = mac_to_bc(ch, order, plan, mac_ladder=ladder)
            ctx = build_context_from_mac(ch, order, plan, mac_ladder=ladder)
            g = ch.eavesdropper
            for k, u in enumerate(order.zero_based):
                lhs = herm(ctx.effective_eve[k]) @ plan.matrices[u] @ ctx.effective_eve[k]
                rhs = g @ bc.matrices[u] @ herm(g)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestEnsemble:
    def test_errors_stay_at_round_off(self):
        # about 6e-15 today; the closed forms in linalg must not drift
        # toward the 1e-8 acceptance tolerance unnoticed
        report = duality_property_ensemble(num_instances=200, seed=0)
        assert report["passed"], report
        keys = ("max_rate_error", "max_trace_error", "max_roundtrip_error",
                "max_wsr_equivalence_error")
        for key in keys:
            assert report[key] <= 1e-12, (key, report[key])
        # the summary over many instances, bit for bit as the ensemble gave it
        # when it still built each instance through the public constructors
        # (numpy 2.4, OpenBLAS, x86-64); the oracle test below checks each instance
        assert [report[k].hex() for k in keys + ("min_ladder_eigenvalue",)] == [
            "0x1.4000000000000p-49", "0x1.3000000000000p-46", "0x1.3000000000000p-48",
            "0x1.0000000000000p-49", "0x1.ffffffffffff6p-1"]

    def test_nan_rate_fails(self, monkeypatch, capsys):
        real = duality.mac_rates_arrays

        def nan_rates(*args):
            return np.full(len(real(*args)), np.nan)

        monkeypatch.setattr(duality, "mac_rates_arrays", nan_rates)
        report = duality_property_ensemble(num_instances=3, seed=0)
        assert not report["passed"]
        assert report["failures"] >= 1
        assert np.isnan(report["max_rate_error"])
        assert cli_main(["duality-check", "--seeds", "1"]) == 2
        assert "duality-check FAIL" in capsys.readouterr().out

    def test_lapack_calls(self, monkeypatch):
        # a machine-free record of the geometric-mean map: the square-root
        # and SVD route made 4,453 such calls here, 681 of them SVDs
        counts = collections.Counter()
        for name in ("eigh", "eigvalsh", "svd", "cholesky", "inv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, _name=name, **kw:
                                counts.update([_name]) or _real(*a, **kw))
        duality_property_ensemble(num_instances=200, seed=0)
        assert counts["svd"] == 0, counts
        assert sum(counts.values()) <= 2400, counts

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-8, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol, monkeypatch):
        # a NaN, zero or negative tolerance fails every correct instance and
        # an infinite one passes any finite error; refused before any work
        monkeypatch.setattr(duality, "_gaussian_channels", None)
        with pytest.raises(ValueError, match="finite and positive"):
            duality_property_ensemble(num_instances=5, seed=1, tol=tol)

    @pytest.mark.parametrize("count", [0, -5])
    def test_no_instances_is_refused(self, count):
        # an empty ensemble checks nothing, so it must not report a pass
        with pytest.raises(ValueError, match="at least 1"):
            duality_property_ensemble(num_instances=count, seed=1)

    @pytest.mark.parametrize("count", [True, 2.5, 2.0, "3"], ids=repr)
    def test_non_integer_count_is_refused(self, count, monkeypatch):
        # a float or str raised TypeError and True ran one instance and
        # reported "instances": True; refused before any work
        monkeypatch.setattr(duality, "_gaussian_channels", None)
        with pytest.raises(ValueError, match="an integer of at least 1"):
            duality_property_ensemble(num_instances=count, seed=1)

    def test_numpy_integer_count(self):
        report = duality_property_ensemble(num_instances=np.int64(2), seed=1)
        assert type(report["instances"]) is int
        assert report == duality_property_ensemble(num_instances=2, seed=1)

    def test_relabels_once_per_instance(self, monkeypatch):
        # a machine-free record of the plain-array ensemble: each instance is
        # relabelled by its drawn permutation alone, with no channel set,
        # order, weight vector or plan built, no plan check or context, and
        # min_eigenvalue only for the 2K ladder floors (project_psd's own aside)
        import securebc.rates as rates_mod
        calls, users = collections.Counter(), []

        def counted(name, real):
            return lambda *a, **kw: calls.update([name]) or real(*a, **kw)

        for cls in (ChannelSet, EncodingOrder, WeightVector):
            monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
        monkeypatch.setattr(CovariancePlan, "_set", counted("CovariancePlan", CovariancePlan._set))
        monkeypatch.setattr(rates_mod, "positions", counted("positions", rates_mod.positions))
        for mod in (duality, rates_mod):
            monkeypatch.setattr(mod, "by_position", counted("by_position", mod.by_position))
            monkeypatch.setattr(mod, "min_eigenvalue",
                                counted("min_eigenvalue", mod.min_eigenvalue))
        monkeypatch.setattr(CovariancePlan, "validate_for",
                            counted("validate_for", CovariancePlan.validate_for))
        monkeypatch.setattr(duality.DualityContext, "__post_init__",
                            counted("DualityContext", duality.DualityContext.__post_init__))
        draw = duality._gaussian_channels
        monkeypatch.setattr(duality, "_gaussian_channels",
                            lambda *a: users.append(len(a[2])) or draw(*a))
        duality_property_ensemble(num_instances=50, seed=0)
        assert len(users) == 50
        assert calls == {"min_eigenvalue": 2 * sum(users)}, calls

    def test_reports_equal_the_public_pipeline(self, monkeypatch):
        # each instance's five numbers, bit for bit, against the same draws
        # run plan by plan through the public maps and rates; seeds 0-299
        # draw both sides at K = 1-3, and seed 169 maps three positions by SVD
        svd, seed_now = collections.Counter(), []
        real = duality.svd_square_diag
        monkeypatch.setattr(duality, "svd_square_diag",
                            lambda m: svd.update(seed_now) or real(m))
        keys = ("max_rate_error", "max_trace_error", "max_roundtrip_error",
                "max_wsr_equivalence_error", "min_ladder_eigenvalue")
        drawn = set()
        for seed in range(300):
            seed_now[:] = [seed]
            report = duality_property_ensemble(num_instances=1, seed=seed)
            seed_now[:] = []
            K, mac_first, row = ensemble_row(seed)
            assert [report[k].hex() for k in keys] == [x.hex() for x in row], seed
            drawn.add((K, mac_first))
        assert drawn == {(K, side) for K in (1, 2, 3) for side in (False, True)}
        assert svd == {169: 3}, svd

    def test_property_ensemble_passes(self):
        report = duality_property_ensemble(num_instances=60, seed=123, tol=1e-8)
        assert report["passed"], report
        assert report["max_rate_error"] < 1e-8
        assert report["max_trace_error"] < 1e-8
        assert report["max_roundtrip_error"] < 1e-8
        assert report["max_wsr_equivalence_error"] < 1e-8
        assert report["min_ladder_eigenvalue"] >= 1 - 1e-10
