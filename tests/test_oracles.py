"""solve_wsr against the exact single-user secrecy capacity and the
predicted high-SNR slope (tests/oracles.py)."""

from functools import partial

import numpy as np
import pytest

from oracles import misome_capacity, secure_dof
from securebc import (ChannelSet, EncodingOrder, WeightVector, optimal_order,
                      sample_channel_set, solve_wsr)
from securebc.rates import BUDGET_SLACK
from securebc.solver import CONVERGED

HIGH_SNR = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: converged answers at high SNR fall short of capacity")


@pytest.mark.parametrize("P", [1e-2, 1.0, 1e2, pytest.param(1e4, marks=HIGH_SNR),
                               pytest.param(1e7, marks=HIGH_SNR)])
def test_single_antenna_user_reaches_misome_capacity(P):
    # K = 1, n_k = 1: every converged answer lies within 1e-6 (1 + C) of the
    # capacity C(P), and no answer beats the capacity at the largest power a
    # plan may use
    rng = np.random.default_rng(23)
    short, over = [], []
    for _ in range(40):
        n_t, n_e, seed = rng.integers(2, 5), rng.integers(1, 5), rng.integers(2**31)
        ch = sample_channel_set(int(seed), 1, int(n_t), [1], int(n_e), P)
        report = solve_wsr(ch, [1.0], EncodingOrder([1]))
        h, G = ch.user_channels[0], ch.eavesdropper
        cap = misome_capacity(h, G, P)
        wsr = report.rates.weighted_sum
        if report.termination == CONVERGED and wsr < cap - 1e-6 * (1.0 + cap):
            short.append((int(seed), cap - wsr))
        if wsr > misome_capacity(h, G, (1.0 + BUDGET_SLACK) * P) + 1e-12:
            over.append((int(seed), wsr - cap))
    assert short == [] and over == [], (short, over)


def test_misome_capacity_closed_cases():
    # no eavesdropper: the point-to-point capacity log(1 + P |h|^2); one
    # transmit antenna: log((1 + P |h|^2) / (1 + P |g|^2)), floored at zero
    rng = np.random.default_rng(5)
    h = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    assert np.isclose(misome_capacity(h, np.zeros((2, 3)), 2.0),
                      np.log1p(2.0 * np.vdot(h, h).real), rtol=1e-13)
    for g in (0.5, 2.0):
        assert np.isclose(misome_capacity([[1.0j]], [[g]], 3.0),
                          max(0.0, np.log((1.0 + 3.0) / (1.0 + 3.0 * g * g))), atol=1e-15)


def test_secure_dof_is_the_misome_slope():
    # K = 1, n_k = 1 on the MISOME grid: the exact capacity's slope in ln P
    # from 1e6 to 1e7 is 1 if n_t > n_e, else 0
    rng = np.random.default_rng(23)
    for _ in range(40):
        n_t, n_e, seed = rng.integers(2, 5), rng.integers(1, 5), rng.integers(2**31)
        ch = sample_channel_set(int(seed), 1, int(n_t), [1], int(n_e), 1.0)
        h, G = ch.user_channels[0], ch.eavesdropper
        slope = (misome_capacity(h, G, 1e7) - misome_capacity(h, G, 1e6)) / np.log(10)
        assert abs(slope - secure_dof([1.0], [1], int(n_t), int(n_e))) <= 1e-5, (seed, slope)


# (K, n_t, n_k, n_e); the last three are census-wide shapes, the first three
# with K >= 3 drawn from default_rng(11) as K = integers(1, 7), n_t =
# integers(2, 9), n_k = integers(1, 3, size=K) and n_e = integers(1, 5)
SLOPE_SHAPES = [(2, 4, [2, 2], 2), (2, 4, [1, 1], 1), (3, 4, [1, 1, 1], 2), (2, 3, [2, 2], 1),
                (2, 2, [1, 1], 1), (3, 4, [2, 1, 1], 1), (2, 4, [1, 2], 3), (3, 6, [2, 2, 2], 2),
                (4, 6, [2, 1, 1, 1], 2), (6, 5, [1, 2, 1, 2, 2, 2], 3),
                (6, 4, [1, 2, 1, 2, 2, 1], 4)]


def _slope_cases():
    """3 instances per shape: (K, n_t, n_k, n_e, seed, weights)."""
    rng = np.random.default_rng(5)
    for K, n_t, n_k, n_e in SLOPE_SHAPES:
        for _ in range(3):
            yield K, n_t, n_k, n_e, int(rng.integers(2**31)), WeightVector(rng.random(K) + 0.05)


def _slope(ch_at, w) -> float:
    """(WSR(1e7) - WSR(1e6)) / ln 10 under the weight-sorted order, with
    ``ch_at(P)`` the instance at budget P."""
    wsr = [solve_wsr(ch_at(P), w, optimal_order(w)).rates.weighted_sum for P in (1e6, 1e7)]
    return (wsr[1] - wsr[0]) / np.log(10)


def test_secure_dof_matches_rescaled_solves():
    # the formula beyond K = 1, on one instance per shape: the budget-P
    # problem is posed as its equal with channels scaled by sqrt(P) and unit
    # budget, whose price lies far above the bottom price that cuts today's
    # solves at P = 1e6 and 1e7 short (ROADMAP item 1); the 11 instances
    # here matched within 2.7e-4, and all 24 of the first eight shapes
    # within 5.4e-4
    def rescaled(seed, K, n_t, n_k, n_e):
        ch = sample_channel_set(seed, K, n_t, n_k, n_e, 1.0)
        return lambda P: ChannelSet([h * np.sqrt(P) for h in ch.user_channels],
                                    ch.eavesdropper * np.sqrt(P), 1.0)

    off = []
    for K, n_t, n_k, n_e, seed, w in list(_slope_cases())[::3]:
        slope = _slope(rescaled(seed, K, n_t, n_k, n_e), w)
        d = secure_dof(w.weights, n_k, n_t, n_e)
        if abs(slope - d) > 0.01:
            off.append((seed, round(slope, 3), round(d, 3)))
    assert off == [], off


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: at P = 1e7 the solve stops at the "
                                       "bottom price, short of the budget")
def test_high_snr_slope_matches_secure_dof():
    # 3 instances per shape under the weight-sorted order: the weighted sum
    # grows from P = 1e6 to 1e7 by secure_dof times ln 10, within 0.01; the
    # same instances rescaled to a unit budget meet it (see above)
    off = []
    for K, n_t, n_k, n_e, seed, w in _slope_cases():
        slope = _slope(partial(sample_channel_set, seed, K, n_t, n_k, n_e), w)
        d = secure_dof(w.weights, n_k, n_t, n_e)
        if abs(slope - d) > 0.01:
            off.append((seed, round(slope, 3), round(d, 3)))
    assert off == [], off
