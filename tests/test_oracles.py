"""solve_wsr against the exact single-user secrecy capacity (tests/oracles.py)."""

import numpy as np
import pytest

from oracles import misome_capacity
from securebc import EncodingOrder, sample_channel_set, solve_wsr
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
