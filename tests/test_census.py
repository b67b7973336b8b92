"""The census slice: 40 seeded solves from K = 1 to 6 and n_t = 2 to 8, at
-30 to +70 dB (see census.py), each with every warning an error.  A solve
must not raise, its rates must be finite and its plan within the budget."""

import warnings

import numpy as np
import pytest

from census import cases, solve

SLICE = list(cases(7, 40))


@pytest.mark.parametrize("s, ch, w", SLICE, ids=[
    f"K{ch.num_users}-nt{ch.n_t}-P{ch.power:g}-{s}" for s, ch, _ in SLICE])
def test_census_slice(s, ch, w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(ch, w)
    assert np.isfinite(report.rates.per_user).all() and np.isfinite(report.rates.weighted_sum)
    report.plan.validate_for(ch, check_power=True)
