"""The census slice: 40 seeded solves from K = 1 to 6 and n_t = 2 to 8, at
-30 to +70 dB (see census.py), each with every warning an error.  A solve
must not raise, its rates must be finite and its plan within the budget."""

import warnings

import numpy as np
import pytest

from census import cases, main, solve

SLICE = list(cases(7, 40))


@pytest.mark.parametrize("s, ch, w", SLICE, ids=[
    f"K{ch.num_users}-nt{ch.n_t}-P{ch.power:g}-{s}" for s, ch, _ in SLICE])
def test_census_slice(s, ch, w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(ch, w)
    assert np.isfinite(report.rates.per_user).all() and np.isfinite(report.rates.weighted_sum)
    report.plan.validate_for(ch, check_power=True)


OLD = """seed,K,n_t,n_k,n_e,P,label,wsr,tr_over_P,sweeps,evals
11,2,4,1 2,1,0.001,converged,0.5,1.0,30,5
12,3,2,1 1 1,2,1.0,stalled,1.25,0.8,200,20
13,1,3,2,1,0.001,InnerNotImproved,nan,nan,0,0
"""
NEW = """seed,K,n_t,n_k,n_e,P,label,wsr,tr_over_P,sweeps,evals
11,2,4,1 2,1,0.001,converged,0.5000001,1.0,20,4
12,3,2,1 1 1,2,1.0,converged,1.5,1.0,40,8
13,1,3,2,1,0.001,InnerNotImproved,nan,nan,0,0
"""


def test_diff_of_two_censuses(tmp_path, capsys):
    # totals by power, the one label flip, and only the weighted sum that
    # moved by more than 1e-6 (1 + |WSR|): row 0's 1e-7 does not count
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(OLD)
    new.write_text(NEW)
    main(["--diff", str(old), str(new)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:4]] == [
        ["0.001", "30", "->", "20", "5", "->", "4"],
        ["1.0", "200", "->", "40", "20", "->", "8"],
        ["total", "230", "->", "60", "25", "->", "12"]]
    assert lines[4:] == [
        "label flips: 1",
        "  row 1 (seed 12, K 3, n_t 2, P 1.0): stalled -> converged",
        "weighted sums moved by more than 1e-06 (1 + |WSR|): 1",
        "  row 1 (seed 12, K 3, n_t 2, P 1.0): 1.25 -> 1.5 (+0.25)"]
