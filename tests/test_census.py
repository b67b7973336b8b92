"""The census slice: 40 seeded solves from K = 1 to 6 and n_t = 2 to 8, at
-30 to +70 dB (see census.py), each with every warning an error.  A solve
must not raise, its rates must be finite and its plan within the budget, and
where every user has one antenna its answer must lie in its sandwich."""

import csv
import warnings

import numpy as np
import pytest

from census import cases, main, outside, sandwich, solve
from oracles import secure_dof
from securebc.rates import within_budget

SLICE = list(cases(7, 40))


@pytest.mark.parametrize("s, ch, w", SLICE, ids=[
    f"K{ch.num_users}-nt{ch.n_t}-P{ch.power:g}-{s}" for s, ch, _ in SLICE])
def test_census_slice(s, ch, w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(ch, w)
    assert report.termination == "converged"
    assert np.isfinite(report.rates.per_user).all() and np.isfinite(report.rates.weighted_sum)
    assert within_budget(report.plan.total_trace, ch.power)
    bounds = sandwich(ch, w)
    if bounds is not None:
        assert outside(report.termination, report.rates.weighted_sum, *bounds) is None


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


ORACLE = """seed,K,n_t,n_k,n_e,P,label,wsr,tr_over_P,sweeps,evals,floor,ceiling
21,1,4,1,2,1.0,converged,0.7,1.0,10,4,0.7,0.7000007
22,2,4,1 1,1,1e7,converged,9.5,0.1,3,1,10.0,16.0
23,2,4,1 1,1,1e7,stalled,9.5,0.1,3,1,10.0,16.0
24,2,3,1 1,2,100.0,converged,3.9999999,1.0,20,6,4.0,5.0
25,2,3,1 1,2,100.0,converged,5.000001,1.0,20,6,4.0,5.0
26,2,3,2 1,2,100.0,converged,1.0,1.0,20,6,,
27,1,3,1,2,1.0,converged,0.5000000000001,1.0,9,4,0.5,0.5
"""


def test_gate_lists_converged_rows_outside_their_sandwich(tmp_path, capsys):
    # row 1 lies 0.5 below its floor and row 4 1e-6 above its ceiling; row 2
    # is as far down but stalled, row 3 only 1e-7 below its floor, row 5 has
    # no sandwich and row 6 is only 1e-13 above its ceiling
    path = tmp_path / "rows.csv"
    path.write_text(ORACLE)
    with pytest.raises(SystemExit) as stop:
        main(["--gate", str(path)])
    assert stop.value.code == 1
    assert capsys.readouterr().out.splitlines() == [
        "rows with a sandwich: 6; converged outside it: 2",
        "  row 1 (seed 22, K 2, n_t 4, P 1e7): 9.5 below floor 10 (-0.5)",
        "  row 4 (seed 25, K 2, n_t 3, P 100.0): 5.000001 above ceiling 5 (+1e-06)"]
    # a file with no row outside passes
    path.write_text("\n".join(ORACLE.splitlines()[:2]) + "\n")
    main(["--gate", str(path)])
    assert capsys.readouterr().out == "rows with a sandwich: 1; converged outside it: 0\n"
    # a file without the floor and ceiling columns, or with no rows, checks
    # nothing, so it fails
    for text in (OLD, ORACLE.splitlines()[0] + "\n"):
        path.write_text(text)
        with pytest.raises(SystemExit) as stop:
            main(["--gate", str(path)])
        assert stop.value.code == 2
        assert "has no rows with the columns floor and ceiling" in capsys.readouterr().err


def test_gate_of_a_written_census(tmp_path, capsys, monkeypatch):
    # the first 6 solves of census 7 hold 3 rows whose users all have one
    # antenna (K = 1 at P = 1e4 and 1e-3, K = 3 at 1e7); the written file
    # carries their floor and ceiling, and none lies outside them.  The 1e7
    # row alone carries dof and price, lambda_final * P of its own solve: it
    # stops at the bottom price, so its price is 1e-6 * 1e7 = 10 against a
    # dof of 1, and the gate lists it.  Each row costs exactly one solve
    import securebc

    solve_wsr, reports = securebc.solve_wsr, []

    def counted(*args, **kwargs):
        reports.append(solve_wsr(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(securebc, "solve_wsr", counted)
    path = tmp_path / "rows.csv"
    main(["--seed", "7", "--count", "6", "--out", str(path)])
    assert len(reports) == 6
    rows = list(csv.DictReader(path.open()))
    assert [bool(r["dof"]) for r in rows] == [bool(r["price"]) for r in rows] == [
        False, False, False, False, True, False]
    _, ch, w = SLICE[4]
    assert float(rows[4]["dof"]) == secure_dof(w.weights, ch.n_k, ch.n_t, ch.n_e)
    assert float(rows[4]["price"]) == reports[4].lambda_final * ch.power
    with pytest.raises(SystemExit) as stop:
        main(["--gate", str(path)])
    assert stop.value.code == 1
    assert capsys.readouterr().out.splitlines() == [
        "rows with a sandwich: 3; converged outside it: 0",
        "rows with a price: 1; converged off their dof by more than 0.01: 1",
        "  row 4 (seed 2132991553, K 3, n_t 5, P 10000000.0): price 10 off dof 1 (+9)"]


PRICED = ORACLE.splitlines()[0] + """,dof,price
31,2,4,1 1,1,1e7,converged,9.5,0.1,3,1,9.0,16.0,1.0,0.995
32,2,4,1 1,1,1e7,converged,9.5,0.1,3,1,9.0,16.0,1.0,10.0
33,2,4,1 1,1,1e7,stalled,9.5,0.1,3,1,9.0,16.0,1.0,10.0
34,2,4,2 2,1,1e7,converged,9.5,0.1,3,1,,,1.5,nan
35,2,4,2 2,1,100.0,converged,3.0,1.0,20,6,,,,
"""


def test_gate_lists_converged_rows_off_their_dof(tmp_path, capsys):
    # row 0 is within 0.01 of its dof, row 1 9 off it, row 2 as far off but
    # stalled, row 3's price is NaN and row 4 has no price; no row leaves
    # its sandwich, so the price rule alone fails the file
    path = tmp_path / "rows.csv"
    path.write_text(PRICED)
    with pytest.raises(SystemExit) as stop:
        main(["--gate", str(path)])
    assert stop.value.code == 1
    assert capsys.readouterr().out.splitlines() == [
        "rows with a sandwich: 3; converged outside it: 0",
        "rows with a price: 4; converged off their dof by more than 0.01: 2",
        "  row 1 (seed 32, K 2, n_t 4, P 1e7): price 10 off dof 1 (+9)",
        "  row 3 (seed 34, K 2, n_t 4, P 1e7): price nan off dof 1.5 (+nan)"]
    # a file without the price column, such as one with the slope column it
    # replaced, gets the sandwich check alone
    path.write_text(PRICED.replace(",price", ",slope"))
    main(["--gate", str(path)])
    assert capsys.readouterr().out == "rows with a sandwich: 3; converged outside it: 0\n"
    # --diff reads a file with the two columns against one without them
    old = tmp_path / "old.csv"
    old.write_text(ORACLE.splitlines()[0] + "\n" + "\n".join(
        ",".join(line.split(",")[:-2]) for line in PRICED.splitlines()[1:]) + "\n")
    path.write_text(PRICED)
    main(["--diff", str(old), str(path)])
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "label flips: 0", "weighted sums moved by more than 1e-06 (1 + |WSR|): 0"]
