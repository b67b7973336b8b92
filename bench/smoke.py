"""Smoke test of the benchmark at a tiny size.

Not collected by the package's test run (the file name does not match
``test_*.py``); run it explicitly from the repository root::

    python3 -m pytest -q bench/smoke.py

It takes about two minutes, most of it in ``orders-k3``, whose two
criterion-2 comparisons are a fixed floor.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ALWAYS_CALLED, END_TO_END  # noqa: E402
from tracing import metric_prefixes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "SECUREBC_WORKERS"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == END_TO_END
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for prefix in metric_prefixes():
        assert f"{prefix}.calls" in layer_names
        assert (f"{prefix}.self_s" in layer_names) == (prefix in ALWAYS_CALLED)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    if workload == "snr-sweep":
        assert res["failed"] >= 1  # P = 1e7 raises InnerNotImproved at the seed state


def test_traced_run_reports_layers_and_repeats_exactly():
    proc = _bench("--workload", "region-k2", "--seed", "4", "--seconds", "1", "--trace", "1")
    res = _result(proc)
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["solver.solve_wsr.calls"]["value"] > 0
    for prefix in ("solver.solve_wsr", "cli.cli_main", "duality.bc_to_mac"):
        assert f"per-layer {prefix}.self_s = " in proc.stdout
    assert "repeat ok" in proc.stdout
    again = _bench("--workload", "region-k2", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert _result(again)["correct"] is True and "repeat ok" in again.stdout


def test_refuses_a_worker_pool_setting():
    proc = _bench("--workload", "duality-ens", "--seed", "1", "--seconds", "1",
                  env={**os.environ, "SECUREBC_WORKERS": "2"})
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "duality-ens", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
