"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from worker import run_worker  # noqa: E402

TINY = {
    "fmo-shots": {"shots": 10**5},
    "spider-101": {"legs": 3},
    "fmo-timeresolved": {"samples": 4096},
    "plan-certify": {"sites": 60},
}
LAYERS_CALLED = {
    "fmo-shots": {"measurement.shots_s", "reconstruction.reconstruct_s"},
    "spider-101": {
        "graphs.plan_s", "spectral.assemble_s", "spectral.eigh_s", "spectral.gauge_s",
        "measurement.exact_s", "reconstruction.reconstruct_s", "reconstruction.over_eigh",
    },
    "fmo-timeresolved": {
        "spectral.eigh_s", "measurement.signal_s", "measurement.decay_s",
        "estimation.fft_s", "estimation.extrapolate_s", "estimation.fft_local_maxima",
        "measurement.signal_samples", "reconstruction.reconstruct_s",
    },
    "plan-certify": {
        "graphs.classify_s", "graphs.plan_s", "graphs.plan_aggressive_s",
        "graphs.certify_s", "graphs.certified_frac",
    },
}
FAKE_CLI = {"cold": [0.25, 0.26], "import": [0.1, 0.11], "failed": 0}


def test_workload_lists_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS == tuple(TINY)
    assert all(run.pool_size(name, spec["run_seconds"]) >= 8 for name in run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_schema(name):
    record = run_worker(name, seed=3, seconds=0.05, trace=False, sizes=TINY[name])
    assert record["op_times"] and all(record["passed"]), record["errors"]
    values, samples = run.end_to_end([record])
    assert set(values) == set(run.declared_metrics()["end_to_end"])
    assert all(math.isfinite(v) and v > 0 for v in values.values()), values


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_schema_and_accounting(name):
    record = run_worker(name, seed=3, seconds=0.05, trace=True, sizes=TINY[name])
    values, _ = run.per_layer([record], FAKE_CLI)
    declared = set(run.declared_metrics()["per_layer"])
    assert set(values) <= declared
    assert all(values.get(m, 0) > 0 for m in LAYERS_CALLED[name]), values
    layer_s = sum(v for k, v in values.items()
                  if k.endswith("_s") and k.split(".")[0] not in ("bench", "cli"))
    assert layer_s + values["bench.unattributed_s"] == pytest.approx(
        values["bench.traced_op_s_mean"], rel=1e-9)


def test_corrupted_result_counts_as_failure(monkeypatch):
    real = workloads.reconstruct

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        params = result.params
        bent = {e: 1.5 * c for e, c in params.couplings.items()}
        return dataclasses.replace(result, params=dataclasses.replace(params, couplings=bent))

    monkeypatch.setattr(workloads, "reconstruct", corrupted)
    record = run_worker("fmo-shots", seed=3, seconds=0.02, trace=True,
                        sizes=TINY["fmo-shots"])
    values, _ = run.per_layer([record], FAKE_CLI)
    assert values["bench.failed_frac"] == 1.0
    assert record["errors"] == {"ToleranceMiss": len(record["op_times"])}
    pooled = run.pooled([record])
    assert pooled["passed_times"] == [] and pooled["misses"] == len(record["op_times"])


def test_self_times_subtract_children():
    spans = [
        ("a", 0.0, 1.0, -1, 7, None),
        ("b", 0.2, 0.5, 0, 7, None),
        ("c", 0.3, 0.4, 1, 7, None),
        ("b", 0.6, 0.7, 0, 7, "DarkState"),
    ]
    assert self_times(spans)[7] == pytest.approx({"a": 0.6, "b": 0.3, "c": 0.1})


def test_tracer_records_error_flag():
    from gateway_tomo import DarkStateError

    tracer = Tracer()

    def fail():
        raise DarkStateError(1, [0])

    with pytest.raises(DarkStateError):
        tracer.call("x", fail)
    assert tracer.spans[0][0] == "x" and tracer.spans[0][-1] == "DarkState"


def test_tail_is_nearest_rank():
    values = [float(i) for i in range(1000, 0, -1)]
    assert run.tail(values, 99.0) == (990.0, 10)
    assert run.tail(values, 50.0) == (500.0, 500)


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(10000) == 99.9
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(16) == 50.0


def test_worker_walks_the_pool_from_its_cursor():
    record = run_worker("plan-certify", seed=3, seconds=0.0, trace=False, pool=5,
                        cursor=3, min_ops=4, sizes=TINY["plan-certify"])
    assert record["op_ids"] == [3, 4, 0, 1]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fmo-shots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pooled_keeps_best_time_of_replayed_ops():
    records = [
        {"op_ids": [0, 1, 2], "op_times": [1.0, 2.0, 3.0], "passed": [True, True, True],
         "errors": {}, "param_errors": []},
        {"op_ids": [0, 1], "op_times": [0.5, 2.5], "passed": [True, False],
         "errors": {"DarkState": 1}, "param_errors": []},
    ]
    p = run.pooled(records)
    assert p["op_times"] == [0.5, 2.0, 3.0] and p["passed_times"] == [0.5, 3.0]
    assert (p["attempted"], p["failed"], p["executions"], p["misses"]) == (3, 1, 5, 0)
