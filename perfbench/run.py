"""Benchmark of the gateway-tomo toolkit, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload run starts WORKERS fresh worker processes one after another;
in a traced run each is followed by CLI_CALLS cold CLI calls and as many bare
CLI imports, each in a fresh interpreter.  Each worker sets the workload
up from the seed, warms up, and runs a closed loop (one client, next op
after the previous one returns) for its share of ``--seconds`` of op time,
checking every op against the generated truth.  A run's ops are a fixed pool
of op ids, sized from ``--seconds``, that the workers walk round-robin, each
picking up where the previous one stopped, until every id has run at least
once and the time is used; an op's time is its best one, its verdict passes
only if every replay passed.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer metrics from a run whose toolkit calls are wrapped in spans.
``--workload all`` runs every workload untraced and traced and prints a
table that includes the tracing overhead.  BLAS runs on one thread.  Full
run records and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from worker import MISS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# Distinct op ids per second of ``--seconds``: at 25 s, 40 to 200 ids, each
# replayed 20 to 250 times at moments seconds apart and timed by its best
# replay.  On a shared machine whose speed swings by half for seconds at a
# time, only ops of a few milliseconds replayed that often find its fast
# spells in every run; fewer ids with more replays keep the tail percentile
# (ten ids beyond it) off the unlucky ids that met no fast spell.
POOL_PER_S = {
    "fmo-shots": 8.0,
    "spider-101": 1.6,
    "fmo-timeresolved": 4.0,
    "plan-certify": 2.0,
}
WORKLOADS = tuple(POOL_PER_S)
# The tail is the highest of these with at least ten op ids beyond it, or p50.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
WORKERS = 4  # set-up is timed once per worker; setup_s is their median
# CLI calls after each traced worker, so the calls are spread over the run;
# like a replayed op, a repeated call is timed by its best run.
CLI_CALLS = 2
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
CLI_TOLERANCE = 0.05


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run exceeded its time limit")
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[:2]} exceeded the run's time limit") from None


def pool_size(name: str, seconds: float) -> int:
    return max(1, round(seconds * POOL_PER_S[name]))


def run_worker(name: str, seed: int, seconds: float, trace: bool, k: int,
               cursor: int, deadline: float) -> dict:
    """Worker ``k`` of a run, starting ``cursor`` ops into the round-robin.

    The last worker runs on past its share of ``seconds`` until every op id
    of the pool has run.
    """
    pool = pool_size(name, seconds)
    min_ops = pool - cursor if k == WORKERS - 1 else 0
    spawned = time.monotonic()
    proc = run_child(
        [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds / WORKERS), "--trace", str(int(trace)),
         "--pool", str(pool), "--cursor", str(cursor), "--min-ops", str(min_ops),
         "--index", str(k), "--spawned-at", repr(spawned)],
        deadline,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {k} of {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def max_param_error(true: dict, got: dict) -> float:
    """The workloads' error measure on JSON parameter documents."""
    err = 0.0
    for part in ("b", "c"):
        for key, value in true[part].items():
            err = max(err, abs(got[part][key] - value) / max(1.0, abs(value)))
    return err


def cli_cold_calls(deadline: float) -> dict:
    """Fresh ``gateway_tomo.cli roundtrip`` calls with 1e6 shots on FMO.

    Each call's report is checked against the configured parameters.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "cli-roundtrip.json"
    truth = json.loads((ROOT / "configs" / "fmo_params.json").read_text())
    times, failures = [], 0
    for k in range(CLI_CALLS):
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = run_child(
            ["-m", "gateway_tomo.cli", "roundtrip",
             "--graph", "configs/fmo_graph.json", "--params", "configs/fmo_params.json",
             "--shots", "1e6", "--seed", str(k), "--out", str(out)],
            deadline,
        )
        times.append(time.perf_counter() - t0)
        ok = proc.returncode == 0 and out.is_file()
        if ok:
            report = json.loads(out.read_text())["result"]
            ok = max_param_error(truth, report) <= CLI_TOLERANCE
        failures += not ok
    out.unlink(missing_ok=True)
    return {"times": times, "failed": failures}


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gateway_tomo.cli; "
    "print(time.perf_counter() - t)"
)


def cli_import_calls(deadline: float) -> dict:
    """Time ``import gateway_tomo.cli`` in fresh interpreters."""
    times, failures = [], 0
    for _ in range(CLI_CALLS):
        proc = run_child(["-c", IMPORT_PROBE], deadline)
        if proc.returncode == 0:
            times.append(float(proc.stdout.split()[-1]))
        else:
            failures += 1
    return {"times": times, "failed": failures}


def rank(p: float, n: int) -> int:
    """Nearest rank (1-based) of the ``p``-th percentile of ``n`` samples."""
    return max(1, math.ceil(round(p / 100 * n, 9)))


def tail(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the number of samples above it."""
    ordered = sorted(values)
    r = rank(p, len(ordered))
    return ordered[r - 1], len(ordered) - r


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with ten of ``n`` samples beyond it, or 50."""
    return next((p for p in TAIL_PERCENTILES if n - rank(p, n) >= 10), 50.0)


def pooled(records: list[dict]) -> dict:
    """Per op id: its best time over its replays, and whether all passed.

    ``attempted`` and ``failed`` count op ids, so they depend on the seed and
    the pool alone; ``executions`` counts every replay.
    """
    by_op: dict[int, list] = {}
    for r in records:
        for op, t, ok in zip(r["op_ids"], r["op_times"], r["passed"]):
            best = by_op.setdefault(op, [math.inf, True])
            best[0] = min(best[0], t)
            best[1] = best[1] and ok
    errors: dict[str, int] = {}
    for r in records:
        for flag, count in r["errors"].items():
            errors[flag] = errors.get(flag, 0) + count
    return {
        "op_times": [t for t, _ in by_op.values()],
        "passed_times": [t for t, ok in by_op.values() if ok],
        "attempted": len(by_op),
        "failed": sum(not ok for _, ok in by_op.values()),
        "executions": sum(len(r["passed"]) for r in records),
        "misses": errors.get(MISS, 0),
        "errors": errors,
        "param_errors": [e for r in records for e in r["param_errors"]],
    }


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values plus their sample counts."""
    p = pooled(records)
    ok_times = p["passed_times"] or p["op_times"]
    pct = tail_percentile(len(ok_times))
    tail_value, beyond = tail(ok_times, pct)
    values = {
        "solve_s_p50": tail(ok_times, 50.0)[0],
        "solve_s_tail": tail_value,
        "solves_per_s": len(p["passed_times"]) / sum(p["op_times"]),
        "setup_s": median(r["setup_s"] for r in records),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
    }
    samples = {
        "solve_s_p50": len(p["passed_times"]),
        "solve_s_tail": f"{len(p['passed_times'])} (p{pct:g}, {beyond} beyond)",
        "solves_per_s": len(p["op_times"]),
        "setup_s": len(records),
        "peak_rss_mb": len(records),
    }
    return values, samples


def per_layer(records: list[dict], cli: dict) -> tuple[dict, dict]:
    """Per-layer metric values from traced workers.

    Times are self seconds per op, averaged over every traced replay, so the
    layer times plus ``bench.unattributed_s`` add up to
    ``bench.traced_op_s_mean``.  Count metrics are per-op means over ops that
    returned.  A layer the workload's ops never call reads 0.
    """
    p = pooled(records)
    ops = p["executions"]
    values: dict[str, float] = {}
    self_s: dict[str, float] = {}
    span_errors: dict[str, dict[str, int]] = {}
    for r in records:
        for name, value in r["layers"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, by_flag in r["layers"]["span_errors"].items():
            for flag, count in by_flag.items():
                span_errors.setdefault(name, {})
                span_errors[name][flag] = span_errors[name].get(flag, 0) + count
    for name, value in self_s.items():
        key = "bench.unattributed_s" if name == "op" else f"{name}_s"
        values[key] = value / ops
    counted = sum(r["counted_ops"] for r in records)
    counts: dict[str, float] = {}
    for r in records:
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    certify_calls = counts.pop("graphs.certify_calls", 0.0)
    certified = counts.pop("graphs.certified", 0.0)
    if certify_calls:
        values["graphs.certified_frac"] = certified / certify_calls
    for name, value in counts.items():
        values[name] = value / counted
    over_eigh = [x for r in records for x in r["layers"]["over_eigh"]]
    values.update({
        "estimation.fewer_peaks_errors": span_errors.get("estimation.fft", {}).get(
            "FewerPeaks", 0),
        "reconstruction.errors": sum(
            span_errors.get("reconstruction.reconstruct", {}).values()),
        "reconstruction.over_eigh": median(over_eigh) if over_eigh else 0.0,
        "cli.cold_s": min(cli["cold"], default=0.0),
        "cli.import_s": min(cli["import"], default=0.0),
        "bench.traced_op_s_mean": sum(r["layers"]["op_span_s"] for r in records) / ops,
        "bench.traced_solve_s_p50": tail(p["passed_times"] or p["op_times"], 50.0)[0],
        "bench.failed_frac": p["failed"] / p["attempted"],
        "bench.param_err_p50": median(p["param_errors"]) if p["param_errors"] else 0.0,
    })
    samples = {name: ops for name in values}
    samples["bench.failed_frac"] = p["attempted"]
    samples["cli.cold_s"] = len(cli["cold"])
    samples["cli.import_s"] = len(cli["import"])
    samples["reconstruction.over_eigh"] = len(over_eigh)
    samples["bench.traced_solve_s_p50"] = len(p["passed_times"])
    samples["span_errors"] = span_errors
    return values, samples


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, full run record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    records, cli = [], {"cold": [], "import": [], "failed": 0}
    cursor = 0
    for k in range(WORKERS):
        records.append(run_worker(name, seed, seconds, trace, k, cursor, deadline))
        cursor += len(records[-1]["op_ids"])
        if trace:
            for kind, calls in (("cold", cli_cold_calls), ("import", cli_import_calls)):
                done = calls(deadline)
                cli[kind] += done["times"]
                cli["failed"] += done["failed"]
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    values, samples = per_layer(records, cli) if trace else end_to_end(records)
    undeclared = set(values) - set(declared)
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    p = pooled(records)
    result = {
        "correct": p["misses"] == 0 and cli["failed"] == 0,
        "attempted": p["attempted"],
        "failed": p["failed"],
        "metrics": {
            m: {"value": values.get(m, 0.0), "unit": unit} for m, unit in declared.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": records[0]["numpy"],
        "blas": records[0]["blas"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workers": WORKERS,
        "pool": pool_size(name, seconds),
        "executions": p["executions"],
        "client": "closed loop, 1 client",
        "errors_by_flag": p["errors"],
        "cli_times": {"cold": cli["cold"], "import": cli["import"]},
        "cli_failed": cli["failed"],
        "samples": samples,
        "result": result,
        "spans_files": [r.get("spans_file") for r in records if r.get("spans_file")],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{name}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return result, record


def print_table(name: str, result: dict, record: dict) -> None:
    print(f"== {name}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"attempted {result['attempted']} op ids ({record['executions']} runs)  "
          f"failed {result['failed']}  "
          f"errors {record['errors_by_flag'] or '{}'}")
    for metric, m in result["metrics"].items():
        n = record["samples"].get(metric, "-")
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']:6s}  n={n}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in ("src/gateway_tomo/__init__.py", "configs/fmo_graph.json",
                           "configs/fmo_params.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a gateway-tomo checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, record = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
            print_table(args.workload, result, record)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            untraced, rec0 = run_workload(name, args.seed, args.seconds, False)
            traced, rec1 = run_workload(name, args.seed, args.seconds, True)
            print_table(name, untraced, rec0)
            print_table(name, traced, rec1)
            overhead = (traced["metrics"]["bench.traced_solve_s_p50"]["value"]
                        - untraced["metrics"]["solve_s_p50"]["value"])
            print(f"  tracing overhead (traced - untraced solve_s_p50): {overhead:.3g} s")
            for part in (untraced, traced):
                combined["correct"] &= part["correct"]
                combined["attempted"] += part["attempted"]
                combined["failed"] += part["failed"]
            for metric, m in untraced["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = m
        print(json.dumps(combined))
        return 0
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
