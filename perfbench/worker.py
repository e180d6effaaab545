"""One benchmark worker: set up a workload, warm up, run the timed loop.

Runs in a fresh interpreter started by ``run.py`` and prints one JSON record
on stdout.  Importable too: ``run_worker`` is what the smoke tests call.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --pool P --cursor C --min-ops M --index K --spawned-at MONOTONIC
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"
WARMUP_ID = 10**9
MISS = "ToleranceMiss"  # a result outside tolerance: a silent wrong answer


def _import_toolkit():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gateway_tomo

    if Path(gateway_tomo.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"gateway_tomo loaded from {gateway_tomo.__file__}, not {ROOT}/src")


def run_worker(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    pool: int = 1,
    cursor: int = 0,
    min_ops: int = 0,
    index: int = 0,
    spawned_at: float | None = None,
    sizes: dict | None = None,
) -> dict:
    """Run one worker's share of a workload and return its record.

    The run's op ids are ``0 .. pool - 1``, taken round-robin: this worker
    starts at ``cursor % pool`` and runs at least ``min_ops`` ops, then stops
    once the summed op time reaches ``seconds``.  Set-up time runs from
    ``spawned_at`` (the parent's monotonic clock when it started this
    process) or from the call, to the start of the first timed op.
    """
    start = time.monotonic() if spawned_at is None else spawned_at
    _import_toolkit()
    import numpy as np
    from gateway_tomo import GatewayTomoError
    from spans import NullTracer, Tracer, self_times
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, **(sizes or {}))
    try:
        workload.solve(workload.draw(WARMUP_ID + index), NullTracer().call)
    except GatewayTomoError:
        pass
    tracer = Tracer() if trace else NullTracer()
    setup_s = time.monotonic() - start

    op_times, passed, param_errors = [], [], []
    errors: dict[str, int] = {}
    counts: dict[str, float] = {}
    counted_ops = 0
    busy = 0.0
    op_ids = []
    while busy < seconds or len(op_ids) < min_ops:
        op = (cursor + len(op_ids)) % pool
        op_ids.append(op)
        x = workload.draw(op)
        tracer.op = op
        error = None
        t0 = time.perf_counter()
        try:
            out = tracer.call("op", workload.solve, x, tracer.call)
        except GatewayTomoError as err:
            error = err.flag or type(err).__name__
        dt = time.perf_counter() - t0
        busy += dt
        op_times.append(dt)
        if error is None:
            ok, param_err, op_counts = workload.check(x, out)
            if param_err is not None:
                param_errors.append(param_err)
            for key, value in op_counts.items():
                counts[key] = counts.get(key, 0) + value
            counted_ops += 1
            if not ok:
                error = MISS
        passed.append(error is None)
        if error is not None:
            errors[error] = errors.get(error, 0) + 1

    record = {
        "workload": name,
        "seed": seed,
        "index": index,
        "setup_s": setup_s,
        "op_ids": op_ids,
        "op_times": op_times,
        "passed": passed,
        "param_errors": param_errors,
        "errors": errors,
        "counts": counts,
        "counted_ops": counted_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if trace:
        record["layers"] = _layer_summary(tracer.spans, self_times(tracer.spans))
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{name}-w{index}.json"
        spans_file.write_text(json.dumps(
            {"workload": name, "seed": seed,
             "fields": ["name", "start", "end", "parent", "op", "error"],
             "spans": tracer.spans}
        ))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    return record


def _layer_summary(spans, per_op) -> dict:
    """Self-time sums per span name, error counts per span and flag, ratios.

    The root span of each op is named ``op``; its self time is the op time
    that no layer span covers.
    """
    totals: dict[str, float] = {}
    for times in per_op.values():
        for name, value in times.items():
            totals[name] = totals.get(name, 0.0) + value
    span_errors: dict[str, dict[str, int]] = {}
    durations: dict[int, dict[str, float]] = {}
    for name, start, end, parent, op, error in spans:
        if error is not None and name != "op":
            by_flag = span_errors.setdefault(name, {})
            by_flag[error] = by_flag.get(error, 0) + 1
        durations.setdefault(op, {})[name] = end - start
    over_eigh = [
        d["reconstruction.reconstruct"] / d["spectral.eigh"]
        for d in durations.values()
        if "reconstruction.reconstruct" in d and "spectral.eigh" in d
    ]
    return {
        "op_span_s": sum(end - start for name, start, end, *_ in spans if name == "op"),
        "self_s": totals,
        "span_errors": span_errors,
        "over_eigh": over_eigh,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pool", type=int, required=True)
    ap.add_argument("--cursor", type=int, default=0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--spawned-at", type=float)
    args = ap.parse_args()
    record = run_worker(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.pool, args.cursor, args.min_ops, args.index, args.spawned_at,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
