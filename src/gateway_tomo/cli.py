"""Command-line front end.

One binary with subcommands covering the full pipeline: classify a graph,
plan access, simulate measurements, estimate spectra from signals,
extrapolate decaying amplitudes, reconstruct parameters, and run a full
simulate-and-reconstruct roundtrip.  Every subcommand prints a short human
summary to stdout and can write a JSON report with --out.

Exit codes: 0 on success, 1 when a method cannot handle the instance (the
JSON report then carries the condition flag), 2 on any malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from ._json import numbers, site_keyed
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GatewayTomoError, InputError
from .estimation import estimate_spectrum_fft, extrapolate_t0
from .graphs import (
    AccessPlan,
    NetworkGraph,
    classify_topology,
    compute_access_plan,
    graph_from_json,
    infection_closure,
    is_estimable,
)
from .measurement import (
    DecayModel,
    Provenance,
    decay_series_from_json,
    decay_series_to_json,
    measure_decaying,
    measure_exact,
    measure_shots,
    measurement_from_json,
    measurement_to_json,
    return_amplitude,
    signal_from_json,
    signal_to_json,
)
from .reconstruction import reconstruct, result_to_json
from .spectral import (
    assemble_single_excitation,
    eigendecompose,
    gauge_fix,
    params_from_json,
)

log = logging.getLogger("gateway_tomo")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("GATEWAY_TOMO_LOG", "warn"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def parse_shots(text: str) -> int:
    """A ``--shots`` value: a whole number in [1, 2**63), such as 1e6."""
    try:  # float, so that 1e6 is read as a count
        return int(Provenance("shots", shots=float(text)).shots)
    except ValueError:  # InputError is one
        raise argparse.ArgumentTypeError(f"bad shot count {text!r}") from None


def _parse_list(text: str, kind: type) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise InputError(f"expected comma-separated {noun}, got {text!r}") from None


def _parse_times(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"times must be START:STOP:COUNT, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"times must be START:STOP:COUNT, got {text!r}") from None
    if count < 2 or stop <= start:
        raise InputError("need an increasing time range with at least two samples")
    return np.linspace(start, stop, count)


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = DEFAULT_TOLERANCES
    names = {f.name for f in dataclasses.fields(Tolerances)}
    for item in args.tol or ():
        if "=" not in item:
            raise InputError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name not in names:
            raise InputError(f"unknown tolerance {name!r} (have {sorted(names)})")
        try:
            value = float(value)
        except ValueError:
            raise InputError(f"tolerance {name} needs a number, got {value!r}") from None
        tol = dataclasses.replace(tol, **{name: value})
    return tol


def _load_graph(args: argparse.Namespace) -> NetworkGraph:
    return graph_from_json(_load_json(args.graph))


def _plan_to_json(plan: AccessPlan) -> dict:
    cycle = None
    if plan.cycle_plan is not None:
        cycle = {
            "order": list(plan.cycle_plan.cycle),
            "measured": list(plan.cycle_plan.measured),
            "attachments": list(plan.cycle_plan.attachments),
        }
    return {
        "reference": plan.reference,
        "access": list(plan.access_set),
        "reference_path": list(plan.reference_path),
        "peels": [
            {
                "head": p.head,
                "nodes": list(p.nodes),
                "terminal": p.terminal,
                "seeded_by_measurement": p.seeded_by_measurement,
            }
            for p in plan.peel_schedule
        ],
        "cycle": cycle,
        "aggressive": plan.aggressive,
    }


def _prepared_system(args: argparse.Namespace, g: NetworkGraph):
    """Assemble, decompose, gauge fix, and plan in the right order.

    With an explicit --reference the gauge is fixed before planning, so an
    unusable reference surfaces as the spectral condition it causes rather
    than as a planning complaint.
    """
    params = params_from_json(_load_json(args.params))
    eig = eigendecompose(assemble_single_excitation(g, params))
    tol = _tolerances(args)
    if args.reference is not None:
        fixed = gauge_fix(eig, args.reference, tol)
        plan = compute_access_plan(g, args.reference, aggressive=args.aggressive_plan)
    else:
        plan = compute_access_plan(g, aggressive=args.aggressive_plan)
        fixed = gauge_fix(eig, plan.reference, tol)
    log.info("planned access %s with reference %d", plan.access_set, plan.reference)
    return params, fixed, plan


def _cmd_classify(args: argparse.Namespace) -> dict:
    g = _load_graph(args)
    topo = classify_topology(g)
    ok, reason = is_estimable(g)
    print(f"topology: {topo.kind.value}")
    if topo.cycle:
        print("cycle: " + "-".join(str(n) for n in topo.cycle))
    if topo.excess is not None:
        print(f"excess: {topo.excess}")
    print(f"estimable: {'yes' if ok else 'no'}" + (f" ({reason})" if reason else ""))
    payload = {
        "kind": topo.kind.value,
        "cycle": list(topo.cycle) if topo.cycle else None,
        "excess": topo.excess,
        "estimable": ok,
        "reason": reason,
    }
    if args.infect:
        seeds = _parse_list(args.infect, int)
        closure = sorted(infection_closure(g, seeds))
        spreads = len(closure) == len(g.nodes)
        print(f"closure of {seeds}: {closure}")
        print(f"infecting: {'yes' if spreads else 'no'}")
        payload["closure"] = closure
        payload["infecting"] = spreads
    return payload


def _cmd_plan(args: argparse.Namespace) -> dict:
    g = _load_graph(args)
    plan = compute_access_plan(g, args.reference, aggressive=args.aggressive_plan)
    print(f"reference: {plan.reference}")
    print(f"access: {list(plan.access_set)}")
    print(f"reference path: {list(plan.reference_path)}")
    for p in plan.peel_schedule:
        kind = "measured" if p.seeded_by_measurement else "derived"
        print(f"peel {p.head} -> {p.terminal} via {list(p.nodes)} ({kind})")
    if plan.cycle_plan is not None:
        print("cycle: " + "-".join(str(n) for n in plan.cycle_plan.cycle))
    checks = plan.check_sites(g)
    if checks:
        print(f"check sites: {list(checks)}")
    return _plan_to_json(plan)


def _cmd_simulate(args: argparse.Namespace) -> dict:
    g = _load_graph(args)
    params, eig, plan = _prepared_system(args, g)
    nodes = plan.access_set
    if args.kind == "exact":
        meas = measure_exact(eig, nodes)
        print(f"exact moduli at sites {list(nodes)}")
        return measurement_to_json(meas)
    if args.kind == "shots":
        if args.shots is None:
            raise InputError("--kind shots needs --shots")
        meas = measure_shots(eig, nodes, args.shots, args.seed)
        print(f"{args.shots} shots per site at sites {list(nodes)}")
        return measurement_to_json(meas)
    if args.kind == "decaying":
        if args.times is None or args.gamma is None:
            raise InputError("--kind decaying needs --times and --gamma")
        rates = _parse_list(args.gamma, float)
        if len(rates) == 1:
            rates = rates * len(eig.eigenvalues)
        times = _parse_times(args.times)
        series = measure_decaying(
            eig, nodes, times, DecayModel(tuple(rates)),
            noise=args.noise, seed=args.seed,
        )
        print(
            f"decay series at sites {list(nodes)}, "
            f"{len(times)} samples in [{times[0]:g}, {times[-1]:g}]"
        )
        return decay_series_to_json(series)
    if args.times is None:
        raise InputError("--kind signal needs --times")
    times = _parse_times(args.times)
    sig = return_amplitude(eig, plan.reference, times)
    print(
        f"return signal at site {plan.reference}, {len(times)} samples "
        f"with dt={times[1] - times[0]:g}"
    )
    return signal_to_json(sig)


def _cmd_spectrum(args: argparse.Namespace) -> dict:
    sig = signal_from_json(_load_json(args.signal))
    est = estimate_spectrum_fft(sig, args.n_peaks, window=args.window)
    print(f"resolution: {est.resolution:.6g}")
    for e, w in est.peaks:
        print(f"peak  E={e: .6f}  weight={w:.6f}")
    for w in est.warnings:
        print(f"warning: {w}")
    return {
        "eigenvalues": [float(e) for e in est.eigenvalues],
        "weights": [float(w) for w in est.weights],
        "resolution": est.resolution,
        "warnings": list(est.warnings),
    }


def _cmd_extrapolate(args: argparse.Namespace) -> dict:
    series = decay_series_from_json(_load_json(args.series))
    fit = extrapolate_t0(series)
    rates = ", ".join(f"{r:.6g}" for r in fit.rates)
    print(f"decay rates per eigenstate: {rates}")
    for w in fit.warnings:
        print(f"warning: {w}")
    meas = fit.to_measurement()
    print(f"extrapolated moduli at sites {list(meas.nodes)}")
    return measurement_to_json(meas)


def _cmd_reconstruct(args: argparse.Namespace) -> dict:
    g = _load_graph(args)
    meas = measurement_from_json(_load_json(args.measurement))
    plan = compute_access_plan(g, args.reference, aggressive=args.aggressive_plan)
    known = None
    if args.known_fields:
        sites, values = site_keyed(_load_json(args.known_fields), "known fields")
        known = {n: float(numbers(b, f"known field at site {n}", 0))
                 for n, b in zip(sites, values)}
    result = reconstruct(
        g, plan, meas, tolerances=_tolerances(args), known_fields=known
    )
    _print_result(result)
    return result_to_json(result)


def _print_result(result) -> None:
    for n, b in sorted(result.params.local_fields.items()):
        print(f"b[{n}] = {b: .9g}")
    for (u, v), c in sorted(result.params.couplings.items()):
        print(f"c[{u}-{v}] = {c: .9g}")
    if result.residuals:
        worst = max(result.residuals.values())
        print(f"residuals: {len(result.residuals)} checks, max {worst:.3e}")
    if result.flags:
        print(f"flags: {', '.join(result.flags)}")


def _cmd_roundtrip(args: argparse.Namespace) -> dict:
    g = _load_graph(args)
    params, eig, plan = _prepared_system(args, g)
    if args.shots is not None:
        meas = measure_shots(eig, plan.access_set, args.shots, args.seed)
    else:
        meas = measure_exact(eig, plan.access_set)
    result = reconstruct(g, plan, meas, tolerances=_tolerances(args))
    field_err = max(
        abs(result.params.local_fields[n] - params.local_fields[n]) for n in g.nodes
    )
    coup_err = max(
        abs(result.params.couplings[e] - params.couplings[e]) for e in g.edges
    )
    worst_res = max(result.residuals.values(), default=0.0)
    print(f"max field error:    {field_err:.3e}")
    print(f"max coupling error: {coup_err:.3e}")
    print(f"max residual:       {worst_res:.3e}")
    if result.flags:
        print(f"flags: {', '.join(result.flags)}")
    return {
        "plan": _plan_to_json(plan),
        "errors": {
            "max_field_error": field_err,
            "max_coupling_error": coup_err,
            "max_residual": worst_res,
        },
        "result": result_to_json(result),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateway-tomo",
        description="Plan, simulate, and reconstruct pseudo-spin networks "
        "from boundary spectral data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options several subcommands share, each declared once
    graph, params, plan, shots, tol = (argparse.ArgumentParser(add_help=False)
                                       for _ in range(5))
    graph.add_argument("--graph", required=True)
    params.add_argument("--params", required=True)
    plan.add_argument("--reference", type=int)
    plan.add_argument("--aggressive-plan", action="store_true")
    shots.add_argument("--shots", type=parse_shots)
    shots.add_argument("--seed", type=int)
    tol.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="override a tolerance (repeatable)")

    def add(name: str, func, help_: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, parents=parents)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write a JSON report to this path")
        return p

    p = add("classify", _cmd_classify, "classify a graph's topology", graph)
    p.add_argument("--infect", metavar="SITES", help="comma-separated seed sites")

    add("plan", _cmd_plan, "compute the access plan for a graph", graph, plan)

    p = add("simulate", _cmd_simulate, "simulate measurement records",
            graph, params, plan, shots, tol)
    p.add_argument(
        "--kind", choices=("exact", "shots", "decaying", "signal"), default="exact"
    )
    p.add_argument("--times", metavar="START:STOP:COUNT")
    p.add_argument("--gamma", metavar="RATES", help="decay rates, comma separated")
    p.add_argument("--noise", type=float, default=0.0)

    p = add("spectrum", _cmd_spectrum, "estimate peaks from a return signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--n-peaks", type=int, required=True)
    p.add_argument("--window", choices=("rect", "hann"), default="rect")

    p = add("extrapolate", _cmd_extrapolate, "extrapolate a decay series to t=0")
    p.add_argument("--series", required=True)

    p = add("reconstruct", _cmd_reconstruct, "reconstruct parameters", graph, plan, tol)
    p.add_argument("--measurement", required=True)
    p.add_argument("--known-fields", help="JSON file of independently known fields")

    add("roundtrip", _cmd_roundtrip, "simulate and reconstruct in one go",
        graph, params, plan, shots, tol)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging()
    try:
        payload = args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GatewayTomoError as err:
        flag = err.flag or type(err).__name__
        print(f"error [{flag}]: {err}", file=sys.stderr)
        if getattr(args, "out", None):
            _write_json(args.out, {"error": str(err), "flag": flag})
        return 1
    if args.out:
        _write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
