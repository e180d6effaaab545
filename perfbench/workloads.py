"""The four benchmark workloads.

Each workload is built once per worker from the run seed (set-up), then
``draw(i)`` makes the inputs of op ``i`` from the seed and ``i`` alone,
``solve`` runs the op through the toolkit's public functions, each call
wrapped by ``call(span_name, fn, ...)`` so a tracer can time it, and
``check`` compares the output with the generated truth.  Only ``solve`` is
timed.  ``check`` returns ``(ok, param_error, counts)``; ``param_error`` is
None where the op recovers no parameters.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

from gateway_tomo import (
    DecayModel,
    HamiltonianParams,
    NetworkGraph,
    Provenance,
    SpectralMeasurement,
    TopologyKind,
    assemble_single_excitation,
    classify_topology,
    compute_access_plan,
    eigendecompose,
    estimate_spectrum_fft,
    extrapolate_t0,
    gauge_fix,
    graph_from_json,
    is_infecting,
    measure_decaying,
    measure_exact,
    measure_shots,
    params_from_json,
    reconstruct,
    return_amplitude,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = (5**0.5 - 1) / 2
CONFIGS = ROOT / "configs"


def max_param_error(true: HamiltonianParams, got: HamiltonianParams) -> float:
    """Max relative parameter error with a unit floor, as in tests/util.py."""
    err = 0.0
    for n, b in true.local_fields.items():
        err = max(err, abs(got.local_fields[n] - b) / max(1.0, abs(b)))
    for e, c in true.couplings.items():
        err = max(err, abs(got.couplings[e] - c) / max(1.0, abs(c)))
    return err


def load_fmo():
    g = graph_from_json(json.loads((CONFIGS / "fmo_graph.json").read_text()))
    params = params_from_json(json.loads((CONFIGS / "fmo_params.json").read_text()))
    return g, params


def sign_families(plan) -> int:
    return sum(peel.seeded_by_measurement for peel in plan.peel_schedule)


class FmoShots:
    """Monte Carlo shot records on the bundled 7-site FMO network.

    Plan, eigh and gauge happen once in set-up; an op samples one record and
    reconstructs from it.
    """

    tolerance = 0.05

    def __init__(self, seed: int, *, shots: int = 10**6):
        self.seed = seed
        self.shots = shots
        self.g, self.params = load_fmo()
        self.plan = compute_access_plan(self.g)
        self.eig = gauge_fix(
            eigendecompose(assemble_single_excitation(self.g, self.params)),
            self.plan.reference,
        )

    def draw(self, i: int) -> int:
        return self.seed + i

    def solve(self, shot_seed: int, call):
        meas = call(
            "measurement.shots", measure_shots,
            self.eig, self.plan.access_set, self.shots, seed=shot_seed,
        )
        return call("reconstruction.reconstruct", reconstruct, self.g, self.plan, meas)

    def check(self, shot_seed, result):
        err = max_param_error(self.params, result.params)
        counts = {
            "graphs.sites": len(self.g.nodes),
            "graphs.access_sites": len(self.plan.access_set),
            "reconstruction.sign_families": sign_families(self.plan),
        }
        return err <= self.tolerance, err, counts


class Spider:
    """Exact-data roundtrip on a hub with two-site legs, fresh weak disorder per op."""

    tolerance = 1e-8

    def __init__(self, seed: int, *, legs: int = 50):
        self.seed = seed
        edges = []
        for leg in range(legs):
            a, b = 2 + 2 * leg, 3 + 2 * leg
            edges += [(1, a), (a, b)]
        self.g = NetworkGraph.from_edges(edges)

    def draw(self, i: int) -> HamiltonianParams:
        rng = np.random.default_rng([self.seed, i])
        fields = rng.uniform(-0.1, 0.1, size=len(self.g.nodes))
        couplings = rng.uniform(0.8, 1.2, size=len(self.g.edges))
        return HamiltonianParams(
            {n: float(b) for n, b in zip(self.g.nodes, fields)},
            {e: float(c) for e, c in zip(self.g.edges, couplings)},
        )

    def solve(self, params, call):
        g = self.g
        plan = call("graphs.plan", compute_access_plan, g)
        sym = call("spectral.assemble", assemble_single_excitation, g, params)
        eig = call("spectral.eigh", eigendecompose, sym)
        fixed = call("spectral.gauge", gauge_fix, eig, plan.reference)
        meas = call("measurement.exact", measure_exact, fixed, plan.access_set)
        result = call("reconstruction.reconstruct", reconstruct, g, plan, meas)
        return plan, result

    def check(self, params, out):
        plan, result = out
        err = max_param_error(params, result.params)
        counts = {
            "graphs.sites": len(self.g.nodes),
            "graphs.access_sites": len(plan.access_set),
            "reconstruction.sign_families": sign_families(plan),
        }
        return err <= self.tolerance, err, counts


def fft_local_maxima(values: np.ndarray) -> int:
    """Strict local maxima of the Hann-windowed FFT magnitude (circular)."""
    mag = np.abs(np.fft.fft(values * np.hanning(len(values))))
    return int(np.count_nonzero((mag > np.roll(mag, 1)) & (mag > np.roll(mag, -1))))


class FmoTimeResolved:
    """FFT spectrum plus decay extrapolation on a perturbed FMO network.

    Every field and coupling is scaled by its own factor from U[0.9, 1.1];
    eigenvalues come from the return signal's peaks and moduli from the
    extrapolated decay series.
    """

    tolerance = 0.2

    def __init__(self, seed: int, *, samples: int = 8192):
        self.seed = seed
        self.g, self.base = load_fmo()
        self.plan = compute_access_plan(self.g)
        self.signal_times = np.arange(samples) * (200.0 / 2047)
        self.decay_times = np.linspace(0.0, 100.0, 11)

    def draw(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        fields = {n: b * rng.uniform(0.9, 1.1) for n, b in self.base.local_fields.items()}
        couplings = {e: c * rng.uniform(0.9, 1.1) for e, c in self.base.couplings.items()}
        decay = DecayModel(tuple(rng.uniform(1e-3, 1e-2, size=len(self.g.nodes))))
        noise_seed = int(rng.integers(2**31))
        return HamiltonianParams(fields, couplings), decay, noise_seed

    def solve(self, x, call):
        params, decay, noise_seed = x
        g, plan = self.g, self.plan
        sym = call("spectral.assemble", assemble_single_excitation, g, params)
        eig = call("spectral.eigh", eigendecompose, sym)
        fixed = call("spectral.gauge", gauge_fix, eig, plan.reference)
        signal = call(
            "measurement.signal", return_amplitude, fixed, plan.reference, self.signal_times
        )
        spectrum = call(
            "estimation.fft", estimate_spectrum_fft, signal, len(g.nodes), window="hann"
        )
        series = call(
            "measurement.decay", measure_decaying,
            fixed, plan.access_set, self.decay_times, decay,
            noise=0.01, seed=noise_seed,
        )
        fit = call("estimation.extrapolate", extrapolate_t0, series)
        meas = SpectralMeasurement(
            fit.nodes,
            spectrum.eigenvalues,
            fit.moduli,
            Provenance("extrapolated", times=tuple(self.decay_times)),
        )
        result = call("reconstruction.reconstruct", reconstruct, g, plan, meas)
        return signal, result

    def check(self, x, out):
        signal, result = out
        err = max_param_error(x[0], result.params)
        counts = {
            "graphs.sites": len(self.g.nodes),
            "graphs.access_sites": len(self.plan.access_set),
            "reconstruction.sign_families": sign_families(self.plan),
            "measurement.signal_samples": len(signal.times),
            "estimation.fft_local_maxima": fft_local_maxima(signal.values),
        }
        return err <= self.tolerance, err, counts


def closure_size(adj: dict[int, list[int]], seeds) -> int:
    """Independent worklist infection closure; returns the infected count."""
    infected = set(seeds)
    healthy = {n: sum(u not in infected for u in adj[n]) for n in adj}
    work = deque(infected)
    while work:
        n = work.popleft()
        if n in infected and healthy[n] == 1:
            (u,) = [u for u in adj[n] if u not in infected]
            infected.add(u)
            for w in adj[u]:
                healthy[w] -= 1
                if w in infected:
                    work.append(w)
            work.append(u)
    return len(infected)


class PlanCertify:
    """Classify, plan (standard and aggressive) and certify a long-leg spider.

    Op ``i`` has ``3 + i % 6`` legs: one holds a share in [0.4, 0.6] of the
    sites, the others split the rest at uniformly random cuts.  The sweep
    count of the infection closure follows the longest leg, so its share
    walks a golden-ratio sequence from a seeded offset: any run's ops then
    cover the range evenly and the cost mix is alike across seeds.  Sites are
    labelled by a random permutation, so label order says nothing about
    position on a leg.
    """

    def __init__(self, seed: int, *, sites: int = 150):
        self.seed = seed
        self.sites = sites
        self.offset = np.random.default_rng([seed]).uniform()

    def draw(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        n = self.sites
        legs = 3 + i % 6
        share = 0.4 + 0.2 * ((self.offset + i * GOLDEN) % 1.0)
        longest = int(share * (n - 1))
        rest = n - 1 - longest
        cuts = np.sort(rng.choice(np.arange(1, rest), size=legs - 2, replace=False))
        lengths = [longest, *np.diff(np.concatenate([[0], cuts, [rest]]))]
        label = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
        edges, k = [], 1
        for length in lengths:
            prev = 0
            for _ in range(length):
                edges.append((label[prev], label[k]))
                prev, k = k, k + 1
        g = NetworkGraph.from_edges(edges)
        adj = {v: [] for v in g.nodes}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        leaves = frozenset(v for v in g.nodes if len(adj[v]) == 1)
        return g, adj, leaves

    def solve(self, x, call):
        g = x[0]
        topo = call("graphs.classify", classify_topology, g)
        plan = call("graphs.plan", compute_access_plan, g)
        aggressive = call("graphs.plan_aggressive", compute_access_plan, g, aggressive=True)
        certified = (
            call("graphs.certify", is_infecting, g, plan.access_set),
            call("graphs.certify", is_infecting, g, aggressive.access_set),
        )
        return topo, plan, aggressive, certified

    def check(self, x, out):
        g, adj, leaves = x
        topo, plan, aggressive, certified = out
        n = len(g.nodes)
        ok = (
            topo.kind is TopologyKind.TREE
            and set(plan.access_set) == leaves
            and set(aggressive.access_set) < leaves
            and len(aggressive.access_set) == len(leaves) - 1
            and certified == (True, True)
            and closure_size(adj, plan.access_set) == n
            and closure_size(adj, aggressive.access_set) == n
        )
        counts = {
            "graphs.sites": n,
            "graphs.access_sites": len(plan.access_set),
            "graphs.certified": sum(certified),
            "graphs.certify_calls": len(certified),
        }
        return ok, None, counts


WORKLOADS = {
    "fmo-shots": FmoShots,
    "spider-101": Spider,
    "fmo-timeresolved": FmoTimeResolved,
    "plan-certify": PlanCertify,
}
