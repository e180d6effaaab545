"""Shared helpers for the test suite.

Random instance generators (trees via Prufer sequences, unicyclic graphs,
generic parameter draws with rejection against spectral pathologies, plans
built by random open-edge walks) plus
deliberately independent oracles used to cross-check the package
implementation: an infection simulator, an aggressive-spine walker, and the
direct-sum return signal and unpruned Fourier estimator.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from gateway_tomo import (
    AccessPlan,
    BranchPeel,
    HamiltonianParams,
    NetworkGraph,
    SpectrumEstimate,
    TimeSignal,
    assemble_single_excitation,
    compute_access_plan,
    eigendecompose,
    gauge_fix,
    measure_exact,
)
from gateway_tomo.graphs import CyclePlan


def random_tree_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree on nodes 1..n (Prufer decode)."""
    if n < 1:
        raise ValueError("need at least one node")
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    seq = rng.integers(1, n + 1, size=n - 2)
    degree = {i: 1 for i in range(1, n + 1)}
    for s in seq:
        degree[int(s)] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        s = int(s)
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_unicyclic_edges(
    rng: np.random.Generator, n: int, cycle_len: int
) -> list[tuple[int, int]]:
    """Random connected graph on 1..n whose single cycle has cycle_len nodes.

    The cycle gets random labels; remaining nodes attach one by one to a
    uniformly chosen earlier node (random recursive tree rooted on the cycle).
    """
    if not 3 <= cycle_len <= n:
        raise ValueError("cycle_len must be in [3, n]")
    perm = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
    cyc = perm[:cycle_len]
    edges = [(cyc[i], cyc[(i + 1) % cycle_len]) for i in range(cycle_len)]
    for idx in range(cycle_len, n):
        parent = perm[int(rng.integers(0, idx))]
        edges.append((parent, perm[idx]))
    return edges


def random_multicycle_edges(
    rng: np.random.Generator, n: int, extra: int
) -> list[tuple[int, int]]:
    """Random connected graph on 1..n with ``extra`` independent cycles.

    A uniform random tree plus ``extra`` distinct chords between non-adjacent
    nodes; needs n(n-1)/2 >= n - 1 + extra.
    """
    edges = random_tree_edges(rng, n)
    taken = {frozenset(e) for e in edges}
    while len(edges) < n - 1 + extra:
        u, v = (int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
        if frozenset((u, v)) not in taken:
            taken.add(frozenset((u, v)))
            edges.append((u, v))
    return edges


def random_spider_edges(
    rng: np.random.Generator, lengths: list[int]
) -> list[tuple[int, int]]:
    """Spider with one hub and legs of the given lengths, randomly labelled.

    Labels are a random permutation of 1..N, so label order says nothing
    about the position of a site on its leg.
    """
    n = 1 + sum(lengths)
    label = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
    edges, k = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((label[prev], label[k]))
            prev, k = k, k + 1
    return edges


def random_params(
    rng: np.random.Generator,
    g: NetworkGraph,
    *,
    field_range: tuple[float, float] = (-1.0, 1.0),
    coupling_range: tuple[float, float] = (0.2, 1.5),
    random_signs: bool = True,
) -> tuple[NetworkGraph, HamiltonianParams]:
    """Draw fields and couplings compatible with g.

    When random_signs is set the graph is rebuilt with freshly drawn edge
    signs so the sign-recovery path gets exercised too.
    """
    if random_signs:
        signs = {e: int(s) for e, s in zip(g.edges, rng.choice([-1, 1], size=len(g.edges)))}
        g = NetworkGraph(g.nodes, g.edges, signs)
    fields = {
        n: float(rng.uniform(*field_range)) for n in g.nodes
    }
    couplings = {
        e: g.sign_of[e] * float(rng.uniform(*coupling_range)) for e in g.edges
    }
    return g, HamiltonianParams(fields, couplings)


def generic_system(
    rng: np.random.Generator,
    g: NetworkGraph,
    *,
    aggressive: bool = False,
    min_gap: float = 1e-2,
    min_component: float = 1e-3,
    attempts: int = 300,
    plan: AccessPlan | None = None,
    **param_kw,
):
    """Rejection-sample a parameter draw free of spectral pathologies.

    Returns (graph, params, plan, gauge-fixed eigensystem, exact measurement).
    Degenerate or nearly dark draws are discarded so failures in the round
    trip point at the reconstruction, not at an unlucky instance.  ``plan``
    defaults to the planner's.
    """
    plan = plan or compute_access_plan(g, aggressive=aggressive)
    for _ in range(attempts):
        gs, params = random_params(rng, g, **param_kw)
        eig = eigendecompose(assemble_single_excitation(gs, params))
        if np.min(np.diff(eig.eigenvalues)) < min_gap:
            continue
        if np.min(np.abs(eig.vectors)) < min_component:
            continue
        fixed = gauge_fix(eig, plan.reference)
        meas = measure_exact(fixed, plan.access_set)
        return gs, params, plan, fixed, meas
    raise RuntimeError(f"no generic draw found in {attempts} attempts for {g.edges}")


def max_param_error(true: HamiltonianParams, got: HamiltonianParams) -> float:
    """Max relative parameter error, with unit floor so b near 0 stays fair."""
    err = 0.0
    for n, b in true.local_fields.items():
        err = max(err, abs(got.local_fields[n] - b) / max(1.0, abs(b)))
    for e, c in true.couplings.items():
        err = max(err, abs(got.couplings[e] - c) / max(1.0, abs(c)))
    return err


# --- independent infection oracle (bitmask style, no shared code) ---------


def closure_mask(adj: list[int], seed_mask: int) -> int:
    """Fixed-point infection closure over bitmask adjacency (node i = bit i)."""
    infected = seed_mask
    changed = True
    while changed:
        changed = False
        m = infected
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            healthy = adj[i] & ~infected
            if healthy and healthy & (healthy - 1) == 0:
                infected |= healthy
                changed = True
    return infected


def brute_minimum_sets(g: NetworkGraph) -> tuple[tuple[int, ...], ...]:
    """Smallest infecting subsets by exhaustive search over closure_mask."""
    adj, index = graph_to_masks(g)
    full = (1 << len(g.nodes)) - 1
    for size in range(1, len(g.nodes) + 1):
        hits = tuple(
            combo
            for combo in itertools.combinations(g.nodes, size)
            if closure_mask(adj, sum(1 << index[s] for s in combo)) == full
        )
        if hits:
            return hits
    return ()


def graph_to_masks(g: NetworkGraph) -> tuple[list[int], dict[int, int]]:
    """Adjacency bitmasks plus node -> bit index map for closure_mask."""
    index = {n: i for i, n in enumerate(g.nodes)}
    adj = [0] * len(g.nodes)
    for u, v in g.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj, index


def connected_edge_sets(n: int):
    """Yield every connected labelled graph on nodes 1..n as an edge list."""
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        adj = [0] * n
        for k, (i, j) in enumerate(all_edges):
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        # bitmask flood fill from node 0
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                m ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= nxt
        if seen == (1 << n) - 1:
            yield [
                (i + 1, j + 1)
                for k, (i, j) in enumerate(all_edges)
                if bits >> k & 1
            ]


# --- independent aggressive-spine oracle (recounts subtrees every step) ----


def spine_oracle(g: NetworkGraph) -> tuple[int, list[tuple[int, tuple[int, ...], int]]]:
    """Leaf dropped by the aggressive plan of tree g, and its spine segments.

    Walks from the smallest leaf to the first site of degree >= 3, then
    descends into the child whose subtree is largest, recounting every
    child's subtree by flood fill at every step; ties go to the larger label.
    The spine is cut at interior sites of degree >= 3 into
    (head, consumed sites, terminal) segments.
    """
    nbrs = {v: set() for v in g.nodes}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def reach(start: int, banned: int) -> int:
        seen, stack = {banned, start}, [start]
        while stack:
            for w in nbrs[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        return len(seen) - 1

    prev, cur = None, min(v for v in g.nodes if len(nbrs[v]) == 1)
    while prev is None or len(nbrs[cur]) < 3:
        (nxt,) = nbrs[cur] - {prev}
        prev, cur = cur, nxt
    spine = [cur]
    while nbrs[cur] - {prev}:
        best = max(nbrs[cur] - {prev}, key=lambda c: (reach(c, cur), c))
        prev, cur = cur, best
        spine.append(cur)
    cuts = [0] + [k for k in range(1, len(spine) - 1) if len(nbrs[spine[k]]) >= 3]
    cuts.append(len(spine) - 1)
    segments = [(spine[i], tuple(spine[i:j]), spine[j]) for i, j in zip(cuts, cuts[1:])]
    return spine[-1], segments


# --- random plans that obey the gateway rule ------------------------------


def random_open_walk_plan(rng: np.random.Generator, g: NetworkGraph) -> AccessPlan:
    """A random hand-built plan for a tree or unicyclic g, by open-edge walks.

    The reference is any site.  Each segment starts at a random site with
    exactly one open edge (measured when the site has no column yet, derived
    when it has one) and walks on while the site it reaches has no column
    and exactly one open edge, stopping early at random; now and then a
    measured segment without steps gives a random site a column.  A
    unicyclic g ends with its cycle solve, which measures the cycle's
    degree-2 sites.
    """
    open_ = {n: set(ns) for n, ns in g.adjacency.items()}
    columns, schedule = set(), []

    def walk(head: int, measured: bool) -> BranchPeel:
        seg = [head]
        while True:
            (nxt,) = open_[seg[-1]]
            open_[seg[-1]].clear()
            open_[nxt].discard(seg[-1])
            seg.append(nxt)
            stop = nxt in columns or len(open_[nxt]) != 1 or rng.random() < 0.3
            columns.add(nxt)
            if stop:
                return BranchPeel(head, tuple(seg[:-1]), nxt, measured)

    ref = int(rng.choice(g.nodes))
    access, path = {ref}, (ref,)
    columns.add(ref)
    if len(open_[ref]) == 1 and rng.random() < 0.8:
        peel = walk(ref, True)
        path = (*peel.nodes, peel.terminal)
    while ready := [n for n in g.nodes if len(open_[n]) == 1]:
        fresh = [n for n in g.nodes if n not in columns]
        lone = bool(fresh) and rng.random() < 0.05
        head = int(rng.choice(fresh if lone else ready))
        measured = head not in columns
        if measured:
            access.add(head)
            columns.add(head)
        schedule.append(BranchPeel(head, (), head, True) if lone else walk(head, measured))
    cycle_plan = None
    if cycle := g.topology.cycle:
        measured = tuple(n for n in cycle if len(g.adjacency[n]) == 2)
        access.update(measured)
        cycle_plan = CyclePlan(cycle, measured, tuple(set(cycle) - set(measured)))
    return AccessPlan(ref, tuple(sorted(access)), path, tuple(schedule), cycle_plan)


# --- direct-sum signal and unpruned Fourier estimator oracles --------------


def direct_return_amplitude(eig, reference: int, times) -> np.ndarray:
    """Return amplitude with one complex exponential per sample and eigenstate."""
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), eig.eigenvalues))
    return phases @ eig.site_amplitudes(reference) ** 2


def unpruned_spectrum_fft(
    signal: TimeSignal, n_peaks: int, *, window: str = "rect"
) -> tuple[SpectrumEstimate, int]:
    """Fourier peak estimate that does every step in full; (estimate, peaks found).

    Every strict local maximum is ranked and kept only if it sits at least two
    bins from each stronger kept one (an O(C^2) loop), and abs and log are
    taken over the whole zero-padded spectrum before three bins around each
    refined maximum are read.  Raises nothing for too few peaks.
    """
    m, pad_factor = len(signal.times), 8
    dt = float(signal.times[1] - signal.times[0])
    win = np.hanning(m) if window == "hann" else np.ones(m)
    tapered = signal.values * win
    mag = np.abs(np.fft.fft(tapered))
    candidates = np.nonzero((mag > np.roll(mag, 1)) & (mag > np.roll(mag, -1)))[0]
    kept: list[int] = []
    for k in candidates[np.argsort(mag[candidates])[::-1]]:
        if not any(min((k - o) % m, (o - k) % m) < 2 for o in kept):
            kept.append(int(k))
    kept = kept[:n_peaks]
    padded = np.abs(np.fft.fft(tapered, n=pad_factor * m))
    mp = len(padded)
    with np.errstate(divide="ignore"):
        log_padded = np.log(padded)
    nyquist, resolution = np.pi / dt, 2.0 * np.pi / (m * dt)
    energies, weights, warnings = [], [], []
    for k0 in kept:
        windowed = (k0 * pad_factor + np.arange(-pad_factor, pad_factor + 1)) % mp
        k = int(windowed[np.argmax(padded[windowed])])
        alpha, beta = log_padded[(k - 1) % mp], log_padded[k]
        gamma = log_padded[(k + 1) % mp]
        denom = alpha - 2.0 * beta + gamma
        if denom >= 0:
            delta, height = 0.0, beta
        else:
            delta = 0.5 * (alpha - gamma) / denom
            height = beta - 0.25 * (alpha - gamma) * delta
        omega = 2.0 * np.pi * (k + delta) / (mp * dt)
        if omega > nyquist:
            omega -= 2.0 * nyquist
        energies.append(-omega)
        weights.append(float(np.exp(height)) / float(win.sum()))
        if nyquist - abs(omega) < 2.0 * resolution:
            warnings.append(f"peak at energy {-omega:.6g} sits near the aliasing edge")
    order = np.argsort(energies)
    energies_arr = np.asarray(energies)[order]
    if len(energies_arr) > 1 and np.any(np.diff(energies_arr) < 0.5 * resolution):
        warnings.append("some peaks are closer than half the spectral resolution")
    estimate = SpectrumEstimate(
        energies_arr, np.asarray(weights)[order], resolution, tuple(warnings)
    )
    return estimate, len(kept)
