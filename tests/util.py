"""Shared helpers for the test suite.

Random instance generators (trees via Prufer sequences, unicyclic graphs,
generic parameter draws with rejection against spectral pathologies) plus a
deliberately independent infection simulator used to cross-check the package
implementation.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from gateway_tomo import (
    HamiltonianParams,
    NetworkGraph,
    assemble_single_excitation,
    compute_access_plan,
    eigendecompose,
    gauge_fix,
    measure_exact,
)


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
    **param_kw,
):
    """Rejection-sample a parameter draw free of spectral pathologies.

    Returns (graph, params, plan, gauge-fixed eigensystem, exact measurement).
    Degenerate or nearly dark draws are discarded so failures in the round
    trip point at the reconstruction, not at an unlucky instance.
    """
    plan = compute_access_plan(g, aggressive=aggressive)
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
