"""Network topology: graphs, infection closures, and access planning.

A network is an undirected simple graph with integer site labels and a
declared sign for every coupling.  This module classifies topologies,
computes zero-forcing (infection) closures, and turns a graph plus a chosen
reference site into an access plan: which sites must be measured, in which
order branch segments are peeled, and which sites are left over as
consistency checks.

Everything here is pure bookkeeping on the graph; no spectral data is
touched.  Apart from the shared strict-JSON reader, which brings numpy, only
the standard library is used.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

from ._json import strict_object
from .errors import CapabilityError, InputError, NotEstimableError

Edge = tuple[int, int]
_SEARCH_CAP = 16  # most sites minimum_infecting_sets will search exhaustively


def edge_key(u: int, v: int) -> Edge:
    """Canonical (smaller, larger) form of an undirected edge."""
    if u == v:
        raise InputError(f"self-loop at site {u} is not allowed")
    return (u, v) if u < v else (v, u)


def _check_site(n: object) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"site labels must be integers, got {n!r}")
    if n < 1:
        raise InputError(f"site labels must be positive, got {n}")
    return n


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected simple graph with signed edges.

    ``nodes`` and ``edges`` are normalized on construction: nodes sorted,
    edges canonicalized to (smaller, larger) and sorted.  ``signs`` may be
    passed as a mapping from edge to +/-1 (missing edges default to +1) or
    as a sequence aligned with ``edges``; it is stored aligned with the
    sorted edge tuple.
    """

    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    signs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        nodes = tuple(sorted({_check_site(n) for n in self.nodes}))
        if not nodes:
            raise InputError("graph needs at least one site")

        raw_edges = [tuple(e) for e in self.edges]
        for e in raw_edges:
            if len(e) != 2:
                raise InputError(f"edge {e!r} is not a pair of sites")
        keyed = [edge_key(_check_site(u), _check_site(v)) for u, v in raw_edges]
        if len(set(keyed)) != len(keyed):
            dupes = sorted({e for e in keyed if keyed.count(e) > 1})
            raise InputError(f"duplicate edges: {dupes}")
        node_set = set(nodes)
        for u, v in keyed:
            if u not in node_set or v not in node_set:
                raise InputError(f"edge ({u}, {v}) references an unknown site")

        signs = self.signs
        if isinstance(signs, Mapping):
            unknown = set(signs) - set(keyed)
            if unknown:
                raise InputError(f"signs given for non-edges: {sorted(unknown)}")
            sign_of = {e: signs.get(e, 1) for e in keyed}
        else:
            signs = tuple(signs)
            if signs and len(signs) != len(keyed):
                raise InputError(
                    f"got {len(signs)} signs for {len(keyed)} edges"
                )
            sign_of = dict(zip(keyed, signs)) if signs else {e: 1 for e in keyed}
        for e, s in sign_of.items():
            if s not in (1, -1):
                raise InputError(f"sign of edge {e} must be +1 or -1, got {s!r}")

        order = sorted(range(len(keyed)), key=lambda i: keyed[i])
        sorted_edges = tuple(keyed[i] for i in order)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", sorted_edges)
        object.__setattr__(self, "signs", tuple(sign_of[e] for e in sorted_edges))

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        *,
        signs: Mapping[Edge, int] | None = None,
    ) -> "NetworkGraph":
        """Build a graph from an edge list, inferring the node set."""
        edges = tuple(tuple(e) for e in edges)
        nodes = sorted({n for e in edges for n in e})
        return cls(tuple(nodes), edges, signs or {})

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {n: tuple(sorted(ns)) for n, ns in nbrs.items()}

    @cached_property
    def sign_of(self) -> dict[Edge, int]:
        return dict(zip(self.edges, self.signs))

    @cached_property
    def topology(self) -> TopologyClass:
        if not _is_connected(self):
            return TopologyClass(TopologyKind.DISCONNECTED)
        excess = len(self.edges) - len(self.nodes) + 1
        if excess == 0:
            max_deg = max(map(len, self.adjacency.values()))
            kind = TopologyKind.PATH if max_deg <= 2 else TopologyKind.TREE
            return TopologyClass(kind, excess=0)
        if excess == 1:
            cycle = _ordered_cycle(self, _two_core(self))
            return TopologyClass(TopologyKind.UNICYCLIC, cycle=cycle, excess=1)
        return TopologyClass(TopologyKind.MULTI_CYCLE, excess=excess)

    def degree(self, n: int) -> int:
        return len(self.adjacency[n])


def graph_to_json(g: NetworkGraph) -> dict:
    return {
        "nodes": list(g.nodes),
        "edges": [{"u": u, "v": v, "sign": s} for (u, v), s in zip(g.edges, g.signs)],
    }


def graph_from_json(data: object) -> NetworkGraph:
    """Parse the strict graph schema: {"nodes": [...], "edges": [{u, v, sign?}]}."""
    doc = strict_object(data, "graph document", ("nodes", "edges"))
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise InputError('"nodes" and "edges" must be arrays')
    edges, signs = [], {}
    for i, item in enumerate(doc["edges"]):
        item = strict_object(item, f"graph edge {i}", ("u", "v"), ("sign",))
        e = edge_key(_check_site(item["u"]), _check_site(item["v"]))
        edges.append(e)
        if "sign" in item:
            signs[e] = item["sign"]
    return NetworkGraph(tuple(doc["nodes"]), tuple(edges), signs)


# ---------------------------------------------------------------------------
# Infection (zero forcing)
# ---------------------------------------------------------------------------


def infection_closure(g: NetworkGraph, seeds: Iterable[int]) -> frozenset[int]:
    """Spread infection until no infected site has a unique healthy neighbor.

    The closure is independent of the order in which infections fire, so a
    worklist keeps a healthy-neighbor count per infected site and revisits
    only sites whose count may have dropped to one: O(N + E).
    """
    infected = set(seeds)
    adj = g.adjacency
    bad = infected - adj.keys()
    if bad:
        raise InputError(f"seed sites not in graph: {sorted(bad)}")
    healthy = {}
    work = []
    for n in infected:
        healthy[n] = k = len(adj[n]) - len(infected.intersection(adj[n]))
        if k == 1:
            work.append(n)
    while work:
        n = work.pop()
        if healthy[n] == 1:
            (u,) = set(adj[n]).difference(infected)
            infected.add(u)
            k = 0
            for w in adj[u]:
                if w in infected:
                    healthy[w] -= 1
                    work.append(w)
                else:
                    k += 1
            healthy[u] = k
            work.append(u)
    return frozenset(infected)


def is_infecting(g: NetworkGraph, seeds: Iterable[int]) -> bool:
    return len(infection_closure(g, seeds)) == len(g.nodes)


def minimum_infecting_sets(g: NetworkGraph) -> tuple[tuple[int, ...], ...]:
    """All infecting sets of minimum size, in lexicographic order.

    Exhaustive search; refuses graphs with more than ``_SEARCH_CAP`` sites.
    """
    n = len(g.nodes)
    if n > _SEARCH_CAP:
        raise CapabilityError(
            f"exhaustive infecting-set search over {n} sites exceeds the "
            f"{_SEARCH_CAP}-site cap"
        )
    for size in range(1, n + 1):
        hits = [
            seeds
            for seeds in itertools.combinations(g.nodes, size)
            if is_infecting(g, seeds)
        ]
        if hits:
            return tuple(hits)
    raise AssertionError("the full node set always infects itself")


# ---------------------------------------------------------------------------
# Topology classification
# ---------------------------------------------------------------------------


class TopologyKind(str, Enum):
    PATH = "path"
    TREE = "tree"
    UNICYCLIC = "unicyclic"
    MULTI_CYCLE = "multi_cycle"
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class TopologyClass:
    kind: TopologyKind
    cycle: tuple[int, ...] | None = None
    excess: int | None = None


def _is_connected(g: NetworkGraph) -> bool:
    seen = {g.nodes[0]}
    queue = deque(seen)
    while queue:
        n = queue.popleft()
        for u in g.adjacency[n]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(g.nodes)


def _two_core(g: NetworkGraph) -> set[int]:
    deg = {n: len(ns) for n, ns in g.adjacency.items()}
    queue = deque(n for n in g.nodes if deg[n] <= 1)
    dead: set[int] = set()
    while queue:
        n = queue.popleft()
        if n in dead:
            continue
        dead.add(n)
        for u in g.adjacency[n]:
            if u not in dead:
                deg[u] -= 1
                if deg[u] <= 1:
                    queue.append(u)
    return set(g.nodes) - dead


def _ordered_cycle(g: NetworkGraph, members: set[int]) -> tuple[int, ...]:
    """Walk the unique cycle starting at its smallest site, toward the
    smaller of that site's two cycle neighbors."""
    start = min(members)
    first = min(u for u in g.adjacency[start] if u in members)
    order = [start, first]
    prev, cur = start, first
    while cur != start:
        nxt = next(u for u in g.adjacency[cur] if u in members and u != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order[:-1])


def classify_topology(g: NetworkGraph) -> TopologyClass:
    """The class of ``g``, cached as ``g.topology``: decided once per graph."""
    return g.topology


def is_estimable(g: NetworkGraph) -> tuple[bool, str | None]:
    """Whether boundary spectral data can determine the network at all.

    Requires a connected graph with no more edges than sites.
    """
    if g.topology.kind is TopologyKind.DISCONNECTED:
        return False, "graph is disconnected"
    if g.topology.kind is TopologyKind.MULTI_CYCLE:
        return False, (
            f"more edges than sites (cycle excess {g.topology.excess}); "
            "independent loops cannot all be resolved"
        )
    return True, None


# ---------------------------------------------------------------------------
# Access planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchPeel:
    """One reconstruction segment.

    ``nodes`` lists the sites whose sum-rule equations this segment consumes,
    head first; the terminal site is reached but not consumed.  A segment
    seeded by measurement starts from the moduli of an accessed leaf; a
    derived segment starts from an eigenvector column produced by earlier
    segments.
    """

    head: int
    nodes: tuple[int, ...]
    terminal: int
    seeded_by_measurement: bool


@dataclass(frozen=True)
class CyclePlan:
    """Cycle sites split by how their moment data is obtained."""

    cycle: tuple[int, ...]
    measured: tuple[int, ...]
    attachments: tuple[int, ...]


@dataclass(frozen=True)
class AccessPlan:
    """Everything reconstruction needs to know about measurement layout.

    ``reference_path`` runs from the reference site to the first branching
    or cycle site.  ``peel_schedule`` is ordered: a derived segment never
    appears before the segments that determine its head vector.  A plan can
    run when it obeys the gateway rule, which `validate` checks: a site's
    sum rule is consumed only while exactly one of its edges is unresolved,
    the one its segment walks next.
    """

    reference: int
    access_set: tuple[int, ...]
    reference_path: tuple[int, ...]
    peel_schedule: tuple[BranchPeel, ...] = ()
    cycle_plan: CyclePlan | None = None
    aggressive: bool = False

    @property
    def consumed_sites(self) -> tuple[int, ...]:
        sites = list(self.reference_path[:-1])
        for peel in self.peel_schedule:
            sites.extend(peel.nodes)
        if self.cycle_plan is not None:
            sites.extend(self.cycle_plan.cycle)
        return tuple(sites)

    def check_sites(self, g: NetworkGraph) -> tuple[int, ...]:
        """Sites whose equations are left over as consistency checks."""
        return tuple(sorted(set(g.nodes) - set(self.consumed_sites)))

    def validate(self, g: NetworkGraph) -> None:
        """Raise InputError unless the plan can run on ``g``.

        Replays the reference path, ``peel_schedule`` and the cycle plan over
        the unresolved edges.  A measured head must be accessed and new, a
        derived head must have a column.  A step consumes a site whose only
        open edge it walks and gives the next site a column; only a terminal
        may be reached again, where families merge.  A cycle site must have
        just its cycle edges open, a measured one must be an accessed leaf of
        the cycle, an attachment must have a column.  No edge may stay open.
        ``reconstruct`` runs this on every plan; no other code checks it.
        """
        access = set(self.access_set)
        if not access <= g.adjacency.keys():
            raise InputError("access set contains unknown sites")
        path = self.reference_path or (self.reference,)
        if path[0] != self.reference:
            raise InputError("reference path does not start at the reference site")
        open_ = {n: set(ns) for n, ns in g.adjacency.items()}  # unresolved edges
        columns: set[int] = set()
        reference = BranchPeel(path[0], path[:-1], path[-1], True)
        for peel in (reference, *self.peel_schedule):
            head, nodes = peel.head, peel.nodes
            if not peel.seeded_by_measurement:
                if head not in columns:
                    raise InputError(f"derived segment head {head} has no column yet")
            elif head not in access:
                raise InputError(f"measured segment head {head} is not accessed")
            elif head in columns:
                raise InputError(f"site {head} already belongs to a family")
            columns.add(head)
            if nodes and nodes[0] != head:
                raise InputError(f"segment at {head} does not start at its head")
            for i, (n, nxt) in enumerate(zip(nodes, (*nodes[1:], peel.terminal))):
                if nxt not in open_[n]:
                    e = edge_key(n, nxt)
                    raise InputError(f"segment at {head} walks {e}, not an open edge")
                if len(open_[n]) > 1:
                    e = edge_key(n, min(open_[n] - {nxt}))
                    raise InputError(f"site {n} consumed while edge {e} is open")
                open_[n].clear()
                open_[nxt].remove(n)
                if nxt in columns and i + 1 < len(nodes):
                    raise InputError(f"site {nxt} claimed twice")
                columns.add(nxt)
        if self.cycle_plan is not None:
            cyc, measured = self.cycle_plan.cycle, set(self.cycle_plan.measured)
            if measured | set(self.cycle_plan.attachments) != set(cyc):
                raise InputError("cycle plan does not partition the cycle sites")
            for n, u, w in zip(cyc, cyc[-1:] + cyc[:-1], cyc[1:] + cyc[:1]):
                if u == w or open_.get(n) != {u, w}:
                    raise InputError(f"cycle site {n} needs just its cycle edges open")
                if n in measured and (n not in access or len(g.adjacency[n]) != 2):
                    raise InputError(f"measured cycle site {n} is not an accessed leaf")
                if n not in measured and n not in columns:
                    raise InputError(f"cycle attachment {n} has no column yet")
            for n in cyc:
                open_[n].clear()
        for n, ns in open_.items():
            if ns:
                raise InputError(f"plan leaves edge {edge_key(n, min(ns))} unresolved")


def _spine_path(g: NetworkGraph, jstar: int, parent: int) -> list[int]:
    """Descend from a junction into its largest child subtree until a leaf.

    Ties between equal subtree sizes go to the larger child label, which
    drops the lexicographically largest leaf from the access set.
    """
    adj = g.adjacency
    up = {jstar: parent}
    order = [jstar]
    for n in order:
        for u in adj[n]:
            if u != up[n]:
                up[u] = n
                order.append(u)
    size = dict.fromkeys(order, 1)
    for n in order[:0:-1]:
        size[up[n]] += size[n]
    path = [jstar]
    while True:
        children = [u for u in adj[path[-1]] if u != up[path[-1]]]
        if not children:
            return path
        path.append(max(children, key=lambda c: (size[c], c)))


def compute_access_plan(
    g: NetworkGraph, reference: int | None = None, *, aggressive: bool = False
) -> AccessPlan:
    """Choose accessed sites and a reconstruction order for ``g``.

    The standard rule accesses every leaf (trees) plus every degree-2 cycle
    site (unicyclic); a pure path needs only its reference end and a pure
    cycle needs every site.  The aggressive variant applies to trees only
    and drops one leaf by consuming branching-site equations along a single
    descending spine.  Every segment follows the single open edge of its
    head, closing each edge it crosses, until it reaches a stop site or a
    dead end.  A branching site that may fire heads a derived segment once
    exactly one of its edges is still open.  The plan is valid by
    construction and not re-checked here: ``reconstruct`` validates every
    plan it receives.
    """
    ok, reason = is_estimable(g)
    if not ok:
        raise NotEstimableError(reason)
    topo = g.topology
    if len(g.nodes) < 2:
        raise InputError("access planning needs at least two sites")
    adj = g.adjacency
    if reference is not None and reference not in adj:
        raise InputError(f"reference site {reference} is not in the graph")
    if aggressive and topo.kind not in (TopologyKind.PATH, TopologyKind.TREE):
        raise CapabilityError("aggressive planning is only available for trees")

    cycle = set(topo.cycle or ())
    leaves = [n for n in g.nodes if len(adj[n]) == 1]
    hubs = {n for n in g.nodes if len(adj[n]) >= 3}

    if topo.kind is TopologyKind.PATH:
        if reference is not None and reference not in leaves:
            raise InputError(
                f"reference {reference} must be an end site of the path"
            )
        ref = reference if reference is not None else min(leaves)
        access = {ref}
    elif topo.kind is TopologyKind.TREE:
        if reference is not None and reference not in leaves:
            raise InputError(f"reference {reference} must be a leaf site")
        ref = reference if reference is not None else min(leaves)
        access = set(leaves)
    else:
        access = set(leaves) | (cycle - hubs)
        default = min(leaves) if leaves else min(cycle)
        ref = reference if reference is not None else default
        if ref not in access:
            raise InputError(
                f"reference {ref} must be an accessed site (one of {sorted(access)})"
            )

    open_ = {n: set(ns) for n, ns in adj.items()}

    def walk(start: int, stops: set[int]) -> list[int]:
        seg = [start]
        while open_[seg[-1]] and (len(seg) == 1 or seg[-1] not in stops):
            nxt = open_[seg[-1]].pop()
            open_[nxt].discard(seg[-1])
            seg.append(nxt)
        return seg

    path = [ref] if ref in cycle else walk(ref, cycle | hubs)

    spine: list[int] = []
    if aggressive and topo.kind is TopologyKind.TREE:
        spine = _spine_path(g, path[-1], path[-2])
        access.discard(spine[-1])

    anchors = set(path) | cycle | set(spine)
    stops = anchors | hubs
    fires = hubs - (cycle if topo.kind is TopologyKind.UNICYCLIC else anchors)
    schedule: list[BranchPeel] = []
    heads = [n for n in leaves if n in access and n != ref]
    measured = True
    while heads:
        reached = set()
        for head in heads:
            seg = walk(head, stops)
            schedule.append(BranchPeel(head, tuple(seg[:-1]), seg[-1], measured))
            reached.add(seg[-1])
        measured = False
        heads = sorted(n for n in reached & fires if len(open_[n]) == 1)

    if spine:
        head = spine[0]
        while open_[head]:
            seg = walk(head, hubs)
            schedule.append(BranchPeel(head, tuple(seg[:-1]), seg[-1], False))
            head = seg[-1]

    cycle_plan = None
    if cycle:
        cycle_plan = CyclePlan(
            tuple(topo.cycle), tuple(sorted(cycle - hubs)), tuple(sorted(cycle & hubs))
        )

    return AccessPlan(
        reference=ref,
        access_set=tuple(sorted(access)),
        reference_path=tuple(path),
        peel_schedule=tuple(schedule),
        cycle_plan=cycle_plan,
        aggressive=aggressive,
    )
