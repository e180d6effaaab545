"""Graph model, infection rule, topology classifier, and access planner."""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gateway_tomo import (
    AccessPlan,
    BranchPeel,
    CapabilityError,
    InputError,
    NetworkGraph,
    NotEstimableError,
    TopologyKind,
    classify_topology,
    compute_access_plan,
    edge_key,
    graph_from_json,
    graph_to_json,
    infection_closure,
    is_estimable,
    is_infecting,
    minimum_infecting_sets,
)
from gateway_tomo import graphs
from gateway_tomo.graphs import CyclePlan
from util import (
    brute_minimum_sets,
    closure_mask,
    graph_to_masks,
    random_multicycle_edges,
    random_spider_edges,
    random_tree_edges,
    random_unicyclic_edges,
    spine_oracle,
)


def nx_of(g: NetworkGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    return h


# --------------------------------------------------------------- edge_key


def test_edge_key_orders_endpoints():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


def test_edge_key_rejects_self_loop():
    with pytest.raises(InputError):
        edge_key(2, 2)


# --------------------------------------------------------- graph building


def test_from_edges_infers_sorted_nodes():
    g = NetworkGraph.from_edges([(3, 1), (2, 3)])
    assert g.nodes == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))
    assert g.sign_of[(1, 3)] == 1


def test_signs_mapping_defaults_to_plus_one():
    g = NetworkGraph.from_edges([(1, 2), (2, 3)], signs={(2, 3): -1})
    assert g.sign_of[(1, 2)] == 1
    assert g.sign_of[(2, 3)] == -1


def test_adjacency_and_degree(fmo_graph):
    assert fmo_graph.adjacency[4] == (3, 5, 7)
    assert fmo_graph.degree(4) == 3
    assert fmo_graph.degree(1) == 1


def test_duplicate_edges_rejected():
    with pytest.raises(InputError):
        NetworkGraph.from_edges([(1, 2), (2, 1)])


def test_edge_outside_declared_nodes_rejected():
    with pytest.raises(InputError):
        NetworkGraph((1, 2), ((1, 2), (2, 3)))


def test_nonpositive_node_labels_rejected():
    with pytest.raises(InputError):
        NetworkGraph.from_edges([(0, 1)])


def test_bad_sign_values_rejected():
    with pytest.raises(InputError):
        NetworkGraph.from_edges([(1, 2)], signs={(1, 2): 0})
    with pytest.raises(InputError):
        NetworkGraph.from_edges([(1, 2)], signs={(1, 3): 1})


# ------------------------------------------------------------------ JSON


def test_graph_json_roundtrip(fmo_graph):
    g = NetworkGraph(fmo_graph.nodes, fmo_graph.edges, {(4, 7): -1})
    again = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert again == g
    assert again.sign_of[(4, 7)] == -1


def test_graph_json_rejects_unknown_keys():
    doc = graph_to_json(NetworkGraph.from_edges([(1, 2)]))
    for bad, match in [
        ({**doc, "colour": "blue"}, r"graph document has unknown keys \['colour'\]"),
        ([doc], "graph document must be a JSON object"),
        ({"nodes": [1, 2]}, 'graph document needs "edges"'),
    ]:
        with pytest.raises(InputError, match=match):
            graph_from_json(bad)


def test_graph_json_rejects_malformed_edge():
    with pytest.raises(InputError, match='graph edge 0 needs "v"'):
        graph_from_json({"nodes": [1, 2], "edges": [{"u": 1}]})
    with pytest.raises(InputError):
        graph_from_json({"nodes": [1, 2], "edges": [{"u": 1, "v": 2, "sign": 2}]})
    with pytest.raises(InputError, match="graph edge 0 must be a JSON object"):
        graph_from_json({"nodes": [1, 2], "edges": [[1, 2]]})
    with pytest.raises(InputError, match="graph edge 0 has unknown keys"):
        graph_from_json({"nodes": [1, 2], "edges": [{"u": 1, "v": 2, "w": 1.0}]})


# -------------------------------------------------------------- infection


def test_closure_stalls_at_junction(fmo_graph, tree8_graph):
    assert infection_closure(fmo_graph, [1]) == frozenset({1, 2, 3, 4})
    assert infection_closure(tree8_graph, [1]) == frozenset({1, 2, 3})
    assert infection_closure(fmo_graph, [4]) == frozenset({4})


def test_closure_covers_graph_from_good_seeds(fmo_graph, tree8_graph):
    assert infection_closure(fmo_graph, [1, 5]) == frozenset(fmo_graph.nodes)
    assert infection_closure(tree8_graph, [1, 5]) == frozenset(tree8_graph.nodes)
    assert is_infecting(tree8_graph, [1, 5])


def test_closure_edge_cases(fmo_graph):
    assert infection_closure(fmo_graph, []) == frozenset()
    assert infection_closure(fmo_graph, fmo_graph.nodes) == frozenset(fmo_graph.nodes)
    with pytest.raises(InputError):
        infection_closure(fmo_graph, [42])


def test_minimum_infecting_sets_path():
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    assert minimum_infecting_sets(g) == ((1,), (3,))


def test_minimum_infecting_sets_tree8(tree8_graph):
    sets = minimum_infecting_sets(tree8_graph)
    assert sets == brute_minimum_sets(tree8_graph)
    assert all(len(s) == 2 for s in sets)
    assert (1, 5) in sets


def test_minimum_infecting_sets_star():
    g = NetworkGraph.from_edges([(1, 5), (2, 5), (3, 5), (4, 5)])
    sets = minimum_infecting_sets(g)
    assert sets == brute_minimum_sets(g)
    assert sets[0] == (1, 2, 3)
    assert all(len(s) == 3 for s in sets)


def test_minimum_infecting_sets_needs_three_on_pendant_cycle():
    g = NetworkGraph.from_edges(
        [(1, 5), (2, 5), (3, 6), (4, 6), (5, 6), (6, 7), (5, 7)]
    )
    sets = minimum_infecting_sets(g)
    assert sets == brute_minimum_sets(g)
    assert all(len(s) == 3 for s in sets)
    assert (1, 2, 3) in sets


def test_minimum_infecting_sets_size_guard():
    g = NetworkGraph.from_edges([(i, i + 1) for i in range(1, 18)])
    with pytest.raises(CapabilityError):
        minimum_infecting_sets(g)


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_closure_matches_bitmask_oracle_on_trees(seed, n):
    rng = np.random.default_rng(seed)
    g = NetworkGraph.from_edges(random_tree_edges(rng, n))
    adj, index = graph_to_masks(g)
    for _ in range(5):
        take = rng.random(n) < 0.4
        seeds = [node for node, t in zip(g.nodes, take) if t]
        want = closure_mask(adj, sum(1 << index[s] for s in seeds))
        got = sum(1 << index[s] for s in infection_closure(g, seeds))
        assert got == want


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["unicyclic", "multicycle", "spider"]),
)
def test_closure_matches_bitmask_oracle_beyond_trees(seed, family):
    """Cycles, several cycles, and long-leg spiders whose labels are shuffled
    so that infection runs against label order; seeds are also passed as a
    generator, with duplicates and in shuffled order."""
    rng = np.random.default_rng(seed)
    if family == "unicyclic":
        n = int(rng.integers(3, 13))
        edges = random_unicyclic_edges(rng, n, int(rng.integers(3, n + 1)))
    elif family == "multicycle":
        n = int(rng.integers(4, 13))
        edges = random_multicycle_edges(rng, n, int(rng.integers(2, n)))
    else:
        n = int(rng.integers(20, 61))
        legs = int(rng.integers(3, 7))
        longest = int(rng.uniform(0.4, 0.6) * (n - 1))
        cuts = np.sort(rng.choice(np.arange(1, n - 1 - longest), legs - 2, replace=False))
        rest = np.diff([0, *cuts, n - 1 - longest])
        edges = random_spider_edges(rng, [longest, *map(int, rest)])
    g = NetworkGraph.from_edges(edges)
    adj, index = graph_to_masks(g)
    for density in (0.05, 0.2, 0.4, 0.7):
        seeds = [node for node in g.nodes if rng.random() < density]
        want = closure_mask(adj, sum(1 << index[s] for s in seeds))
        got = infection_closure(g, seeds)
        assert sum(1 << index[s] for s in got) == want
        assert is_infecting(g, seeds) == (want == (1 << n) - 1)
        shuffled = [int(s) for s in rng.permutation(seeds)]
        assert infection_closure(g, iter(shuffled)) == got
        assert infection_closure(g, shuffled + seeds[::2]) == got


@given(st.integers(0, 2**32 - 1), st.integers(4, 9))
def test_closure_monotone_and_idempotent(seed, n):
    rng = np.random.default_rng(seed)
    g = NetworkGraph.from_edges(random_unicyclic_edges(rng, n, min(n, 4)))
    seeds = [node for node in g.nodes if rng.random() < 0.5]
    closed = infection_closure(g, seeds)
    assert closed >= frozenset(seeds)
    assert infection_closure(g, closed) == closed
    bigger = set(seeds) | {g.nodes[0]}
    assert infection_closure(g, bigger) >= closed


# ------------------------------------------------------------- classifier


def test_classify_path_and_single_node():
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    topo = classify_topology(g)
    assert topo.kind is TopologyKind.PATH
    assert topo.cycle is None
    assert topo.excess == 0
    lone = NetworkGraph((1,), ())
    assert classify_topology(lone).kind is TopologyKind.PATH


def test_classify_tree(tree8_graph):
    topo = classify_topology(tree8_graph)
    assert topo.kind is TopologyKind.TREE
    assert topo.excess == 0


def test_classify_cycle_orientation():
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    topo = classify_topology(g)
    assert topo.kind is TopologyKind.UNICYCLIC
    assert topo.cycle == (1, 2, 3, 4, 5)


def test_classify_fmo(fmo_graph):
    topo = classify_topology(fmo_graph)
    assert topo.kind is TopologyKind.UNICYCLIC
    assert topo.cycle == (4, 5, 6, 7)
    assert topo.excess == 1


def test_classify_multi_cycle_and_disconnected():
    k4 = NetworkGraph.from_edges(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    topo = classify_topology(k4)
    assert topo.kind is TopologyKind.MULTI_CYCLE
    assert topo.excess == 3
    split = NetworkGraph((1, 2, 3, 4), ((1, 2), (3, 4)))
    assert classify_topology(split).kind is TopologyKind.DISCONNECTED


def test_is_estimable_verdicts(fmo_graph):
    ok, reason = is_estimable(fmo_graph)
    assert ok and reason is None
    k4 = NetworkGraph.from_edges(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    ok, reason = is_estimable(k4)
    assert not ok
    assert "cycle excess 3" in reason
    split = NetworkGraph((1, 2, 3), ((1, 2),))
    ok, reason = is_estimable(split)
    assert not ok
    assert "disconnected" in reason


def test_topology_is_classified_once_per_graph(monkeypatch):
    calls = []
    connected = graphs._is_connected
    monkeypatch.setattr(graphs, "_is_connected", lambda g: calls.append(g) or connected(g))
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
    assert classify_topology(g).kind is TopologyKind.TREE
    assert is_estimable(g) == (True, None)
    compute_access_plan(g)
    compute_access_plan(g, aggressive=True)
    assert len(calls) == 1


@given(st.integers(0, 2**32 - 1), st.integers(3, 10))
def test_classifier_agrees_with_networkx(seed, n):
    rng = np.random.default_rng(seed)
    if n >= 4 and rng.random() < 0.5:
        g = NetworkGraph.from_edges(random_unicyclic_edges(rng, n, int(rng.integers(3, n + 1))))
    else:
        g = NetworkGraph.from_edges(random_tree_edges(rng, n))
    h = nx_of(g)
    topo = classify_topology(g)
    assert nx.is_connected(h)
    if topo.kind in (TopologyKind.PATH, TopologyKind.TREE):
        assert nx.is_tree(h)
        assert topo.cycle is None
    else:
        assert topo.kind is TopologyKind.UNICYCLIC
        (basis,) = nx.cycle_basis(h)
        assert set(topo.cycle) == set(basis)
    assert topo.excess == len(g.edges) - len(g.nodes) + 1


# ---------------------------------------------------------------- planner


def test_plan_path_uses_single_end():
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    plan = compute_access_plan(g)
    assert plan.reference == 1
    assert plan.access_set == (1,)
    assert plan.reference_path == (1, 2, 3)
    assert plan.peel_schedule == ()
    assert plan.cycle_plan is None


def test_plan_tree8_conservative(tree8_graph):
    plan = compute_access_plan(tree8_graph)
    assert plan.reference == 1
    assert plan.access_set == (1, 5, 8)
    assert plan.reference_path == (1, 2, 3)
    assert [(p.head, p.nodes, p.terminal, p.seeded_by_measurement) for p in plan.peel_schedule] == [
        (5, (5, 4), 3, True),
        (8, (8, 7, 6), 3, True),
    ]
    assert plan.check_sites(tree8_graph) == (3,)
    plan.validate(tree8_graph)


def test_plan_tree8_aggressive(tree8_graph):
    plan = compute_access_plan(tree8_graph, aggressive=True)
    assert plan.access_set == (1, 5)
    assert plan.aggressive
    assert [(p.head, p.nodes, p.terminal, p.seeded_by_measurement) for p in plan.peel_schedule] == [
        (5, (5, 4), 3, True),
        (3, (3, 6, 7), 8, False),
    ]
    assert plan.check_sites(tree8_graph) == (8,)


def test_plan_star_aggressive_drops_one_leaf():
    g = NetworkGraph.from_edges([(1, 5), (2, 5), (3, 5), (4, 5)])
    plan = compute_access_plan(g, aggressive=True)
    assert plan.access_set == (1, 2, 3)
    assert plan.check_sites(g) == (4,)


def test_plan_fmo(fmo_graph):
    plan = compute_access_plan(fmo_graph)
    assert plan.reference == 1
    assert plan.access_set == (1, 5, 6, 7)
    assert plan.reference_path == (1, 2, 3, 4)
    assert plan.cycle_plan is not None
    assert plan.cycle_plan.cycle == (4, 5, 6, 7)
    assert plan.cycle_plan.measured == (5, 6, 7)
    assert plan.cycle_plan.attachments == (4,)
    assert plan.check_sites(fmo_graph) == ()


def test_plan_pure_cycle_measures_everything():
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    plan = compute_access_plan(g)
    assert plan.reference == 1
    assert plan.access_set == (1, 2, 3, 4, 5)
    assert plan.cycle_plan.measured == (1, 2, 3, 4, 5)
    assert plan.cycle_plan.attachments == ()


def test_plan_explicit_reference(tree8_graph):
    plan = compute_access_plan(tree8_graph, reference=5)
    assert plan.reference == 5
    assert plan.reference_path == (5, 4, 3)
    assert 5 in plan.access_set


def test_plan_rejects_unknown_reference(tree8_graph):
    with pytest.raises(InputError):
        compute_access_plan(tree8_graph, reference=99)


def test_plan_aggressive_reserved_for_trees(fmo_graph):
    with pytest.raises(CapabilityError):
        compute_access_plan(fmo_graph, aggressive=True)


def test_plan_rejects_multi_cycle():
    k4 = NetworkGraph.from_edges(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    with pytest.raises(NotEstimableError) as info:
        compute_access_plan(k4)
    assert info.value.flag == "NotEstimable"


def test_planner_reads_degrees_from_adjacency(monkeypatch, fmo_graph):
    tree = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (5, 7)])
    calls = []
    key, degree = graphs.edge_key, NetworkGraph.degree
    monkeypatch.setattr(graphs, "edge_key", lambda u, v: calls.append(u) or key(u, v))
    monkeypatch.setattr(NetworkGraph, "degree", lambda g, n: calls.append(n) or degree(g, n))
    for g in (tree, fmo_graph):
        compute_access_plan(g)
    compute_access_plan(tree, aggressive=True)
    assert calls == []


PATH4 = [(1, 2), (2, 3), (3, 4)]
STAR = [(1, 5), (2, 5), (3, 5), (4, 5)]
TRIANGLE = [(1, 2), (2, 3), (1, 3)]
FMO = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 7)]
FMO_CYCLE = CyclePlan((4, 5, 6, 7), (5, 6, 7), (4,))
REFUSED_PLANS = {
    "unknown-access": (PATH4, AccessPlan(1, (1, 9), (1, 2, 3, 4)), "unknown sites"),
    "reference-not-accessed": (
        PATH4, AccessPlan(1, (4,), (1, 2, 3, 4)), "measured segment head 1 is not"
    ),
    "path-off-reference": (
        PATH4, AccessPlan(1, (1,), (2, 1)), "does not start at the reference"
    ),
    "measured-head-not-accessed": (
        PATH4,
        AccessPlan(1, (1,), (1, 2, 3), (BranchPeel(4, (4,), 3, True),)),
        "measured segment head 4 is not accessed",
    ),
    "measured-head-has-column": (
        PATH4,
        AccessPlan(1, (1,), (1, 2, 3), (BranchPeel(1, (), 1, True),)),
        "site 1 already belongs to a family",
    ),
    "derived-head-without-column": (
        PATH4,
        AccessPlan(
            1, (1,), (1, 2),
            (BranchPeel(3, (3,), 4, False), BranchPeel(2, (2,), 3, False)),
        ),
        "derived segment head 3 has no column yet",
    ),
    "segment-off-its-head": (
        PATH4,
        AccessPlan(1, (1, 4), (1, 2, 3), (BranchPeel(4, (3,), 4, True),)),
        "segment at 4 does not start at its head",
    ),
    "walks-a-non-edge": (
        PATH4, AccessPlan(1, (1,), (1, 3, 4)), r"walks \(1, 3\), not an open edge"
    ),
    "walks-a-resolved-edge": (
        PATH4,
        AccessPlan(
            1, (1, 4), (1, 2, 3),
            (BranchPeel(4, (4,), 3, True), BranchPeel(3, (3,), 4, False)),
        ),
        r"walks \(3, 4\), not an open edge",
    ),
    "consumes-with-two-open-edges": (
        STAR,
        AccessPlan(1, (1, 2), (1, 5, 2)),
        r"site 5 consumed while edge \(3, 5\) is open",
    ),
    "claims-a-site-twice": (
        STAR,
        AccessPlan(
            1, (1, 2, 4), (1, 5),
            (BranchPeel(2, (2, 5), 3, True), BranchPeel(4, (4,), 5, True)),
        ),
        "site 5 claimed twice",
    ),
    "cycle-site-with-open-tree-edge": (
        FMO,
        AccessPlan(1, (1, 5, 6, 7), (1, 2, 3), cycle_plan=FMO_CYCLE),
        "cycle site 4 needs just its cycle edges open",
    ),
    "cycle-not-partitioned": (
        TRIANGLE,
        AccessPlan(1, (1, 2), (), cycle_plan=CyclePlan((1, 2, 3), (1, 2), ())),
        "does not partition",
    ),
    "attachment-without-column": (
        TRIANGLE,
        AccessPlan(1, (1, 2), (), cycle_plan=CyclePlan((1, 2, 3), (1, 2), (3,))),
        "cycle attachment 3 has no column yet",
    ),
    "measured-cycle-site-not-accessed": (
        TRIANGLE,
        AccessPlan(1, (1, 2), (), cycle_plan=CyclePlan((1, 2, 3), (1, 2, 3), ())),
        "measured cycle site 3 is not an accessed leaf",
    ),
    "measured-cycle-hub": (
        FMO,
        AccessPlan(
            1, (1, 4, 5, 6, 7), (1, 2, 3, 4),
            cycle_plan=CyclePlan((4, 5, 6, 7), (4, 5, 6, 7), ()),
        ),
        "measured cycle site 4 is not an accessed leaf",
    ),
    "edge-left-open": (
        PATH4, AccessPlan(1, (1,), (1, 2, 3)), r"leaves edge \(3, 4\) unresolved"
    ),
}


@pytest.mark.parametrize("case", REFUSED_PLANS)
def test_validate_refuses_plans_that_break_the_gateway_rule(case):
    edges, plan, message = REFUSED_PLANS[case]
    with pytest.raises(InputError, match=message):
        plan.validate(NetworkGraph.from_edges(edges))


def test_validate_accepts_the_refused_cases_mended():
    g = NetworkGraph.from_edges(FMO)
    AccessPlan(1, (1, 5, 6, 7), (1, 2, 3, 4), cycle_plan=FMO_CYCLE).validate(g)
    star = NetworkGraph.from_edges(STAR)
    legs = (BranchPeel(2, (2,), 5, True), BranchPeel(4, (4,), 5, True))
    last = BranchPeel(5, (5,), 3, False)
    AccessPlan(1, (1, 2, 4), (1, 5), (*legs, last)).validate(star)
    # a measured segment without steps may claim a hub that arrivals reach later
    hub = (BranchPeel(5, (), 5, True), *legs, BranchPeel(1, (1,), 5, False), last)
    AccessPlan(1, (1, 2, 4, 5), (), hub).validate(star)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_plan_access_is_infecting_on_trees(seed, n):
    """Plans from every valid reference (any leaf) are coherent: the planner
    does not check its own output, so this is where that is verified."""
    rng = np.random.default_rng(seed)
    g = NetworkGraph.from_edges(random_tree_edges(rng, n))
    leaves = [v for v in g.nodes if g.degree(v) == 1]
    for aggressive in (False, True):
        for reference in (None, *leaves):
            plan = compute_access_plan(g, reference, aggressive=aggressive)
            assert isinstance(plan, AccessPlan)
            assert plan.reference == (reference or min(leaves))
            assert is_infecting(g, plan.access_set)
            covered = set(plan.consumed_sites) | set(plan.check_sites(g))
            assert covered == set(g.nodes)
            plan.validate(g)


@given(st.integers(0, 2**32 - 1), st.integers(4, 12))
def test_plan_access_is_infecting_on_unicyclic(seed, n):
    """Plans from every valid reference (any accessed site) are coherent."""
    rng = np.random.default_rng(seed)
    g = NetworkGraph.from_edges(
        random_unicyclic_edges(rng, n, int(rng.integers(3, n + 1)))
    )
    default = compute_access_plan(g)
    for reference in default.access_set:
        plan = compute_access_plan(g, reference)
        assert plan.reference == reference
        assert plan.access_set == default.access_set
        assert is_infecting(g, plan.access_set)
        assert set(plan.cycle_plan.measured) <= set(plan.access_set)
        plan.validate(g)


@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.booleans())
def test_aggressive_spine_matches_brute_force_oracle(seed, n, equal_legs):
    """The aggressive plan drops the oracle's leaf and ends with its spine
    segments; equal-leg stars tie at the hub, where the larger label wins."""
    rng = np.random.default_rng(seed)
    if equal_legs:
        legs = int(rng.integers(3, 7))
        edges = random_spider_edges(rng, [max(1, (n - 1) // legs)] * legs)
    else:
        edges = random_tree_edges(rng, n)
    g = NetworkGraph.from_edges(edges)
    if classify_topology(g).kind is TopologyKind.PATH:
        return
    dropped, segments = spine_oracle(g)
    plan = compute_access_plan(g, aggressive=True)
    leaves = {v for v in g.nodes if g.degree(v) == 1}
    assert leaves - set(plan.access_set) == {dropped}
    tail = plan.peel_schedule[len(plan.peel_schedule) - len(segments):]
    assert [(p.head, p.nodes, p.terminal) for p in tail] == segments
    assert not any(p.seeded_by_measurement for p in tail)
