"""Recursive reconstruction: chains, branches, sign families, cycle moments."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gateway_tomo
from gateway_tomo import (
    DEFAULT_TOLERANCES,
    AccessPlan,
    BranchPeel,
    GatewayTomoError,
    HamiltonianParams,
    IllConditionedError,
    InconsistentDataError,
    InputError,
    NearZeroDivisionError,
    NetworkGraph,
    NumericError,
    Provenance,
    RankDeficientError,
    SignAmbiguityError,
    SpectralMeasurement,
    Tolerances,
    assemble_single_excitation,
    compute_access_plan,
    eigendecompose,
    gauge_fix,
    graph_from_json,
    measure_exact,
    measure_shots,
    params_from_json,
    reconstruct,
    result_to_json,
)
from gateway_tomo.graphs import CyclePlan
from gateway_tomo.reconstruction import _Block, _Recursion, _schedule
from util import (
    generic_system,
    max_param_error,
    random_open_walk_plan,
    random_params,
    random_tree_edges,
    random_unicyclic_edges,
)


def exact_setup(edges, fields, couplings, *, aggressive=False, signs=None):
    g = NetworkGraph.from_edges(edges, signs=signs)
    params = HamiltonianParams(fields, couplings)
    plan = compute_access_plan(g, aggressive=aggressive)
    eig = gauge_fix(
        eigendecompose(assemble_single_excitation(g, params)), plan.reference
    )
    meas = measure_exact(eig, plan.access_set)
    return g, params, plan, meas


# ----------------------------------------------------------- chain core


def test_chain_path3_hand_oracle():
    g, params, plan, meas = exact_setup(
        [(1, 2), (2, 3)], {1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0}
    )
    assert plan.reference_path == (1, 2, 3)
    assert plan.peel_schedule == ()
    result = reconstruct(g, plan, meas)
    couplings, fields = result.params.couplings, result.params.local_fields
    assert couplings[(1, 2)] == pytest.approx(1.0, abs=1e-12)
    assert couplings[(2, 3)] == pytest.approx(1.0, abs=1e-12)
    for n in (1, 2, 3):
        assert fields[n] == pytest.approx(0.0, abs=1e-12)
    # one sign family: the reference path carries every column, nothing merges
    assert not any(key.startswith("merge_") for key in result.residuals)


def test_path3_full_roundtrip_reports_terminal_residual():
    g, params, plan, meas = exact_setup(
        [(1, 2), (2, 3)], {1: 0.3, 2: -0.2, 3: 0.5}, {(1, 2): 0.8, (2, 3): 1.1}
    )
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-12
    assert result.flags == ()
    assert result.cycle_diagnostics is None
    assert result.residuals["site_3"] < 1e-12


def test_chain_recovers_declared_negative_sign():
    g, params, plan, meas = exact_setup(
        [(1, 2), (2, 3), (3, 4)],
        {1: 0.1, 2: -0.4, 3: 0.2, 4: 0.6},
        {(1, 2): 0.9, (2, 3): -0.7, (3, 4): 1.2},
        signs={(2, 3): -1},
    )
    result = reconstruct(g, plan, meas)
    assert result.params.couplings[(2, 3)] == pytest.approx(-0.7, abs=1e-12)
    assert max_param_error(params, result.params) < 1e-12


def test_global_field_shift_moves_only_fields():
    edges = [(1, 2), (2, 3)]
    base = {1: 0.3, 2: -0.2, 3: 0.5}
    coup = {(1, 2): 0.8, (2, 3): 1.1}
    g, _, plan, meas = exact_setup(edges, base, coup)
    shifted = {n: b + 2.5 for n, b in base.items()}
    _, _, _, meas_shift = exact_setup(edges, shifted, coup)
    a = reconstruct(g, plan, meas)
    b = reconstruct(g, plan, meas_shift)
    for n in g.nodes:
        assert b.params.local_fields[n] - a.params.local_fields[n] == pytest.approx(
            2.5, abs=1e-9
        )
    for e in g.edges:
        assert b.params.couplings[e] == pytest.approx(
            a.params.couplings[e], abs=1e-9
        )


def test_near_zero_coupling_raises_instead_of_dividing():
    meas = SpectralMeasurement(
        (1,),
        np.array([-1.0, 0.0, 1.0]),
        np.array([[math.sqrt(0.5), 0.0, math.sqrt(0.5)]]),
        Provenance("exact"),
    )
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    plan = compute_access_plan(g)
    assert plan.reference_path == (1, 2, 3)
    with pytest.raises(NearZeroDivisionError) as info:
        reconstruct(g, plan, meas)
    assert info.value.node == 2
    assert info.value.edge == (2, 3)
    assert info.value.flag == "NearZeroDivision"
    # a NaN tolerance would switch the guard off; infinity keeps it on
    for bad in (float("nan"), -1.0, "x", None, [1e-9], np.array([1e-9, 1e-9]), 1j, True):
        with pytest.raises(InputError, match="coupling_tol"):
            Tolerances(coupling_tol=bad)
    # every real number >= 0 stays accepted, whatever its type
    for good in (0, 1e-9, np.float64(1e-9), np.array(1e-9), math.inf):
        assert Tolerances(coupling_tol=good).coupling_tol is good
    with pytest.raises(NearZeroDivisionError):
        reconstruct(g, plan, meas, tolerances=Tolerances(coupling_tol=math.inf))


# ----------------------------------------------------------------- trees


def test_tree8_conservative_roundtrip(rng, tree8_graph):
    g, params, plan, eig, meas = generic_system(rng, tree8_graph)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-10
    assert result.residuals["site_3"] < 1e-10
    assert result.flags == ()


def test_tree8_aggressive_roundtrip(rng, tree8_graph):
    g, params, plan, eig, meas = generic_system(rng, tree8_graph, aggressive=True)
    assert plan.access_set == (1, 5)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-10
    assert result.residuals["site_8"] < 1e-10


def test_nested_junction_tree_roundtrip(rng):
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (7, 8), (7, 9)]
    g = NetworkGraph.from_edges(edges)
    g, params, plan, eig, meas = generic_system(rng, g)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-10
    assert all(v < 1e-10 for v in result.residuals.values())


def test_star_aggressive_roundtrip(rng):
    g = NetworkGraph.from_edges([(1, 5), (2, 5), (3, 5), (4, 5)])
    g, params, plan, eig, meas = generic_system(rng, g, aggressive=True)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-10
    assert result.residuals["site_4"] < 1e-10


# --------------------------------------------------------- sign families


def run_blocks(g, plan, meas):
    """The recursion of ``reconstruct`` up to the cycle solve, for inspection."""
    run = _Recursion(g, meas, DEFAULT_TOLERANCES)
    for block in _schedule(g, plan).blocks:
        run.advance(block)
    return run


def test_merge_aligns_incoming_family(rng):
    spider = [(1, 2), (1, 4), (4, 5), (1, 6), (6, 7)]
    # site 7 fires a derived segment that merges into the reference at 3
    nested = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (7, 8), (7, 9)]
    for edges in (spider, nested):
        g = NetworkGraph.from_edges(edges)
        g, params, plan, eig, meas = generic_system(rng, g)
        run = run_blocks(g, plan, meas)
        # every branch merged into the reference family, whose frame is the
        # gauge the eigensystem was fixed in: each arriving column was flipped
        assert set(run.node_family.values()) == {"reference"}
        assert list(run.families) == list(run.peak) == ["reference"]
        assert any((eig.site_amplitudes(n) < 0).any() for n in plan.access_set)
        for n in run.row:
            np.testing.assert_allclose(
                run.vector(n), eig.site_amplitudes(n), atol=1e-12
            )
        assert run.mismatch_log and max(run.mismatch_log.values()) < 1e-12
        # the running peak is the largest modulus over the family's columns
        claimed = np.abs(run.cols[: len(run.row)])
        np.testing.assert_array_equal(run.peak["reference"], claimed.max(axis=0))


def test_merge_keeps_reference_name_when_reference_arrives(rng):
    # path 1-2-3-4: branch 4 claims site 3 first, then the reference family
    # arrives there through a derived segment from 2, so the branch family
    # is the one that flips into the reference frame
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    plan = AccessPlan(
        reference=1,
        access_set=(1, 4),
        reference_path=(1, 2),
        peel_schedule=(BranchPeel(4, (4,), 3, True), BranchPeel(2, (2,), 3, False)),
    )
    g, params = random_params(rng, g)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)
    meas = measure_exact(eig, plan.access_set)
    assert (eig.site_amplitudes(4) < 0).any()
    run = run_blocks(g, plan, meas)
    assert run.node_family == dict.fromkeys((1, 2, 4, 3), "reference")
    assert run.families == {"reference": [1, 2, 4, 3]}
    for n in (1, 2, 3, 4):
        np.testing.assert_allclose(run.vector(n), eig.site_amplitudes(n), atol=1e-12)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-10
    assert result.residuals["merge_3"] < 1e-12


def test_merge_refuses_weak_shared_overlap():
    # the reference hub column vanishes in state 2 (its field is E = 0), so
    # the block kernel refuses leg 5's merge at the hub and writes nothing
    g, plan, meas = two_leg_spider_measurement(
        {2: [0, 1, 2, 1, 0, 0], 5: [1, 2, 3, 4, 5, 6], 7: [3, 2, 3, 4, 2, 3]}
    )
    run = _Recursion(g, meas, DEFAULT_TOLERANCES)
    (block,) = _schedule(g, plan).blocks
    assert len(block.batch) == 3
    with pytest.raises(SignAmbiguityError) as info:
        run.advance(block)
    assert info.value.node == 1
    assert info.value.indices == [2]
    assert info.value.flag == "SignAmbiguity"
    assert not run.row and not run.fields and not run.couplings


def test_table_guards_duplicate_claims():
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    _, params = random_params(np.random.default_rng(3), g, random_signs=False)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)
    meas = measure_exact(eig, (1,))
    # a second measured segment headed at the reference claims it again
    plan = AccessPlan(1, (1,), (1, 2, 3), (BranchPeel(1, (), 1, True),))
    with pytest.raises(InputError, match="site 1 already belongs to a family"):
        reconstruct(g, plan, meas)
    # a derived segment scheduled before anything reaches its head
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    _, params = random_params(np.random.default_rng(3), g, random_signs=False)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)
    early = (BranchPeel(3, (3,), 4, False), BranchPeel(2, (2,), 3, False))
    with pytest.raises(InputError, match="head 3 has no column yet"):
        reconstruct(g, AccessPlan(1, (1,), (1, 2), early), measure_exact(eig, (1,)))
    with pytest.raises(InputError):
        _Recursion(g, measure_exact(eig, (1,)), DEFAULT_TOLERANCES).vector(42)


def test_segment_walking_back_to_its_own_head_is_refused(rng):
    # chain 1-2-3 into the triangle 3-4-5: the measured segment from 3 would
    # consume site 3 while its chain edge is open and walk the triangle back
    # to 3; run anyway, it returned parameters off by 0.5 to 1.3 with exit 0
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    plan = AccessPlan(
        reference=1,
        access_set=(1, 3),
        reference_path=(),
        peel_schedule=(
            BranchPeel(3, (3, 4, 5), 3, True),
            BranchPeel(1, (1, 2), 3, False),
        ),
    )
    g, params = random_params(rng, g)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)
    meas = measure_exact(eig, plan.access_set)
    message = r"site 3 consumed while edge \(2, 3\) is open"
    with pytest.raises(InputError, match=message):
        plan.validate(g)
    with pytest.raises(InputError, match=message):
        reconstruct(g, plan, meas)


def test_batches_keep_a_segment_ending_where_an_earlier_block_reached_alone():
    ref = ("reference", BranchPeel(1, (1, 2), 3, True))
    derived = ("branch:3", BranchPeel(3, (3,), 4, False))
    late = ("branch:5", BranchPeel(5, (5,), 4, True))
    leg = ("branch:7", BranchPeel(7, (7,), 6, True))
    legs = [(f"branch:{h}", BranchPeel(h, (h,), 10, True)) for h in (8, 9)]
    # the path 1-2-3-4-5 with the stray edges 6-7, 8-10 and 9-10, which
    # `validate` accepts: it checks the gateway rule, not connectivity
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (8, 10), (9, 10)]
    g = NetworkGraph.from_edges(edges)
    schedule = tuple(p for _, p in (derived, leg, late, *legs))
    plan = AccessPlan(1, (1, 5, 7, 8, 9), (1, 2, 3), schedule)
    blocks = [list(block.batch) for block in _schedule(g, plan).blocks]
    assert blocks == [[ref], [derived], [leg], [late], legs]


def two_leg_spider_measurement(leaf_moduli):
    """Hub 1 with the reference leaf 2 and legs 1-4-5, 1-6-7, from hand moduli.

    The eigenvalues are -2..3; ``leaf_moduli`` maps each leaf to the weights
    of its modulus squares.
    """
    g = NetworkGraph.from_edges([(1, 2), (1, 4), (4, 5), (1, 6), (6, 7)])
    plan = compute_access_plan(g)
    assert plan.reference_path == (2, 1)
    assert [p.head for p in plan.peel_schedule] == [5, 7]
    weights = np.array([leaf_moduli[n] for n in plan.access_set], dtype=float)
    meas = SpectralMeasurement(
        plan.access_set,
        np.arange(-2.0, 4.0),
        np.sqrt(weights / weights.sum(axis=1, keepdims=True)),
        Provenance("exact"),
    )
    return g, plan, meas


@pytest.mark.parametrize(
    "leg5, expected",
    [
        # leg 5 spans two eigenstates, so its second step divides by zero;
        # leg 7 sits in one eigenstate and would fail already at its first
        ([1, 1, 0, 0, 0, 0], (NearZeroDivisionError, 4, (1, 4), None)),
        # the reference hub column vanishes in state 2 (field at 2 is E = 0),
        # so leg 5's merge at the hub is ambiguous before leg 7 ever runs
        ([1, 2, 3, 4, 5, 6], (SignAmbiguityError, 1, None, [2])),
    ],
)
def test_error_names_the_earliest_failing_segment(leg5, expected):
    g, plan, meas = two_leg_spider_measurement(
        {2: [0, 1, 2, 1, 0, 0], 5: leg5, 7: [1, 0, 0, 0, 0, 0]}
    )
    kind, node, edge, indices = expected
    with pytest.raises(kind) as info:
        reconstruct(g, plan, meas)
    assert info.value.node == node
    assert getattr(info.value, "edge", None) == edge
    assert getattr(info.value, "indices", None) == indices


def two_lane_block_case(leg5, leg7):
    """A hand plan whose lockstep block is its third: a measured head without
    steps (8) splits the blocks, so legs 5-4 and 7-6 run together into hub 9.

    The eigenvalues are -4..4; ``leg5`` and ``leg7`` weigh the modulus squares
    at sites 5 and 7, and the reference 1 and site 8 see every state.
    """
    edges = [(1, 2), (2, 3), (3, 8), (3, 9), (9, 4), (4, 5), (9, 6), (6, 7)]
    g = NetworkGraph.from_edges(edges)
    plan = AccessPlan(1, (1, 5, 7, 8), (1, 2, 3), (
        BranchPeel(8, (), 8, True),
        BranchPeel(5, (5, 4), 9, True),
        BranchPeel(7, (7, 6), 9, True),
        BranchPeel(9, (9,), 3, False),
        BranchPeel(8, (8,), 3, False),
    ))
    weights = np.array([[1, 2, 3, 4, 5, 4, 3, 2, 1], leg5, leg7,
                        [2, 1, 3, 1, 2, 1, 3, 1, 2]], dtype=float)
    meas = SpectralMeasurement(
        plan.access_set,
        np.arange(-4.0, 5.0),
        np.sqrt(weights / weights.sum(axis=1, keepdims=True)),
        Provenance("exact"),
    )
    return g, plan, meas


ONE_STATE, TWO_STATES = [1] + [0] * 8, [1, 1] + [0] * 7
EVERY_STATE = [3, 1, 4, 1, 5, 9, 2, 6, 5]


@pytest.mark.parametrize(
    "leg5, leg7, expected",
    [
        # one eigenstate: the lane's first step divides by zero at its head
        (ONE_STATE, EVERY_STATE, (5, (4, 5))),
        (EVERY_STATE, ONE_STATE, (7, (6, 7))),
        # two eigenstates: the lane's second step divides by zero
        (TWO_STATES, EVERY_STATE, (4, (4, 9))),
        # both fail; run together, leg 7's first step would fail before leg
        # 5's second, but one segment at a time leg 5 fails first
        (TWO_STATES, ONE_STATE, (4, (4, 9))),
        (ONE_STATE, ONE_STATE, (5, (4, 5))),
    ],
)
def test_failing_block_after_the_first_raises_as_one_segment_at_a_time(leg5, leg7,
                                                                       expected):
    g, plan, meas = two_lane_block_case(leg5, leg7)
    blocks = _schedule(g, plan).blocks
    assert [len(block.batch) for block in blocks] == [1, 1, 2, 1, 1]
    slow = _Recursion(g, meas, DEFAULT_TOLERANCES)
    with pytest.raises(NearZeroDivisionError) as one_at_a_time:
        for block in blocks:
            for segment in block.batch:
                slow.advance(_Block(slow, [segment]))
    with pytest.raises(GatewayTomoError) as info:
        reconstruct(g, plan, meas)
    got, want = info.value, one_at_a_time.value
    assert type(got) is type(want) and got.flag == want.flag
    assert (got.node, got.edge) == (want.node, want.edge) == expected
    assert getattr(got, "indices", None) == getattr(want, "indices", None)


def test_derived_segment_failing_at_its_head_names_head_and_edge():
    # the reference path stops at 2 and a derived segment continues from it;
    # site 2's column, less its known neighbor 1, vanishes in every state
    meas = SpectralMeasurement(
        (1,),
        np.array([-1.0, 0.0, 1.0]),
        np.array([[math.sqrt(0.5), 0.0, math.sqrt(0.5)]]),
        Provenance("exact"),
    )
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    plan = AccessPlan(1, (1,), (1, 2), (BranchPeel(2, (2,), 3, False),))
    with pytest.raises(NearZeroDivisionError) as info:
        reconstruct(g, plan, meas)
    assert info.value.node == 2
    assert info.value.edge == (2, 3)
    assert info.value.flag == "NearZeroDivision"


def test_block_aligns_states_only_the_arriving_column_carries():
    # leg 5's own columns stay below overlap_tol in state 0, but the column it
    # derives for the hub rises above it there, so state 0 takes its sign from
    # the hub instead of defaulting to +1
    g, plan, meas = two_leg_spider_measurement(
        {2: [3, 2, 1, 4, 1, 2], 5: [1e-18, 2, 1, 4, 3, 4], 7: [3, 2, 3, 4, 2, 3]}
    )
    (block,) = _schedule(g, plan).blocks
    fast, slow = (_Recursion(g, meas, DEFAULT_TOLERANCES) for _ in range(2))
    fast.advance(block)
    for segment in block.batch:
        slow.advance(_Block(slow, [segment]))
    assert 0 < abs(slow.vector(5)[0]) < DEFAULT_TOLERANCES.overlap_tol
    assert slow.vector(5)[0] < 0 < meas.moduli_of(5)[0]
    for n in slow.row:
        np.testing.assert_array_equal(fast.vector(n), slow.vector(n))
    assert fast.mismatch_log == slow.mismatch_log


@given(st.integers(0, 2**32 - 1), st.integers(3, 16), st.booleans())
def test_any_plan_that_validates_reconstructs_or_raises_numeric_error(seed, n, tree):
    """Hand-built plans from random open-edge walks, which `validate` accepts,
    bring exact data back to 1e-8 or fail with a typed numeric error."""
    rng = np.random.default_rng(seed)
    if tree:
        edges = random_tree_edges(rng, n)
    else:
        edges = random_unicyclic_edges(rng, n, int(rng.integers(3, n + 1)))
    g = NetworkGraph.from_edges(edges)
    plan = random_open_walk_plan(rng, g)
    plan.validate(g)
    g, params, plan, eig, meas = generic_system(rng, g, plan=plan)
    try:
        result = reconstruct(g, plan, meas)
    except NumericError:
        return
    assert max_param_error(params, result.params) < 1e-8


def claimed_twice_case():
    """A hand-built star plan that derives site 5 twice."""
    g = NetworkGraph.from_edges([(1, 5), (2, 5), (3, 5), (4, 5)])
    plan = AccessPlan(
        reference=1,
        access_set=(1, 2, 4),
        reference_path=(1, 5),
        peel_schedule=(
            BranchPeel(2, (2, 5), 3, True),
            BranchPeel(4, (4,), 5, True),
        ),
    )
    _, params = random_params(np.random.default_rng(5), g, random_signs=False)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)
    return g, plan, measure_exact(eig, plan.access_set)


def test_hand_built_plan_claiming_a_site_twice_raises_input_error():
    g, plan, meas = claimed_twice_case()
    with pytest.raises(InputError, match="site 5 claimed twice"):
        reconstruct(g, plan, meas)


def test_plan_checks_survive_python_optimize():
    code = (
        "import re\n"
        "from gateway_tomo import InputError, NetworkGraph, reconstruct\n"
        "from test_graphs import REFUSED_PLANS\n"
        "from test_reconstruction import claimed_twice_case\n"
        "try:\n"
        "    reconstruct(*claimed_twice_case())\n"
        "except InputError as exc:\n"
        "    print('InputError', exc)\n"
        "for case, (edges, plan, message) in REFUSED_PLANS.items():\n"
        "    try:\n"
        "        plan.validate(NetworkGraph.from_edges(edges))\n"
        "        print('accepted', case)\n"
        "    except InputError as exc:\n"
        "        if not re.search(message, str(exc)):\n"
        "            print('wrong message', case, exc)\n"
    )
    paths = [str(Path(gateway_tomo.__file__).parents[1]), str(Path(__file__).parent)]
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": ":".join(paths), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "InputError site 5 claimed twice\n"


def test_block_matches_running_one_segment_at_a_time():
    rng = np.random.default_rng(11)
    compared, several, raised = 0, 0, 0
    for trial in range(40):
        if trial % 2:
            edges = random_tree_edges(rng, int(rng.integers(6, 30)))
        else:
            edges = [(1, 2 + k) for k in range(5)] + [
                (2 + k, 7 + k) for k in range(4)
            ] + [(7, 12), (8, 13)]
        g, params = random_params(rng, NetworkGraph.from_edges(edges))
        plan = compute_access_plan(g, aggressive=trial % 4 == 1)
        eig = gauge_fix(
            eigendecompose(assemble_single_excitation(g, params)), plan.reference
        )
        # few shots often make a step or a merge fail; many rarely do
        shots = 10**4 if trial % 3 == 0 else 10**8
        meas = measure_shots(eig, plan.access_set, shots, seed=trial)
        fast, slow = (_Recursion(g, meas, DEFAULT_TOLERANCES) for _ in range(2))
        for block in _schedule(g, plan).blocks:
            before = snapshot(fast)
            try:
                for segment in block.batch:
                    slow.advance(_Block(slow, [segment]))
            except GatewayTomoError:
                # the block raises too and leaves everything untouched
                with pytest.raises(GatewayTomoError):
                    fast.advance(block)
                assert snapshot(fast) == before
                raised += 1
                break
            fast.advance(block)
            compared += 1
            several += len(block.batch) > 1
            assert fast.fields == slow.fields and fast.couplings == slow.couplings
            assert fast.mismatch_log == slow.mismatch_log
            assert fast.node_family == slow.node_family
            assert {k: sorted(v) for k, v in fast.families.items()} == {
                k: sorted(v) for k, v in slow.families.items()
            }
            assert fast.peak.keys() == slow.peak.keys()
            for family in fast.families:
                np.testing.assert_array_equal(fast.peak[family], slow.peak[family])
            for n in fast.row:
                np.testing.assert_array_equal(fast.vector(n), slow.vector(n))
    assert compared >= 60 and several >= 25 and raised >= 8


def snapshot(run):
    cols = {n: run.vector(n).tolist() for n in run.row}
    peaks = {k: v.tolist() for k, v in run.peak.items()}
    families = {k: list(v) for k, v in run.families.items()}
    return (dict(run.fields), dict(run.couplings), cols, peaks, families,
            dict(run.node_family), dict(run.mismatch_log))



def dense_sum_rule(run, couplings):
    """Sum over states of [(E - b_n) v(n) - sum_u c_nu v(u)]^2 at every claimed
    site n, from the whole column matrix and coupling matrix at once."""
    sites = sorted(run.row)
    at = {n: i for i, n in enumerate(sites)}
    v = np.array([run.vector(n) for n in sites])
    b = (run.eigenvalues * v**2).sum(axis=1)
    c = np.zeros((len(sites), len(sites)))
    for (n, u), x in couplings.items():
        c[at[n], at[u]] = c[at[u], at[n]] = x
    r = (run.eigenvalues - b[:, None]) * v - c @ v
    return dict(zip(sites, (r**2).sum(axis=1)))


def test_site_residuals_are_the_sum_rule_on_shot_records():
    """On 1e4-shot records the leftover equations are far from zero; each
    reported residual is still exactly its site's sum rule."""
    rng = np.random.default_rng(29)
    spider = [(1, a) for a in range(2, 22, 2)] + [(a, a + 1) for a in range(2, 22, 2)]
    cases = [(spider, False)]
    cases += [(random_tree_edges(rng, int(rng.integers(6, 30))), True) for _ in range(80)]
    residuals = []
    for edges, aggressive in cases:
        g, params = random_params(rng, NetworkGraph.from_edges(edges))
        plan = compute_access_plan(g, aggressive=aggressive)
        try:
            eig = gauge_fix(
                eigendecompose(assemble_single_excitation(g, params)), plan.reference
            )
            meas = measure_shots(eig, plan.access_set, 10**4, seed=len(residuals))
            result = reconstruct(g, plan, meas)
        except GatewayTomoError:
            continue
        dense = dense_sum_rule(run_blocks(g, plan, meas), result.params.couplings)
        checks = plan.check_sites(g)
        assert 1 in checks or edges is not spider  # the hub sums ten known legs
        # a tree that is a path leaves only its far end, whose sum rule holds
        # for any normalized record: zero up to rounding, squares of 1e-14
        for n in checks:
            got = result.residuals[f"site_{n}"]
            assert got == pytest.approx(dense[n], rel=1e-12, abs=1e-24)
            residuals.append(dense[n])
    assert len(residuals) >= 30 and np.median(residuals) > 1e-2


# ---------------------------------------------------------------- cycles


def test_fmo_roundtrip_needs_third_moments(rng, fmo_graph):
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-9
    assert "RankAugmented" in result.flags
    diag = result.cycle_diagnostics
    assert diag is not None
    assert diag.moments_used == ("second", "third")
    assert diag.rank == 4
    assert diag.min_square > 0
    assert diag.condition_number >= 1
    assert diag.lstsq_residual < 1e-12


def test_triangle_with_branch_uses_second_moments_only(rng):
    g = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (2, 4)])
    g, params, plan, eig, meas = generic_system(rng, g)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-9
    assert result.flags == ()
    assert result.cycle_diagnostics.moments_used == ("second",)


def test_uniform_fields_on_even_cycle_are_unresolvable(fmo_graph):
    fields = {n: 0.3 for n in fmo_graph.nodes}
    couplings = {e: c for e, c in zip(
        fmo_graph.edges, (0.8, 1.1, 0.9, 1.3, 0.7, 1.2, 0.6)
    )}
    g, params, plan, meas = exact_setup(fmo_graph.edges, fields, couplings)
    with pytest.raises(RankDeficientError) as info:
        reconstruct(g, plan, meas)
    assert info.value.flag == "RankDeficientUnresolvable"


def test_pure_cycles_roundtrip(rng):
    odd = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    g, params, plan, eig, meas = generic_system(rng, odd)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-9
    assert result.flags == ()

    even = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
    g, params, plan, eig, meas = generic_system(rng, even)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-9
    assert "RankAugmented" in result.flags


def test_connector_junction_feeding_cycle(rng):
    edges = [(1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7), (5, 7)]
    g = NetworkGraph.from_edges(edges)
    g, params, plan, eig, meas = generic_system(rng, g)
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-9
    assert result.cycle_diagnostics.moments_used == ("second",)


def test_fmo_shot_record_contradicting_the_cycle_is_refused():
    """The bundled FMO network and plan on a 100-shot record (seed 2): the
    moment solve gives cycle edge (4, 7) a negative squared coupling."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    g = graph_from_json(json.loads((configs / "fmo_graph.json").read_text()))
    params = params_from_json(json.loads((configs / "fmo_params.json").read_text()))
    plan = compute_access_plan(g)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), plan.reference)
    meas = measure_shots(eig, plan.access_set, 100, seed=2)
    with pytest.raises(InconsistentDataError) as info:
        reconstruct(g, plan, meas)
    assert info.value.flag == "InconsistentData"
    assert str(info.value) == (
        "squared coupling on cycle edge (4, 7) solved to -2.149e-01; "
        "the moment data contradicts the declared topology"
    )


@pytest.mark.parametrize("edges, length", [
    ([(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (5, 6), (3, 7), (2, 8)], 4),
    ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 7), (7, 8), (4, 9),
      (3, 10), (10, 11)], 6),
    ([(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (2, 6)], 3),
    ([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (3, 7), (7, 8), (4, 9)], 5),
])
def test_cycles_with_branches_on_several_sites_roundtrip(rng, edges, length):
    """Tree branches on two or more cycle sites put several known-neighbor
    terms into the second moments and, on even cycles, the third."""
    g, params, plan, eig, meas = generic_system(rng, NetworkGraph.from_edges(edges))
    assert len(plan.cycle_plan.cycle) == length
    assert len(plan.cycle_plan.attachments) >= 2
    result = reconstruct(g, plan, meas)
    assert max_param_error(params, result.params) < 1e-9
    diag = result.cycle_diagnostics
    even = length % 2 == 0
    assert diag.moments_used == (("second", "third") if even else ("second",))
    assert diag.rank == length
    assert result.flags == (("RankAugmented",) if even else ())


# ------------------------------------------------------ result handling


def test_known_fields_become_consistency_checks():
    g, params, plan, meas = exact_setup(
        [(1, 2), (2, 3)], {1: 0.3, 2: -0.2, 3: 0.5}, {(1, 2): 0.8, (2, 3): 1.1}
    )
    good = reconstruct(g, plan, meas, known_fields={2: -0.2})
    assert good.residuals["field_supplied_2"] < 1e-12
    off = reconstruct(g, plan, meas, known_fields={2: 0.3})
    assert off.residuals["field_supplied_2"] == pytest.approx(0.5, abs=1e-9)
    bad = [{42: 0.0}, {0: 0.0}, {"2": 0.0}, {True: 0.0}, {2: math.nan},
           {2: math.inf}, {2: "abc"}, {2: None}, {2: True}]
    for known in bad:
        with pytest.raises(InputError, match="site"):
            reconstruct(g, plan, meas, known_fields=known)


def test_result_json_is_a_complete_record(rng, fmo_graph):
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    result = reconstruct(g, plan, meas)
    doc = json.loads(json.dumps(result_to_json(result)))
    recovered = params_from_json({"b": doc["b"], "c": doc["c"]})
    assert max_param_error(result.params, recovered) < 1e-12
    assert doc["flags"] == ["RankAugmented"]
    assert doc["cycle_diagnostics"]["moments_used"] == ["second", "third"]
    assert all(isinstance(v, float) for v in doc["residuals"].values())


# ------------------------------------------------------- compiled schedule


def test_an_overflowing_record_is_refused_not_returned():
    """Eigenvalues scaled by 1e300 overflow the recursion; the result's own
    check refuses the non-finite field instead of returning it."""
    legs = [e for k in range(5) for e in ((1, 2 + 2 * k), (2 + 2 * k, 3 + 2 * k))]
    g, params, plan, eig, meas = generic_system(
        np.random.default_rng(4), NetworkGraph.from_edges(legs),
        field_range=(-0.1, 0.1), coupling_range=(0.8, 1.2))
    huge = SpectralMeasurement(meas.nodes, meas.eigenvalues * 1e300, meas.moduli,
                               meas.provenance)
    refusal = r"local field at site \d+ is not a number"
    with np.errstate(all="ignore"), pytest.raises(InputError, match=refusal):
        reconstruct(g, plan, huge)


def test_graphs_and_plans_hash_once(rng, fmo_graph):
    """A schedule lookup reads a stored hash instead of walking every field."""
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    twin = NetworkGraph(g.nodes, g.edges, g.signs)
    assert hash(twin) == hash(g) and hash(compute_access_plan(twin)) == hash(plan)
    for frozen in (g, plan):
        first = hash(frozen)
        # a field that could not be hashed again: only the stored hash answers
        object.__setattr__(frozen, "access_set" if frozen is plan else "edges", [[0]])
        assert hash(frozen) == first


def count_validations(monkeypatch):
    """Empty the schedule cache and record every `AccessPlan.validate` call."""
    calls, validate = [], AccessPlan.validate

    def counted(plan, g):
        calls.append(plan)
        return validate(plan, g)

    monkeypatch.setattr(AccessPlan, "validate", counted)
    _schedule.cache_clear()
    return calls


def test_schedule_is_validated_once_per_graph_and_plan(monkeypatch, rng, fmo_graph):
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    calls = count_validations(monkeypatch)
    first = result_to_json(reconstruct(g, plan, meas))
    # an equal graph and an equal plan, built afresh, share the schedule
    twin = NetworkGraph(g.nodes, g.edges, g.signs)
    twin_plan = compute_access_plan(twin)
    assert twin_plan == plan and twin_plan is not plan
    for graph, access in [(g, plan), (twin, twin_plan)] * 2:
        assert result_to_json(reconstruct(graph, access, meas)) == first
    assert calls == [plan]
    assert _schedule.cache_info().misses == 1


def test_kept_plan_finds_its_schedule_by_identity(monkeypatch, rng, fmo_graph):
    """A graph keeps its plan, so a second roundtrip's schedule lookup is one
    hit that compares no plan field by field."""
    g, params, plan, eig, meas = generic_system(rng, fmo_graph, random_signs=False)
    first = result_to_json(reconstruct(g, compute_access_plan(g), meas))
    compared, eq = [], AccessPlan.__eq__
    monkeypatch.setattr(AccessPlan, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
    before = _schedule.cache_info()
    assert result_to_json(reconstruct(g, compute_access_plan(g), meas)) == first
    after = _schedule.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert compared == []


def test_invalid_plan_raises_on_every_call(monkeypatch):
    g, plan, meas = claimed_twice_case()
    calls = count_validations(monkeypatch)
    for _ in range(3):
        with pytest.raises(InputError, match="site 5 claimed twice"):
            reconstruct(g, plan, meas)
    assert len(calls) == 3
    assert _schedule.cache_info().currsize == 0


def test_cached_schedule_still_applies_each_calls_tolerances(rng, fmo_graph):
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    _schedule.cache_clear()
    loose = result_to_json(reconstruct(g, plan, meas))
    with pytest.raises(NearZeroDivisionError):
        reconstruct(g, plan, meas, tolerances=Tolerances(coupling_tol=math.inf))
    # a condition number is at least 1
    with pytest.raises(IllConditionedError):
        reconstruct(g, plan, meas, tolerances=Tolerances(condition_limit=0.5))
    assert result_to_json(reconstruct(g, plan, meas)) == loose
    assert _schedule.cache_info().misses == 1


def test_supplied_fields_are_compared_per_call_on_a_cached_schedule():
    g, params, plan, meas = exact_setup(
        [(1, 2), (2, 3)], {1: 0.3, 2: -0.2, 3: 0.5}, {(1, 2): 0.8, (2, 3): 1.1}
    )
    _schedule.cache_clear()
    cold = reconstruct(g, plan, meas, known_fields={2: 0.3})
    warm = reconstruct(g, plan, meas, known_fields={2: 0.3})
    assert warm.residuals == cold.residuals
    assert warm.residuals["field_supplied_2"] == pytest.approx(0.5, abs=1e-9)
    other = reconstruct(g, plan, meas, known_fields={1: 0.3, 3: 0.0})
    assert other.residuals["field_supplied_1"] < 1e-12
    assert other.residuals["field_supplied_3"] == pytest.approx(0.5, abs=1e-9)
    assert "field_supplied_2" not in other.residuals
    assert _schedule.cache_info().misses == 1


def test_plan_built_from_lists_reconstructs(rng, fmo_graph):
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    parts = plan.cycle_plan
    cycle = CyclePlan(list(parts.cycle), list(parts.measured), list(parts.attachments))
    path = list(plan.reference_path)
    listed = AccessPlan(plan.reference, list(plan.access_set), path, cycle_plan=cycle)
    assert listed == plan
    assert result_to_json(reconstruct(g, listed, meas)) == result_to_json(
        reconstruct(g, plan, meas)
    )
