"""Recursive reconstruction: chains, branches, sign families, cycle moments."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gateway_tomo
from gateway_tomo import (
    DEFAULT_TOLERANCES,
    AccessPlan,
    BranchPeel,
    CoefficientTable,
    GatewayTomoError,
    HamiltonianParams,
    InputError,
    NearZeroDivisionError,
    NetworkGraph,
    Provenance,
    RankDeficientError,
    SignAmbiguityError,
    SpectralMeasurement,
    Tolerances,
    assemble_single_excitation,
    compute_access_plan,
    eigendecompose,
    gauge_fix,
    measure_exact,
    measure_shots,
    params_from_json,
    reconstruct,
    result_to_json,
)
from gateway_tomo.reconstruction import _Recursion
from util import generic_system, max_param_error, random_params, random_tree_edges


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
    for bad in (float("nan"), -1.0):
        with pytest.raises(InputError, match="coupling_tol"):
            Tolerances(coupling_tol=bad)
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


def test_merge_aligns_incoming_family():
    table = CoefficientTable(np.array([-1.0, 0.0, 1.0]))
    table.seed("reference", 1, np.array([0.6, 0.1, 0.7]))
    table.add("reference", 3, np.array([0.5, 0.5, 0.5]))
    table.seed("branch:5", 5, np.array([0.3, 0.4, 0.3]))
    survivor = table.merge(3, "branch:5", np.array([0.5, -0.5, 0.5]), 1e-9)
    assert survivor == "reference"
    assert table.family_of(5) == "reference"
    np.testing.assert_allclose(table.vector(5), [0.3, -0.4, 0.3], atol=1e-15)
    np.testing.assert_allclose(table.vector(3), [0.5, 0.5, 0.5], atol=1e-15)
    assert table.mismatch_log["merge_3"] == pytest.approx(0.0, abs=1e-15)
    assert len(table.families) == 1


def test_merge_keeps_reference_name_when_reference_arrives():
    table = CoefficientTable(np.array([-1.0, 0.0, 1.0]))
    table.seed("branch:9", 9, np.array([0.2, -0.3, 0.4]))
    table.add("branch:9", 3, np.array([0.5, 0.5, 0.5]))
    table.seed("reference", 1, np.array([0.6, 0.1, 0.7]))
    survivor = table.merge(3, "reference", np.array([0.5, -0.5, 0.5]), 1e-9)
    assert survivor == "reference"
    assert table.family_of(3) == "reference"
    assert table.family_of(9) == "reference"
    np.testing.assert_allclose(table.vector(3), [0.5, -0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(table.vector(9), [0.2, 0.3, 0.4], atol=1e-15)


def test_merge_refuses_weak_shared_overlap():
    table = CoefficientTable(np.array([-1.0, 0.0, 1.0]))
    table.seed("reference", 3, np.array([0.5, 0.5, 0.5]))
    table.seed("branch:5", 5, np.array([0.3, 0.4, 0.3]))
    with pytest.raises(SignAmbiguityError) as info:
        table.merge(3, "branch:5", np.array([0.5, 0.0, 0.5]), 1e-9)
    assert info.value.node == 3
    assert info.value.indices == [1]
    assert info.value.flag == "SignAmbiguity"


def test_table_guards_duplicate_claims():
    table = CoefficientTable(np.array([-1.0, 1.0]))
    table.seed("reference", 1, np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        table.seed("reference", 2, np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        table.vector(42)


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


def test_lockstep_aligns_states_only_the_arriving_column_carries():
    # leg 5's own columns stay below overlap_tol in state 0, but the column it
    # derives for the hub rises above it there, so state 0 takes its sign from
    # the hub instead of defaulting to +1
    g, plan, meas = two_leg_spider_measurement(
        {2: [3, 2, 1, 4, 1, 2], 5: [1e-18, 2, 1, 4, 3, 4], 7: [3, 2, 3, 4, 2, 3]}
    )
    path = plan.reference_path
    batch = [("reference", BranchPeel(path[0], path[:-1], path[-1], True))]
    batch += [(f"branch:{p.head}", p) for p in plan.peel_schedule]
    fast, slow = (_Recursion(g, meas, DEFAULT_TOLERANCES) for _ in range(2))
    assert fast.lockstep(batch)
    for family, peel in batch:
        slow.walk(family, peel)
    assert 0 < abs(slow.table.vector(5)[0]) < DEFAULT_TOLERANCES.overlap_tol
    assert slow.table.vector(5)[0] < 0 < meas.moduli_of(5)[0]
    for n in slow.table.row:
        np.testing.assert_array_equal(fast.table.vector(n), slow.table.vector(n))
    assert fast.table.mismatch_log == slow.table.mismatch_log


def claimed_twice_case():
    """A hand-built star plan that passes validation but derives site 5 twice."""
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
    plan.validate(g)
    _, params = random_params(np.random.default_rng(5), g, random_signs=False)
    eig = gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)
    return g, plan, measure_exact(eig, plan.access_set)


def test_hand_built_plan_claiming_a_site_twice_raises_input_error():
    g, plan, meas = claimed_twice_case()
    with pytest.raises(InputError, match="site 5 claimed twice"):
        reconstruct(g, plan, meas)


def test_plan_checks_survive_python_optimize():
    code = (
        "from gateway_tomo import InputError, reconstruct\n"
        "from test_reconstruction import claimed_twice_case\n"
        "try:\n"
        "    reconstruct(*claimed_twice_case())\n"
        "except InputError as exc:\n"
        "    print('InputError', exc)\n"
    )
    paths = [str(Path(gateway_tomo.__file__).parents[1]), str(Path(__file__).parent)]
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": ":".join(paths), "PATH": ""},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InputError site 5 claimed twice")


def test_lockstep_matches_walking_one_segment_at_a_time():
    rng = np.random.default_rng(11)
    compared = 0
    for trial in range(20):
        if trial % 2:
            edges = random_tree_edges(rng, int(rng.integers(6, 30)))
        else:
            edges = [(1, 2 + k) for k in range(5)] + [
                (2 + k, 7 + k) for k in range(4)
            ] + [(7, 12), (8, 13)]
        g, params = random_params(rng, NetworkGraph.from_edges(edges))
        plan = compute_access_plan(g)
        eig = gauge_fix(
            eigendecompose(assemble_single_excitation(g, params)), plan.reference
        )
        meas = measure_shots(eig, plan.access_set, 10**4, seed=trial)
        path = plan.reference_path
        batch = [("reference", BranchPeel(path[0], path[:-1], path[-1], True))]
        batch += [
            (f"branch:{p.head}", p)
            for p in plan.peel_schedule
            if p.seeded_by_measurement
        ]
        fast, slow = (_Recursion(g, meas, DEFAULT_TOLERANCES) for _ in range(2))
        ok = fast.lockstep(batch)
        try:
            for family, peel in batch:
                slow.walk(family, peel)
        except GatewayTomoError:
            # the lockstep refuses instead and leaves everything untouched
            assert not ok
            assert not fast.table.row and not fast.fields and not fast.couplings
            continue
        assert ok
        compared += 1
        assert fast.fields == slow.fields and fast.couplings == slow.couplings
        t1, t2 = fast.table, slow.table
        assert t1.mismatch_log == t2.mismatch_log
        assert t1.node_family == t2.node_family
        assert {k: sorted(v) for k, v in t1.families.items()} == {
            k: sorted(v) for k, v in t2.families.items()
        }
        for family in t1.families:
            np.testing.assert_array_equal(t1.peak[family], t2.peak[family])
        for n in t1.row:
            np.testing.assert_array_equal(t1.vector(n), t2.vector(n))
    assert compared >= 10



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


# ------------------------------------------------------ result handling


def test_known_fields_become_consistency_checks():
    g, params, plan, meas = exact_setup(
        [(1, 2), (2, 3)], {1: 0.3, 2: -0.2, 3: 0.5}, {(1, 2): 0.8, (2, 3): 1.1}
    )
    good = reconstruct(g, plan, meas, known_fields={2: -0.2})
    assert good.residuals["field_supplied_2"] < 1e-12
    off = reconstruct(g, plan, meas, known_fields={2: 0.3})
    assert off.residuals["field_supplied_2"] == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(InputError):
        reconstruct(g, plan, meas, known_fields={42: 0.0})


def test_result_json_is_a_complete_record(rng, fmo_graph):
    g, params, plan, eig, meas = generic_system(rng, fmo_graph)
    result = reconstruct(g, plan, meas)
    doc = json.loads(json.dumps(result_to_json(result)))
    recovered = params_from_json({"b": doc["b"], "c": doc["c"]})
    assert max_param_error(result.params, recovered) < 1e-12
    assert doc["flags"] == ["RankAugmented"]
    assert doc["cycle_diagnostics"]["moments_used"] == ["second", "third"]
    assert all(isinstance(v, float) for v in doc["residuals"].values())
