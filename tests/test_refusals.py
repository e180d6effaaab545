"""Refusals of caller input that no other test reaches: each is an InputError
whose message says what was wrong, from the library or, as exit code 2, from
the command line.  Next to them, the edge cases a rule takes as given."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from gateway_tomo import (
    AccessPlan,
    DecaySeries,
    HamiltonianParams,
    InputError,
    NetworkGraph,
    Provenance,
    SpectralMeasurement,
    assemble_single_excitation,
    compute_access_plan,
    eigendecompose,
    gauge_fix,
    graph_from_json,
    graph_to_json,
    measure_exact,
    params_from_json,
    params_to_json,
    reconstruct,
    signal_from_json,
)
from gateway_tomo.cli import main
from gateway_tomo.spectral import SymmetricMatrix

PATH3 = NetworkGraph.from_edges([(1, 2), (2, 3)])
TREE = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (3, 5)])
TADPOLE = NetworkGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 2)])  # cycle 2-3-4
EXACT = Provenance("exact")


def setup(tmp_path) -> SimpleNamespace:
    """The 3-site path, its exact record at the reference, and its files."""
    params = HamiltonianParams({1: 0.3, 2: -0.2, 3: 0.5}, {(1, 2): 0.8, (2, 3): 1.1})
    fixed = gauge_fix(eigendecompose(assemble_single_excitation(PATH3, params)), 1)
    graph, params_file = tmp_path / "graph.json", tmp_path / "params.json"
    graph.write_text(json.dumps(graph_to_json(PATH3)))
    params_file.write_text(json.dumps(params_to_json(params)))
    return SimpleNamespace(params=params, fixed=fixed, plan=compute_access_plan(PATH3),
                           graph=graph, params_file=params_file)


DECAYING = ("simulate", "--kind", "decaying")
VALS = np.array([-1.0, 0.0, 2.0])
MODS = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])


def put(array: np.ndarray, index, value: float) -> np.ndarray:
    """A copy of ``array`` with ``value`` at ``index``."""
    out = array.copy()
    out[index] = value
    return out


# case -> (sites, eigenvalues, moduli) of an exact record from float64 arrays, and the
# message; the rule that names the fault runs only when the bulk test fails
RECORD_FAULTS = {
    **{f"eigenvalue-{name}-{at}": (((1, 2), put(VALS, i, x), MODS),
                                   "eigenvalues must be finite")
       for name, x in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf))
       for at, i in (("first", 0), ("middle", 1), ("last", 2))},
    "eigenvalue-repeated": (((1, 2), put(VALS, 1, -1.0), MODS),
                            "eigenvalues must be strictly increasing"),
    "modulus-nan": (((1, 2), VALS, put(MODS, (1, 2), np.nan)), "moduli must be finite"),
    "modulus-inf": (((1, 2), VALS, put(MODS, (1, 2), np.inf)), "moduli must be finite"),
    "modulus-negative": (((1, 2), VALS, put(MODS, (1, 2), -0.8)),
                         "moduli must be nonnegative"),
    "moduli-shape": (((1, 2), VALS, MODS[:1]),
                     r"moduli shape \(1, 3\) does not match 2 sites x 3 eigenvalues"),
    "site-repeated": (((1, 1), VALS, MODS), "measured sites must be distinct"),
    "norm": (((1, 2), VALS, put(MODS, (1, 0), 0.1)),
             r"modulus squares at site 2 sum to 1\.010000, outside 1 \+/- 1e-08"),
    "no-site": (((), VALS, MODS[:1]),
                r"moduli shape \(1, 3\) does not match 0 sites x 3 eigenvalues"),
    "one-state": (((1,), VALS[:1], np.array([[0.5]])),
                  r"modulus squares at site 1 sum to 0\.250000, outside 1 \+/- 1e-08"),
}
# case -> (a call that refuses its input, or a command line, and the message)
REFUSALS = {
    "reconstruct-lacks-access": (lambda s: reconstruct(
        PATH3, s.plan, measure_exact(s.fixed, [3])), r"lacks accessed sites \[1\]"),
    "reconstruct-part-spectrum": (lambda s: reconstruct(PATH3, s.plan, SpectralMeasurement(
        (1,), [-1.0, 1.0], [[0.6, 0.8]], EXACT)), "the full spectrum is required"),
    "graph-no-site": (lambda s: NetworkGraph((), ()), "at least one site"),
    "graph-edge-not-pair": (lambda s: NetworkGraph((1, 2, 3), ((1, 2, 3),)),
                            r"edge \(1, 2, 3\) is not a pair"),
    "graph-signs-for-non-edges": (lambda s: NetworkGraph.from_edges(
        [(1, 2)], signs={(2, 3): -1}), r"signs given for non-edges: \[\(2, 3\)\]"),
    "graph-json-nodes-not-array": (lambda s: graph_from_json({"nodes": 3, "edges": []}),
                                   '"nodes" and "edges" must be arrays'),
    "plan-one-site": (lambda s: compute_access_plan(NetworkGraph((1,), ())),
                      "at least two sites"),
    "plan-reference-path-middle": (lambda s: compute_access_plan(PATH3, 2),
        r"reference 2 must be a leaf or a degree-2 cycle site \(one of \[1, 3\]\)"),
    "plan-reference-tree-hub": (lambda s: compute_access_plan(TREE, 3),
        r"reference 3 must be a leaf or a degree-2 cycle site \(one of \[1, 4, 5\]\)"),
    "plan-reference-cycle-hub": (lambda s: compute_access_plan(TADPOLE, 2),
        r"reference 2 must be a leaf or a degree-2 cycle site \(one of \[1, 3, 4\]\)"),
    "plan-site-without-column": (lambda s: AccessPlan(1, (1,), (1, 2)).validate(
        NetworkGraph((1, 2, 3), ((1, 2),))), "plan gives site 3 no column"),
    "measurement-shape": (lambda s: SpectralMeasurement(
        (1, 3), [-1.0, 1.0], [[0.6, 0.8]], EXACT), r"moduli shape \(1, 2\)"),
    "decay-series-shape": (lambda s: DecaySeries(
        (1,), [-1.0, 1.0], [0.0, 1.0], [[[0.6, 0.8]]]), r"amplitude block shape \(1, 1, 2\)"),
    "signal-json-lengths": (lambda s: signal_from_json(
        {"times": [0.0, 1.0], "real": [1.0, 0.5], "imag": [0.0]}),
        "real and imaginary parts differ in length"),
    "params-json-edge-key": (lambda s: params_from_json(
        {"b": {"1": 0.0, "2": 0.0}, "c": {"1-x": 1.0}}), "key '1-x' is not of the form"),
    "eigendecompose-not-square": (lambda s: eigendecompose(
        SymmetricMatrix((1, 2), np.zeros((2, 3)))), r"square, got shape \(2, 3\)"),
    "eigendecompose-nan": (lambda s: eigendecompose(SymmetricMatrix(
        (1, 2), np.array([[np.nan, 1.0], [1.0, 0.0]]))), "matrix must be finite"),
    "eigendecompose-inf": (lambda s: eigendecompose(SymmetricMatrix(
        (1, 2), np.array([[np.inf, 1.0], [1.0, 0.0]]))), "matrix must be finite"),
    "eigendecompose-text": (lambda s: eigendecompose(SymmetricMatrix(
        (1, 2), [[0.0, "x"], ["x", 0.0]])), "matrix must be a rectangular array of numbers"),
    "eigendecompose-bool": (lambda s: eigendecompose(SymmetricMatrix(
        (1, 2), [[True, 1.0], [1.0, 0.0]])), "matrix must be a rectangular array of numbers"),
    **{f"measurement-ndarray-{case}": (lambda s, args=args: SpectralMeasurement(*args, EXACT),
                                       message)
       for case, (args, message) in RECORD_FAULTS.items()},
    "provenance-shots-2**63": (lambda s: Provenance("shots", shots=2**63),
        r"shot count 9223372036854775808 is not a whole number in \[1, 9223372036854775807\]"),
    "provenance-shots-true": (lambda s: Provenance("shots", shots=True),
                              "shot count True is not a whole number"),
    "provenance-seed-2**64": (lambda s: Provenance("shots", shots=5, seed=2**64),
                              "seed 18446744073709551616 is not a nonnegative integer"),
    "provenance-seed-true": (lambda s: Provenance("shots", shots=5, seed=True),
                             "seed True is not a nonnegative integer"),
    "assemble-couplings": (lambda s: assemble_single_excitation(PATH3, HamiltonianParams(
        s.params.local_fields, {(1, 2): 0.8})), r"couplings do not match edges \(missing"),
    "cli-times": ((*DECAYING, "--gamma", "0.1", "--times", "1:2"),
                  "times must be START:STOP:COUNT, got '1:2'"),
    "cli-times-infinite": ((*DECAYING, "--gamma", "0.1", "--times", "0:inf:5"),
                           "times STOP in '0:inf:5' is not a number"),
    "cli-times-nan": ((*DECAYING, "--gamma", "0.1", "--times", "nan:1:5"),
                      "times START in 'nan:1:5' is not a number"),
    "cli-gamma": ((*DECAYING, "--gamma", "0.1,x", "--times", "0:1:5"),
                  "expected comma-separated numbers, got '0.1,x'"),
    "cli-tol-value": (("roundtrip", "--tol", "coupling_tol=abc"),
                      "tolerance coupling_tol needs a number, got 'abc'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_an_input_error_naming_the_fault(case, tmp_path, capsys):
    call, message = REFUSALS[case]
    s = setup(tmp_path)
    if callable(call):
        with pytest.raises(InputError, match=message):
            call(s)
        return
    command, *rest = call
    argv = [command, "--graph", str(s.graph), "--params", str(s.params_file), *rest]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(f"^error: {message}", err) and "Traceback" not in err


@pytest.mark.parametrize("case", RECORD_FAULTS)
def test_listed_record_is_refused_as_its_arrays_are(case):
    """The rule path names the fault of a record given as lists in the words it
    uses for the same record given as float64 arrays."""
    (nodes, vals, mods), message = RECORD_FAULTS[case]
    with pytest.raises(InputError, match=message):
        SpectralMeasurement(list(nodes), vals.tolist(), mods.tolist(), EXACT)


# case -> (a call whose input sits at the edge of what its rules take, what it keeps)
ACCEPTED = {
    "provenance-shots-2**63-1": (lambda: Provenance("shots", shots=2**63 - 1).shots,
                                 2**63 - 1),
    "provenance-seed-2**64-1": (lambda: Provenance("shots", shots=5, seed=2**64 - 1).seed,
                                2**64 - 1),
    "measurement-no-site": (lambda: SpectralMeasurement(
        (), VALS, np.zeros((0, 3)), EXACT).moduli.shape, (0, 3)),
    "measurement-one-state": (lambda: SpectralMeasurement(
        (1,), VALS[:1], np.ones((1, 1)), EXACT).moduli.shape, (1, 1)),
}


@pytest.mark.parametrize("case", ACCEPTED)
def test_input_at_the_edge_of_a_rule_is_taken(case):
    call, kept = ACCEPTED[case]
    assert call() == kept
