"""Refusals of caller input that no other test reaches: each is an InputError
whose message says what was wrong, from the library or, as exit code 2, from
the command line."""

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
