"""Command line surface: exit codes, JSON artifacts, pipeline chaining."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gateway_tomo
from gateway_tomo import (
    HamiltonianParams,
    NetworkGraph,
    graph_to_json,
    params_to_json,
)
from gateway_tomo.cli import _build_parser, main, parse_shots

TREE8 = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (7, 8)]


def write_graph(tmp_path, edges, name="graph.json", signs=None):
    g = NetworkGraph.from_edges(edges, signs=signs)
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(g)))
    return path


def write_params(tmp_path, fields, couplings, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(params_to_json(HamiltonianParams(fields, couplings))))
    return path


@pytest.fixture
def path3_files(tmp_path):
    graph = write_graph(tmp_path, [(1, 2), (2, 3)])
    params = write_params(
        tmp_path, {1: 0.3, 2: -0.2, 3: 0.5}, {(1, 2): 0.8, (2, 3): 1.1}
    )
    return graph, params


STORE, TRUE, APPEND = "_StoreAction", "_StoreTrueAction", "_AppendAction"
OUT = (STORE, False, None, None, None, None, "write a JSON report to this path")
FILE = (STORE, True, None, None, None, None, None)  # a required path
REFERENCE = (STORE, False, None, int, None, None, None)
AGGRESSIVE = (TRUE, False, False, None, None, None, None)
TOL = (APPEND, False, None, None, None, "NAME=VALUE", "override a tolerance (repeatable)")
# option -> (action, required, default, type, choices, metavar, help), per subcommand
CLI_SURFACE = {
    "classify": ("classify a graph's topology", {
        "--out": OUT, "--graph": FILE,
        "--infect": (STORE, False, None, None, None, "SITES", "comma-separated seed sites"),
    }),
    "plan": ("compute the access plan for a graph", {
        "--out": OUT, "--graph": FILE, "--reference": REFERENCE,
        "--aggressive-plan": AGGRESSIVE,
    }),
    "simulate": ("simulate measurement records", {
        "--out": OUT, "--graph": FILE, "--params": FILE, "--reference": REFERENCE,
        "--aggressive-plan": AGGRESSIVE,
        "--kind": (STORE, False, "exact", None, ("exact", "shots", "decaying", "signal"),
                   None, None),
        "--shots": (STORE, False, None, parse_shots, None, None, None),
        "--seed": (STORE, False, None, int, None, None, None),
        "--times": (STORE, False, None, None, None, "START:STOP:COUNT", None),
        "--gamma": (STORE, False, None, None, None, "RATES", "decay rates, comma separated"),
        "--noise": (STORE, False, 0.0, float, None, None, None),
        "--tol": TOL,
    }),
    "spectrum": ("estimate peaks from a return signal", {
        "--out": OUT, "--signal": FILE,
        "--n-peaks": (STORE, True, None, int, None, None, None),
        "--window": (STORE, False, "rect", None, ("rect", "hann"), None, None),
    }),
    "extrapolate": ("extrapolate a decay series to t=0", {"--out": OUT, "--series": FILE}),
    "reconstruct": ("reconstruct parameters", {
        "--out": OUT, "--graph": FILE, "--measurement": FILE, "--reference": REFERENCE,
        "--aggressive-plan": AGGRESSIVE,
        "--known-fields": (STORE, False, None, None, None, None,
                           "JSON file of independently known fields"),
        "--tol": TOL,
    }),
    "roundtrip": ("simulate and reconstruct in one go", {
        "--out": OUT, "--graph": FILE, "--params": FILE, "--reference": REFERENCE,
        "--aggressive-plan": AGGRESSIVE,
        "--shots": (STORE, False, None, parse_shots, None, None, None),
        "--seed": (STORE, False, None, int, None, None, None),
        "--tol": TOL,
    }),
}


def test_cli_surface_is_pinned():
    """Every option of every subcommand keeps its action, required flag, default,
    type, choices, metavar and help; only their order in --help may change."""
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    found = {}
    for name, parser in sub.choices.items():
        options = {}
        for a in parser._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            (option,) = a.option_strings
            assert a.dest == option[2:].replace("-", "_")
            options[option] = (type(a).__name__, a.required, a.default, a.type,
                               a.choices, a.metavar, a.help)
        found[name] = (helps[name], options)
    assert found == CLI_SURFACE
    assert list(found) == list(CLI_SURFACE)  # the order subcommands are listed in


def test_classify_reports_topology_and_closure(path3_files, capsys):
    graph, _ = path3_files
    assert main(["classify", "--graph", str(graph), "--infect", "1"]) == 0
    out = capsys.readouterr().out
    assert "topology: path" in out
    assert "closure of [1]: [1, 2, 3]" in out
    assert "infecting: yes" in out


def test_classify_writes_json_report(path3_files, tmp_path, capsys):
    graph, _ = path3_files
    out_path = tmp_path / "report.json"
    assert main(["classify", "--graph", str(graph), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "path"
    assert doc["estimable"] is True
    assert doc["cycle"] is None


def test_plan_output(tmp_path, capsys):
    graph = write_graph(tmp_path, TREE8)
    out_path = tmp_path / "plan.json"
    code = main(
        ["plan", "--graph", str(graph), "--aggressive-plan", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["reference"] == 1
    assert doc["access"] == [1, 5]
    assert doc["aggressive"] is True
    out = capsys.readouterr().out
    assert "check sites: [8]" in out


def test_simulate_then_reconstruct_roundtrip(path3_files, tmp_path, capsys):
    graph, params = path3_files
    meas_path = tmp_path / "meas.json"
    assert (
        main(
            ["simulate", "--graph", str(graph), "--params", str(params),
             "--out", str(meas_path)]
        )
        == 0
    )
    out_path = tmp_path / "result.json"
    code = main(
        ["reconstruct", "--graph", str(graph), "--measurement", str(meas_path),
         "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["b"]["2"] == pytest.approx(-0.2, abs=1e-10)
    assert doc["c"]["2-3"] == pytest.approx(1.1, abs=1e-10)
    assert doc["flags"] == []
    out = capsys.readouterr().out
    assert "b[2] = -0.2" in out


def test_simulate_shots_is_reproducible(path3_files, tmp_path):
    graph, params = path3_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["simulate", "--graph", str(graph), "--params", str(params),
             "--kind", "shots", "--shots", "1e4", "--seed", "9",
             "--out", str(path)]
        )
        assert code == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())
    assert json.loads(a.read_text())["provenance"]["count"] == 10000


def test_signal_spectrum_pipeline(path3_files, tmp_path, capsys):
    graph, params = path3_files
    sig_path = tmp_path / "sig.json"
    code = main(
        ["simulate", "--graph", str(graph), "--params", str(params),
         "--kind", "signal", "--times", "0:50:256", "--out", str(sig_path)]
    )
    assert code == 0
    peaks_path = tmp_path / "peaks.json"
    code = main(
        ["spectrum", "--signal", str(sig_path), "--n-peaks", "3",
         "--window", "hann", "--out", str(peaks_path)]
    )
    assert code == 0
    doc = json.loads(peaks_path.read_text())
    assert len(doc["eigenvalues"]) == 3
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=0.05)


def test_decay_extrapolate_reconstruct_pipeline(path3_files, tmp_path):
    graph, params = path3_files
    series_path = tmp_path / "series.json"
    code = main(
        ["simulate", "--graph", str(graph), "--params", str(params),
         "--kind", "decaying", "--times", "0:100:11", "--gamma", "0.004",
         "--out", str(series_path)]
    )
    assert code == 0
    meas_path = tmp_path / "meas.json"
    assert main(["extrapolate", "--series", str(series_path), "--out", str(meas_path)]) == 0
    assert json.loads(meas_path.read_text())["provenance"]["kind"] == "extrapolated"
    out_path = tmp_path / "result.json"
    code = main(
        ["reconstruct", "--graph", str(graph), "--measurement", str(meas_path),
         "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["b"]["3"] == pytest.approx(0.5, abs=1e-8)


def test_roundtrip_command_reports_errors(path3_files, tmp_path, capsys):
    graph, params = path3_files
    out_path = tmp_path / "round.json"
    code = main(
        ["roundtrip", "--graph", str(graph), "--params", str(params),
         "--shots", "100000", "--seed", "4", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["plan"]["access"] == [1]
    assert doc["errors"]["max_coupling_error"] < 0.05
    assert "max field error" in capsys.readouterr().out


def test_known_fields_flow_through(path3_files, tmp_path):
    graph, params = path3_files
    meas_path = tmp_path / "meas.json"
    main(["simulate", "--graph", str(graph), "--params", str(params),
          "--out", str(meas_path)])
    known_path = tmp_path / "known.json"
    known_path.write_text(json.dumps({"2": -0.2}))
    out_path = tmp_path / "result.json"
    code = main(
        ["reconstruct", "--graph", str(graph), "--measurement", str(meas_path),
         "--known-fields", str(known_path), "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["residuals"]["field_supplied_2"] < 1e-10


def test_dark_reference_fails_before_planning(tmp_path, capsys):
    graph = write_graph(tmp_path, [(1, 2), (2, 3)])
    params = write_params(
        tmp_path, {1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0}
    )
    out_path = tmp_path / "fail.json"
    code = main(
        ["roundtrip", "--graph", str(graph), "--params", str(params),
         "--reference", "2", "--out", str(out_path)]
    )
    assert code == 1
    assert "[DarkState]" in capsys.readouterr().err
    assert json.loads(out_path.read_text())["flag"] == "DarkState"


def test_degenerate_square_flags_gauge(tmp_path, capsys):
    graph = write_graph(tmp_path, [(1, 2), (2, 3), (3, 4), (1, 4)])
    params = write_params(
        tmp_path,
        {n: 0.0 for n in range(1, 5)},
        {e: 1.0 for e in [(1, 2), (2, 3), (3, 4), (1, 4)]},
    )
    code = main(["roundtrip", "--graph", str(graph), "--params", str(params)])
    assert code == 1
    assert "[GaugeDegeneracy]" in capsys.readouterr().err


def test_multi_loop_graph_exits_as_not_estimable(tmp_path, capsys):
    graph = write_graph(tmp_path, [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)])
    # any syntactically valid measurement will do; planning fails first
    dimer_graph = write_graph(tmp_path, [(1, 2)], name="dimer.json")
    dimer_params = write_params(tmp_path, {1: 0.0, 2: 0.0}, {(1, 2): 1.0})
    meas_path = tmp_path / "meas.json"
    main(["simulate", "--graph", str(dimer_graph), "--params", str(dimer_params),
          "--out", str(meas_path)])
    capsys.readouterr()
    code = main(["reconstruct", "--graph", str(graph), "--measurement", str(meas_path)])
    assert code == 1
    assert "[NotEstimable]" in capsys.readouterr().err


def test_negative_seed_exits_two(path3_files, capsys):
    graph, params = path3_files
    for kind in (["--kind", "shots", "--shots", "100"],
                 ["--kind", "decaying", "--times", "0:10:5", "--gamma", "0.1",
                  "--noise", "0.01"]):
        code = main(["simulate", "--graph", str(graph), "--params", str(params),
                     *kind, "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed -1 is not a nonnegative integer" in err
        assert "Traceback" not in err


def test_bad_inputs_exit_two(path3_files, tmp_path, capsys):
    graph, params = path3_files
    assert main(["classify", "--graph", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--graph", str(bad)]) == 2
    assert (
        main(["simulate", "--graph", str(graph), "--params", str(params),
              "--kind", "shots"])
        == 2
    )
    assert (
        main(["roundtrip", "--graph", str(graph), "--params", str(params),
              "--tol", "gap_factor"])
        == 2
    )
    assert (
        main(["roundtrip", "--graph", str(graph), "--params", str(params),
              "--tol", "nope=1"])
        == 2
    )
    for tol in ("coupling_tol=nan", "gap_factor=-1"):
        assert main(["roundtrip", "--graph", str(graph), "--params", str(params),
                     "--tol", tol]) == 2
    assert (
        main(["simulate", "--graph", str(graph), "--params", str(params),
              "--kind", "decaying", "--times", "0:10:5", "--gamma", "0.1",
              "--noise", "nan"])
        == 2
    )
    meas = tmp_path / "meas.json"
    main(["simulate", "--graph", str(graph), "--params", str(params), "--out", str(meas)])
    known = tmp_path / "known.json"
    out = tmp_path / "out.json"
    for bad in ([-0.2], {"two": -0.2}, {"2": None}, {"2": "x"}, {"2": -0.2, "02": 0.1},
                {"2": float("nan")}, {"2": float("inf")}, {"9": 0.0}, {"0": 0.0},
                {"2": True}):
        known.write_text(json.dumps(bad))
        code = main(["reconstruct", "--graph", str(graph), "--measurement", str(meas),
                     "--known-fields", str(known), "--out", str(out)])
        assert code == 2
        assert not out.exists()
    # --tol belongs to the subcommands that read tolerances
    with pytest.raises(SystemExit) as exit_:
        main(["plan", "--graph", str(graph), "--tol", "x=1"])
    assert exit_.value.code == 2
    # a shot count of NaN or infinity would void the normalisation check
    doc = json.loads(meas.read_text())
    doc["moduli"] = {n: [8 * x for x in row] for n, row in doc["moduli"].items()}
    for count in (float("nan"), float("inf")):
        meas.write_text(json.dumps({**doc, "provenance": {"kind": "shots", "count": count}}))
        assert main(["reconstruct", "--graph", str(graph), "--measurement", str(meas)]) == 2
    assert "not a whole number" in capsys.readouterr().err


PARAMS = {"b": {"1": 0.3, "2": -0.2, "3": 0.5}, "c": {"1-2": 0.8, "2-3": 1.1}}
MEAS = {
    "provenance": {"kind": "exact"},
    "eigenvalues": [-1.0, 0.0, 1.0],
    "moduli": {"1": [0.5, 0.5**0.5, 0.5]},
}
SERIES = {
    "eigenvalues": [-1.0, 1.0],
    "times": [0.0, 1.0],
    "amplitudes": {"1": [[0.7, 0.7], [0.6, 0.6]]},
}
SIGNAL = {"times": [0.0, 1.0], "real": [1.0, 0.5], "imag": [0.0, 0.5]}

# (kind of input, the malformed document or --shots text)
MALFORMED = {
    "field-text": ("params", {**PARAMS, "b": {**PARAMS["b"], "1": "x"}}),
    "field-400-digits": ("params", {**PARAMS, "b": {**PARAMS["b"], "1": 10**400}}),
    "eigenvalue-text": ("measurement", {**MEAS, "eigenvalues": ["a", 1]}),
    "moduli-ragged": ("measurement", {**MEAS, "moduli": {"1": [0.5, 0.5], "3": [1.0]}}),
    "moduli-boolean": ("measurement", {**MEAS, "moduli": {"1": [True, False, False]}}),
    "count-text": ("measurement", {**MEAS, "provenance": {"kind": "shots", "count": "5"}}),
    "times-text": (
        "measurement", {**MEAS, "provenance": {"kind": "extrapolated", "times": ["a"]}}
    ),
    "signal-text": ("signal", {**SIGNAL, "real": [1.0, "x"]}),
    "moduli-numeric-text": (
        "measurement", {**MEAS, "moduli": {"1": ["0.5", 0.5**0.5, 0.5]}}
    ),
    "amplitudes-ragged": ("series", {**SERIES, "amplitudes": {"1": [[0.7, 0.7], [0.6]]}}),
    "shots-inf": ("shots", "inf"),
    "shots-fraction": ("shots", "1.5"),
    "shots-beyond-int64": ("shots", "1e19"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exits_two_without_traceback(case, path3_files, tmp_path, capsys):
    graph, params = path3_files
    kind, bad = MALFORMED[case]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(bad))
    argv = {
        "params": ["roundtrip", "--graph", str(graph), "--params", str(doc)],
        "measurement": ["reconstruct", "--graph", str(graph), "--measurement", str(doc)],
        "signal": ["spectrum", "--signal", str(doc), "--n-peaks", "1"],
        "series": ["extrapolate", "--series", str(doc)],
        "shots": ["roundtrip", "--graph", str(graph), "--params", str(params),
                  "--shots", str(bad)],
    }[kind]
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse rejects an option value this way
        code = exit_.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_tolerance_override_changes_behavior(path3_files, tmp_path):
    graph, params = path3_files
    # an absurdly large coupling floor turns a fine chain into a failure
    code = main(
        ["roundtrip", "--graph", str(graph), "--params", str(params),
         "--tol", "coupling_tol=10"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run_fmo_roundtrip.py"], 0),
        (["run_fmo_roundtrip.py", "--shots", "1e4"], 0),
        (["run_fmo_roundtrip.py", "--shots", "0"], 2),
        (["shot_noise_sweep.py", "--trials", "2", "--decades", "1"], 0),
    ],
    ids=["fmo-exact", "fmo-shots", "fmo-zero-shots", "sweep"],
)
def test_scripts_run(argv, code):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    out = subprocess.run(
        [sys.executable, str(scripts / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(gateway_tomo.__file__).parents[1])},
    )
    assert out.returncode == code, out.stderr
