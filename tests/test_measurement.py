"""Measurement simulation: exact moduli, shot noise, decay series, signals."""

import json
import math

import numpy as np
import pytest

from gateway_tomo import (
    DecayModel,
    DecaySeries,
    HamiltonianParams,
    InputError,
    NetworkGraph,
    Provenance,
    SpectralMeasurement,
    TimeSignal,
    assemble_single_excitation,
    decay_series_from_json,
    decay_series_to_json,
    eigendecompose,
    gauge_fix,
    measure_decaying,
    measure_exact,
    measure_shots,
    measurement_from_json,
    measurement_to_json,
    return_amplitude,
    signal_from_json,
    signal_to_json,
)
from util import direct_return_amplitude, generic_system


@pytest.fixture
def dimer():
    g = NetworkGraph.from_edges([(1, 2)])
    params = HamiltonianParams({1: 0.0, 2: 0.0}, {(1, 2): 1.0})
    return gauge_fix(eigendecompose(assemble_single_excitation(g, params)), 1)


# ------------------------------------------------------------ provenance


def test_provenance_slack_policy():
    assert Provenance("exact").norm_slack == 1e-8
    assert Provenance("shots", shots=900).norm_slack == pytest.approx(0.1)
    assert Provenance("extrapolated").norm_slack == 0.1


def test_provenance_validation():
    with pytest.raises(InputError):
        Provenance("guess")
    with pytest.raises(InputError):
        Provenance("shots")
    for count in ("5", None, [5], 10**400, 0.5, float("nan"), float("inf")):
        with pytest.raises(InputError, match="positive shot count"):
            Provenance("shots", shots=count)
    assert Provenance("shots", shots=2.5).shots == 2.5
    with pytest.raises(InputError):
        Provenance("exact", shots=100)


# ----------------------------------------------------------- measurement


def test_measure_exact_dimer(dimer):
    meas = measure_exact(dimer, [1, 2])
    np.testing.assert_allclose(meas.eigenvalues, [-1.0, 1.0], atol=1e-12)
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(meas.moduli, [[r, r], [r, r]], atol=1e-12)
    assert meas.nodes == (1, 2)
    assert meas.provenance.kind == "exact"


def test_measure_requires_gauge_fixed_system():
    g = NetworkGraph.from_edges([(1, 2)])
    params = HamiltonianParams({1: 0.0, 2: 0.0}, {(1, 2): 1.0})
    eig = eigendecompose(assemble_single_excitation(g, params))
    with pytest.raises(InputError, match="gauge"):
        measure_exact(eig, [1])
    with pytest.raises(InputError, match="gauge"):
        measure_shots(eig, [1], 100, seed=0)


def test_moduli_of_lookup(dimer):
    meas = measure_exact(dimer, [2])
    np.testing.assert_array_equal(meas.moduli_of(2), meas.moduli[0])
    with pytest.raises(InputError):
        meas.moduli_of(1)


def test_measurement_validation_catches_bad_rows(dimer):
    with pytest.raises(InputError, match="increasing"):
        SpectralMeasurement(
            (1,), np.array([1.0, -1.0]), np.array([[0.5, 0.5]]), Provenance("exact")
        )
    with pytest.raises(InputError, match="sum to"):
        SpectralMeasurement(
            (1,), np.array([-1.0, 1.0]), np.array([[1.0, 1.0]]), Provenance("exact")
        )
    with pytest.raises(InputError, match="distinct"):
        SpectralMeasurement(
            (1, 1),
            np.array([-1.0, 1.0]),
            np.full((2, 2), 1 / math.sqrt(2)),
            Provenance("exact"),
        )


def test_shot_sampling_is_seeded_and_quantised(dimer):
    a = measure_shots(dimer, [1, 2], 4000, seed=7)
    b = measure_shots(dimer, [1, 2], 4000, seed=7)
    c = measure_shots(dimer, [1, 2], 4000, seed=8)
    np.testing.assert_array_equal(a.moduli, b.moduli)
    assert not np.array_equal(a.moduli, c.moduli)
    counts = a.moduli**2 * 4000
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
    assert a.provenance.shots == 4000
    assert a.provenance.seed == 7


def test_shot_sampling_converges(dimer):
    exact = measure_exact(dimer, [1]).moduli
    noisy = measure_shots(dimer, [1], 10**6, seed=3).moduli
    assert np.max(np.abs(noisy - exact)) < 5e-3


def test_shot_count_must_be_positive(dimer):
    for count in (0, -3, 1.5, 2**63, float("nan"), float("inf"), "5", None):
        with pytest.raises(InputError, match="not a whole number"):
            measure_shots(dimer, [1], count)
    assert measure_shots(dimer, [1], 2**63 - 1, seed=0).provenance.shots == 2**63 - 1
    assert measure_shots(dimer, [1], 40.0, seed=0).provenance.shots == 40


def test_measurement_json_roundtrip(dimer):
    meas = measure_shots(dimer, [1, 2], 500, seed=11)
    doc = json.loads(json.dumps(measurement_to_json(meas)))
    assert doc["provenance"]["count"] == 500
    again = measurement_from_json(doc)
    assert again.nodes == meas.nodes
    np.testing.assert_allclose(again.moduli, meas.moduli, atol=1e-12)
    assert again.provenance == meas.provenance
    doc["moduli"] = dict(reversed(doc["moduli"].items()))
    shuffled = measurement_from_json(doc)
    assert shuffled.nodes == (1, 2)
    assert np.array_equal(shuffled.moduli, again.moduli)


def test_measurement_json_rejects_unknown_keys(dimer):
    doc = measurement_to_json(measure_exact(dimer, [1]))
    moduli = doc.pop("moduli")
    prov = {"kind": "extrapolated"}
    for bad, match in [
        ({**doc, "moduli": moduli, "note": "hello"}, "measurement document has unknown"),
        ([doc], "measurement document must be a JSON object"),
        (doc, 'measurement document needs "moduli"'),
        ({**doc, "moduli": [1.0]}, 'measurement "moduli" must be a JSON object'),
        ({**doc, "moduli": {"one": [1.0]}}, "key 'one' is not a site label"),
        ({**doc, "moduli": {"1": [1.0], "01": [1.0]}}, '"moduli" names site 1 more'),
        ({**doc, "moduli": moduli, "provenance": {"kind": "shots", "count": math.nan}},
         "positive shot count"),
        ({**doc, "moduli": moduli, "provenance": {"kind": "shots", "count": math.inf}},
         "positive shot count"),
        ({**doc, "moduli": moduli, "provenance": "exact"}, "provenance must be a JSON"),
        ({**doc, "moduli": moduli, "provenance": {}}, 'provenance needs "kind"'),
        ({**doc, "moduli": moduli, "provenance": {**prov, "by": 1}}, "unknown keys"),
        ({**doc, "moduli": moduli, "provenance": {**prov, "times": 1}}, '"times" must'),
        ({**doc, "moduli": moduli, "eigenvalues": [None, 1.0]}, '"eigenvalues" must'),
    ]:
        with pytest.raises(InputError, match=match):
            measurement_from_json(bad)


# ----------------------------------------------------------------- decay


def test_decay_model_validation():
    with pytest.raises(InputError):
        DecayModel((0.1, -0.2))


def test_decaying_amplitudes_follow_half_rate_envelope(dimer):
    series = measure_decaying(
        dimer, [1], [0.0, 100.0], DecayModel((0.002, 0.01))
    )
    r = 1 / math.sqrt(2)
    assert series.amplitudes[0, 0, 0] == pytest.approx(r, abs=1e-12)
    assert series.amplitudes[0, 1, 0] == pytest.approx(r * math.exp(-0.1), abs=1e-12)
    assert series.amplitudes[0, 1, 1] == pytest.approx(r * math.exp(-0.5), abs=1e-12)
    streamed = measure_decaying(
        dimer, [1], (t for t in (0.0, 100.0)), DecayModel((0.002, 0.01))
    )
    np.testing.assert_array_equal(streamed.times, series.times)
    np.testing.assert_array_equal(streamed.amplitudes, series.amplitudes)


def test_decay_noise_is_multiplicative_and_seeded(dimer):
    model = DecayModel((0.004, 0.004))
    a = measure_decaying(dimer, [1, 2], [0.0, 10.0], model, noise=0.01, seed=5)
    b = measure_decaying(dimer, [1, 2], [0.0, 10.0], model, noise=0.01, seed=5)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    clean = measure_decaying(dimer, [1, 2], [0.0, 10.0], model)
    ratio = a.amplitudes / clean.amplitudes
    assert np.all(ratio > 0)
    assert np.max(np.abs(np.log(ratio))) < 0.06


def test_decay_input_validation(dimer):
    with pytest.raises(InputError, match="rates"):
        measure_decaying(dimer, [1], [0.0, 1.0], DecayModel((0.1,)))
    with pytest.raises(InputError, match="noise"):
        measure_decaying(dimer, [1], [0.0, 1.0], DecayModel((0.1, 0.1)), noise=-1)
    with pytest.raises(InputError, match="two sample times"):
        measure_decaying(dimer, [1], [0.0], DecayModel((0.1, 0.1)))


def test_decay_series_json_roundtrip(dimer):
    series = measure_decaying(
        dimer, [1, 2], [0.0, 5.0, 10.0], DecayModel((0.01, 0.02))
    )
    doc = json.loads(json.dumps(decay_series_to_json(series)))
    again = decay_series_from_json(doc)
    assert again.nodes == series.nodes
    np.testing.assert_allclose(again.amplitudes, series.amplitudes, atol=1e-12)
    for bad, match in [
        ({**doc, "flavour": 1}, "decay series document has unknown keys"),
        ([doc], "decay series document must be a JSON object"),
        ({**doc, "times": None}, 'decay series "times" must be'),
        ({**doc, "eigenvalues": 1.0}, 'decay series "eigenvalues" must be a list'),
        ({k: v for k, v in doc.items() if k != "times"}, 'needs "times"'),
        ({**doc, "amplitudes": {"1": [[0.5]], "x": [[0.5]]}}, "'x' is not a site label"),
        ({**doc, "amplitudes": {"1": [[0.5]], "+1": [[0.5]]}}, "names site 1 more"),
    ]:
        with pytest.raises(InputError, match=match):
            decay_series_from_json(bad)


def test_decay_series_needs_increasing_times(dimer):
    series = measure_decaying(dimer, [1], [0.0, 1.0], DecayModel((0.0, 0.0)))
    for times in ([1.0, 0.5], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(InputError, match="nonnegative and increasing"):
            DecaySeries(series.nodes, series.eigenvalues, times, series.amplitudes)


# --------------------------------------------------------------- signals


def test_return_amplitude_dimer_is_cosine(dimer):
    times = np.linspace(0.0, 6.0, 25)
    sig = return_amplitude(dimer, 1, times)
    np.testing.assert_allclose(sig.values.real, np.cos(times), atol=1e-12)
    np.testing.assert_allclose(sig.values.imag, 0.0, atol=1e-12)
    streamed = return_amplitude(dimer, 1, (t for t in times))
    np.testing.assert_array_equal(streamed.times, sig.times)
    np.testing.assert_array_equal(streamed.values, sig.values)
    with pytest.raises(InputError, match="uniform"):
        return_amplitude(dimer, 1, [0.0, 1.0, 3.0])
    with pytest.raises(InputError, match="uniform"):
        return_amplitude(dimer, 1, [2.0, 1.0, 0.0])
    with pytest.raises(InputError):
        return_amplitude(dimer, 1, [])


@pytest.mark.parametrize(
    "times",
    [
        np.arange(8192) * (200.0 / 2047),
        np.linspace(5.0, 45.0, 1000),
        np.linspace(-3.0, 7.0, 333),
        np.array([2.5]),
        np.arange(2) * 0.7,
        np.arange(25) * 0.3 + 1.0,
        np.arange(8191) * 0.05,
    ],
    ids=["fmo-8192", "linspace-1000", "linspace-333", "m1", "m2", "m25", "m8191"],
)
def test_return_amplitude_matches_direct_sum(fmo_graph, times):
    _, _, plan, fixed, _ = generic_system(np.random.default_rng(5), fmo_graph)
    sig = return_amplitude(fixed, plan.reference, times)
    np.testing.assert_array_equal(sig.times, times)
    direct = direct_return_amplitude(fixed, plan.reference, times)
    np.testing.assert_allclose(sig.values, direct, rtol=0, atol=1e-12)


def test_signal_json_roundtrip():
    sig = TimeSignal(np.array([0.0, 0.5]), np.array([1.0 + 0.5j, -0.25j]))
    doc = json.loads(json.dumps(signal_to_json(sig)))
    again = signal_from_json(doc)
    np.testing.assert_allclose(again.values, sig.values, atol=1e-15)
    for bad, match in [
        ({**doc, "units": "fs"}, "signal document has unknown keys"),
        ([doc], "signal document must be a JSON object"),
        ({"times": doc["times"], "real": doc["real"]}, 'signal document needs "imag"'),
        ({**doc, "imag": [0.5, [0.5]]}, 'signal "imag" must be a rectangular array'),
    ]:
        with pytest.raises(InputError, match=match):
            signal_from_json(bad)


def test_signal_validation():
    with pytest.raises(InputError):
        TimeSignal(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(InputError):
        TimeSignal(np.array([0.0, np.inf]), np.array([1.0, 1.0]))
