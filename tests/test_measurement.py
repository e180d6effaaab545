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
    Tolerances,
    assemble_single_excitation,
    compute_access_plan,
    decay_series_from_json,
    decay_series_to_json,
    eigendecompose,
    estimate_spectrum_fft,
    gauge_fix,
    measure_decaying,
    measure_exact,
    measure_shots,
    measurement_from_json,
    measurement_to_json,
    reconstruct,
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
    for count in ("5", None, [5], 10**400, 0.5, 2.5, float("nan"), float("inf"), True,
                  False):
        with pytest.raises(InputError, match="not a whole number"):
            Provenance("shots", shots=count)
    for seed in (True, 1.0, "7", [1], {"a": [1]}):
        with pytest.raises(InputError, match="seed"):
            Provenance("exact", seed=seed)
    assert Provenance("shots", shots=9, seed=np.int64(4)).seed == 4
    assert Provenance("exact", seed=None).seed is None
    with pytest.raises(InputError, match="not a whole number"):
        measurement_from_json({
            "provenance": {"kind": "shots", "count": True},
            "eigenvalues": [-1, 1], "moduli": {"1": [0.6, 0.8]},
        })
    with pytest.raises(InputError):
        Provenance("exact", shots=100)


def test_negative_seed_is_refused_before_sampling(dimer):
    # numpy takes only nonnegative seeds; a negative one is bad input
    with pytest.raises(InputError, match="seed -1"):
        Provenance("shots", shots=9, seed=-1)
    with pytest.raises(InputError, match="seed -1"):
        measure_shots(dimer, [1], 100, seed=-1)
    model = DecayModel((0.1, 0.2))
    for noise in (0.0, 0.01):
        with pytest.raises(InputError, match="seed -3"):
            measure_decaying(dimer, [1], [0.0, 1.0], model, noise=noise, seed=-3)
    doc = measurement_to_json(measure_shots(dimer, [1], 100, seed=0))
    doc["provenance"]["seed"] = -1
    with pytest.raises(InputError, match="seed -1"):
        measurement_from_json(doc)
    assert measure_shots(dimer, [1], 100, seed=np.int64(0)).provenance.seed == 0


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


MEASURES = {
    "exact": lambda eig, sites: measure_exact(eig, sites),
    "shots": lambda eig, sites: measure_shots(eig, sites, 100, seed=0),
    "decaying": lambda eig, sites: measure_decaying(
        eig, sites, [0.0, 1.0], DecayModel((0.1, 0.1))),
}


@pytest.mark.parametrize("site, message", [
    (True, "site labels must be integers, got True"),
    (0, "site labels must be positive, got 0"),
    (99, "site 99 is not part of this system"),
])
@pytest.mark.parametrize("measure", MEASURES)
def test_measured_sites_are_checked_labels_of_the_eigensystem(
    measure, site, message, dimer
):
    """A bool is no site 1 and an unknown site is no bare KeyError."""
    with pytest.raises(InputError, match=message):
        MEASURES[measure](dimer, [1, site])
    record = MEASURES[measure](dimer, [2, 1])
    assert record.nodes == (1, 2) and all(type(n) is int for n in record.nodes)


RECORDS = {
    "SpectralMeasurement": lambda dimer, sites: SpectralMeasurement(
        sites, dimer.eigenvalues, np.abs(dimer.vectors), Provenance("exact")),
    "DecaySeries": lambda dimer, sites: DecaySeries(
        sites, dimer.eigenvalues, [0.0, 1.0],
        np.repeat(np.abs(dimer.vectors)[:, None], 2, axis=1)),
}


@pytest.mark.parametrize("site, message", [
    (True, "site labels must be integers, got True"),
    (1.0, "site labels must be integers, got 1.0"),
    (np.int64(1), "site labels must be integers"),
    ("1", "site labels must be integers, got '1'"),
    (0, "site labels must be positive, got 0"),
])
@pytest.mark.parametrize("record", RECORDS)
def test_records_check_their_site_labels(record, site, message, dimer):
    """A record built by hand is no looser than a measured one: True, 1.0 or
    np.int64(1) would name site 1 to `reconstruct`, and "True" is no JSON key
    that `measurement_from_json` reads back."""
    with pytest.raises(InputError, match=message):
        RECORDS[record](dimer, (site, 2))
    built = RECORDS[record](dimer, [1, 2])
    assert built.nodes == (1, 2) and all(type(n) is int for n in built.nodes)


def test_measured_rows_match_the_sites_amplitudes():
    eig = generic_system(np.random.default_rng(5), NetworkGraph.from_edges(
        [(1, 2), (2, 3), (2, 4), (4, 5)]))[3]
    sites = (5, 1, 3)
    exact = measure_exact(eig, sites)
    series = measure_decaying(eig, sites, [0.0, 2.0], DecayModel((0.0,) * 5))
    for i, n in enumerate(sorted(sites)):
        np.testing.assert_array_equal(exact.moduli[i], np.abs(eig.site_amplitudes(n)))
        np.testing.assert_array_equal(series.amplitudes[i, 0], exact.moduli[i])


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
    for count in (0, -3, 1.5, 2**63, float("nan"), float("inf"), "5", None, True, False):
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
         "not a whole number"),
        ({**doc, "moduli": moduli, "provenance": {"kind": "shots", "count": math.inf}},
         "not a whole number"),
        ({**doc, "moduli": moduli, "provenance": "exact"}, "provenance must be a JSON"),
        ({**doc, "moduli": moduli, "provenance": {}}, 'provenance needs "kind"'),
        ({**doc, "moduli": moduli, "provenance": {**prov, "by": 1}}, "unknown keys"),
        ({**doc, "moduli": moduli, "provenance": {**prov, "times": 1}}, '"times" must'),
        ({**doc, "moduli": moduli, "eigenvalues": [None, 1.0]}, '"eigenvalues" must'),
        ({**doc, "moduli": {"1": [True, False]}}, 'measurement "moduli" must'),
        ({**doc, "moduli": {"1": ["0.6", "0.8"]}}, 'measurement "moduli" must'),
        ({**doc, "moduli": moduli, "eigenvalues": [-1.0, False]}, '"eigenvalues" must'),
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
    for noise in (-1, float("nan")):
        with pytest.raises(InputError, match="noise"):
            measure_decaying(dimer, [1], [0.0, 1.0], DecayModel((0.1, 0.1)), noise=noise)
    with pytest.raises(InputError, match="two sample times"):
        measure_decaying(dimer, [1], [0.0], DecayModel((0.1, 0.1)))
    with pytest.raises(InputError, match="times must be a list of numbers, got None"):
        measure_decaying(dimer, [1], None, DecayModel((0.1, 0.1)))


@pytest.mark.parametrize("value", [None, "a", object(), [[]], math.nan])
@pytest.mark.parametrize("field", ["rates", "times", "noise"])
def test_non_number_inputs_raise_input_error_naming_their_field(field, value, dimer):
    """Each value, in the field's own place or as one of its numbers."""
    decay = DecayModel((0.1, 0.1))
    calls = {
        "rates": [lambda: DecayModel(value), lambda: DecayModel((0.1, value))],
        "times": [
            lambda: Provenance("exact", times=(0.0, value)),
            lambda: Provenance("extrapolated", times=value),
        ],
        "noise": [lambda: measure_decaying(dimer, [1], [0.0, 1.0], decay, noise=value)],
    }[field]
    if value is None and field == "times":  # a record without sample times
        assert calls.pop()().times is None
    for call in calls:
        with pytest.raises(InputError, match=field):
            call()


def _number_arguments(dimer):
    """Per numeric argument: the name its error gives, a good value, and a call
    taking one value in its place (an array's first element)."""
    g = NetworkGraph.from_edges([(1, 2)])
    meas = measure_exact(dimer, [1, 2])
    vals, mods = meas.eigenvalues.tolist(), meas.moduli.tolist()
    exact, amps = Provenance("exact"), [[[0.5, 0.5], [0.4, 0.4]]]
    signal = return_amplitude(dimer, 1, np.arange(8) * 0.5)
    return {
        "HamiltonianParams.local_fields": ("local field at site 1", 0.0, lambda v:
            HamiltonianParams({1: v, 2: 0.0}, {(1, 2): 1.0})),
        "HamiltonianParams.couplings": (r"coupling at edge \(1, 2\)", 1.0, lambda v:
            HamiltonianParams({1: 0.0, 2: 0.0}, {(1, 2): v})),
        "Provenance.shots": ("shot count", 100, lambda v: Provenance("shots", shots=v)),
        "Provenance.seed": ("seed", 3, lambda v: Provenance("exact", seed=v)),
        "Tolerances": ("coupling_tol", 1e-9, lambda v: Tolerances(coupling_tol=v)),
        "SpectralMeasurement.eigenvalues": ("eigenvalues", vals[0], lambda v:
            SpectralMeasurement((1, 2), [v, vals[1]], mods, exact)),
        "SpectralMeasurement.moduli": ("moduli", mods[0][0], lambda v:
            SpectralMeasurement((1, 2), vals, [[v, mods[0][1]], mods[1]], exact)),
        "DecaySeries.eigenvalues": ("eigenvalues", vals[0], lambda v:
            DecaySeries((1,), [v, vals[1]], [0.0, 1.0], amps)),
        "DecaySeries.times": ("times", 0.0, lambda v:
            DecaySeries((1,), vals, [v, 1.0], amps)),
        "DecaySeries.amplitudes": ("amplitudes", 0.5, lambda v:
            DecaySeries((1,), vals, [0.0, 1.0], [[[v, 0.5], [0.4, 0.4]]])),
        "TimeSignal.times": ("times", 0.0, lambda v: TimeSignal([v, 0.5], [1.0, 1j])),
        "TimeSignal.values": ("values", 1.0, lambda v: TimeSignal([0.0, 0.5], [v, 1j])),
        "measure_decaying.noise": ("noise", 0.01, lambda v: measure_decaying(
            dimer, [1], [0.0, 1.0], DecayModel((0.1, 0.1)), noise=v)),
        "estimate_spectrum_fft.n_peaks": ("number of peaks", 2, lambda v:
            estimate_spectrum_fft(signal, v)),
        "reconstruct.known_fields": ("supplied field at site 2", 0.0, lambda v:
            reconstruct(g, compute_access_plan(g), meas, known_fields={2: v})),
    }


NON_NUMBERS = {  # each from the argument's good value x
    "True": lambda x: True, "text": lambda x: "0.5", "bytes": lambda x: b"1",
    "None": lambda x: None, "NaN": lambda x: math.nan, "list": lambda x: [x],
}


@pytest.mark.parametrize("argument, bad", [
    (argument, bad)
    for argument in (
        "HamiltonianParams.local_fields", "HamiltonianParams.couplings",
        "Provenance.shots", "Provenance.seed", "Tolerances",
        "SpectralMeasurement.eigenvalues", "SpectralMeasurement.moduli",
        "DecaySeries.eigenvalues", "DecaySeries.times", "DecaySeries.amplitudes",
        "TimeSignal.times", "TimeSignal.values", "measure_decaying.noise",
        "estimate_spectrum_fft.n_peaks", "reconstruct.known_fields",
    )
    for bad in NON_NUMBERS
    if (argument, bad) != ("Provenance.seed", "None")  # no seed
])
def test_every_numeric_argument_refuses_non_numbers(argument, bad, dimer):
    """One rule for every number from outside: InputError naming the argument."""
    name, good, call = _number_arguments(dimer)[argument]
    call(good)
    with pytest.raises(InputError, match=name):
        call(NON_NUMBERS[bad](good))


def _record_arrays(dimer):
    """Per array a record takes: the name its error gives, a good value, and a
    call taking one value in its place."""
    arrays = {name: row for name, row in _number_arguments(dimer).items()
              if name.split(".")[0] in ("SpectralMeasurement", "DecaySeries", "TimeSignal")}
    doc = {"times": [0.0, 0.5], "real": [1.0, 0.0], "imag": [0.0, 1.0]}
    return {
        **arrays,
        "Provenance.times": ('provenance "times"', 0.0, lambda v:
            Provenance("extrapolated", times=(v, 1.0))),
        "DecayModel.rates": ("decay rates", 0.1, lambda v: DecayModel((v, 0.1))),
        "signal_from_json.real": ('signal "real"', 1.0, lambda v:
            signal_from_json({**doc, "real": [v, 0.0]})),
        "signal_from_json.imag": ('signal "imag"', 0.0, lambda v:
            signal_from_json({**doc, "imag": [v, 1.0]})),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", [
    "Provenance.times", "DecayModel.rates",
    "SpectralMeasurement.eigenvalues", "SpectralMeasurement.moduli",
    "DecaySeries.eigenvalues", "DecaySeries.times", "DecaySeries.amplitudes",
    "TimeSignal.times", "TimeSignal.values",
    "signal_from_json.real", "signal_from_json.imag",
])
def test_every_record_array_refuses_non_finite_numbers(argument, bad, dimer):
    """``numbers`` holds the one finiteness rule; its error names the array."""
    name, good, call = _record_arrays(dimer)[argument]
    call(good)
    with pytest.raises(InputError, match=f"{name} must be finite"):
        call(bad)


def test_non_finite_times_are_refused_before_any_arithmetic(dimer):
    """An infinite time once reached np.exp and raised numpy's RuntimeWarning,
    an error under this suite's warning filter, not InputError."""
    with pytest.raises(InputError, match="times must be finite"):
        return_amplitude(dimer, 1, [0.0, math.inf])
    with pytest.raises(InputError, match="times must be finite"):
        measure_decaying(dimer, [1, 2], [0.0, math.inf], DecayModel((0.0, 0.0)))


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
        ({**doc, "eigenvalues": ["1", *doc["eigenvalues"][1:]]}, '"eigenvalues" must'),
        ({k: v for k, v in doc.items() if k != "times"}, 'needs "times"'),
        ({**doc, "amplitudes": {"1": [[0.5]], "x": [[0.5]]}}, "'x' is not a site label"),
        ({**doc, "amplitudes": {"1": [[0.5]], "+1": [[0.5]]}}, "names site 1 more"),
    ]:
        with pytest.raises(InputError, match=match):
            decay_series_from_json(bad)


def test_decay_series_needs_increasing_times(dimer):
    series = measure_decaying(dimer, [1], [0.0, 1.0], DecayModel((0.0, 0.0)))
    for times, message in (([1.0, 0.5], "nonnegative and increasing"),
                           ([0.0, np.nan], "times must be finite"),
                           ([0.0, np.inf], "times must be finite")):
        with pytest.raises(InputError, match=message):
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
        ({**doc, "real": ["1", *doc["real"][1:]]}, 'signal "real" must be'),
    ]:
        with pytest.raises(InputError, match=match):
            signal_from_json(bad)


def test_signal_validation(dimer):
    with pytest.raises(InputError):
        TimeSignal(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(InputError):
        TimeSignal(np.array([0.0, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(InputError, match="times must be a list of numbers, got 5.0"):
        return_amplitude(dimer, 1, 5.0)
