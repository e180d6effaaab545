"""Fourier peak estimation and decay extrapolation."""

import math

import numpy as np
import pytest

from gateway_tomo import (
    DecayModel,
    DecaySeries,
    FewerPeaksError,
    HamiltonianParams,
    InputError,
    NetworkGraph,
    TimeSignal,
    assemble_single_excitation,
    eigendecompose,
    estimate_spectrum_fft,
    extrapolate_t0,
    gauge_fix,
    measure_decaying,
    measure_exact,
    return_amplitude,
)
from conftest import FMO_EDGES
from util import generic_system, unpruned_spectrum_fft

SQ2 = math.sqrt(2.0)


def fixed_system(edges, fields, couplings, reference=1):
    g = NetworkGraph.from_edges(edges)
    params = HamiltonianParams(fields, couplings)
    return gauge_fix(eigendecompose(assemble_single_excitation(g, params)), reference)


@pytest.fixture
def dimer():
    return fixed_system([(1, 2)], {1: 0.0, 2: 0.0}, {(1, 2): 1.0})


# ------------------------------------------------------------- estimator


def test_two_tone_spectrum_recovered(dimer):
    times = np.arange(168) * 0.3
    est = estimate_spectrum_fft(return_amplitude(dimer, 1, times), 2)
    # rect leakage between the two tones limits the refinement to ~res/50
    np.testing.assert_allclose(est.eigenvalues, [-1.0, 1.0], atol=5e-3)
    np.testing.assert_allclose(est.weights, [0.5, 0.5], atol=5e-3)
    assert est.resolution == pytest.approx(2 * np.pi / (168 * 0.3))
    assert est.warnings == ()
    hann = estimate_spectrum_fft(
        return_amplitude(dimer, 1, times), 2, window="hann"
    )
    np.testing.assert_allclose(hann.eigenvalues, [-1.0, 1.0], atol=1e-4)
    np.testing.assert_allclose(hann.weights, [0.5, 0.5], atol=1e-4)


def test_three_tone_spectrum_with_hann(dimer):
    trimer = fixed_system(
        [(1, 2), (2, 3)], {1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0}
    )
    times = np.arange(120) * 0.3
    est = estimate_spectrum_fft(
        return_amplitude(trimer, 1, times), 3, window="hann"
    )
    np.testing.assert_allclose(est.eigenvalues, [-SQ2, 0.0, SQ2], atol=2e-3)
    np.testing.assert_allclose(est.weights, [0.25, 0.5, 0.25], atol=1e-3)


def test_fewer_peaks_error_carries_partial_estimate():
    times = np.arange(64) * 0.5
    flat = TimeSignal(times, np.ones_like(times, dtype=complex))
    with pytest.raises(FewerPeaksError) as info:
        estimate_spectrum_fft(flat, 2)
    err = info.value
    assert err.flag == "FewerPeaks"
    assert err.requested == 2
    assert len(err.found.peaks) == 1
    assert err.found.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)


def test_peak_near_aliasing_edge_warns():
    times = np.arange(64) * 1.0
    sig = TimeSignal(times, np.exp(-1j * 3.0 * times))
    est = estimate_spectrum_fft(sig, 1)
    assert any("aliasing edge" in w for w in est.warnings)
    assert abs(est.eigenvalues[0]) == pytest.approx(3.0, abs=1e-2)


def test_estimator_input_validation(dimer):
    times = np.arange(64) * 0.5
    sig = return_amplitude(dimer, 1, times)
    with pytest.raises(InputError):
        estimate_spectrum_fft(sig, 0)
    with pytest.raises(InputError):
        estimate_spectrum_fft(sig, 2, window="boxcar")
    ragged = TimeSignal(np.array([0.0, 0.4, 1.0, 1.4, 2.0, 2.4, 3.0, 3.4]),
                        np.ones(8, dtype=complex))
    with pytest.raises(InputError, match="uniform"):
        estimate_spectrum_fft(ragged, 1)
    short = TimeSignal(times[:6], sig.values[:6])
    with pytest.raises(InputError, match="at least"):
        estimate_spectrum_fft(short, 2)


def _parity_cases():
    dimer = fixed_system([(1, 2)], {1: 0.0, 2: 0.0}, {(1, 2): 1.0})
    trimer = fixed_system(
        [(1, 2), (2, 3)], {1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0}
    )
    times = np.arange(168) * 0.3
    yield "dimer-rect", return_amplitude(dimer, 1, times), 2, {}
    yield "dimer-hann", return_amplitude(dimer, 1, times), 2, {"window": "hann"}
    sig = return_amplitude(trimer, 1, np.arange(120) * 0.3)
    yield "trimer-hann", sig, 3, {"window": "hann"}
    rng = np.random.default_rng(11)
    g = NetworkGraph.from_edges(FMO_EDGES)
    times = np.arange(8192) * (200.0 / 2047)
    for i in range(5):
        _, _, plan, fixed, _ = generic_system(rng, g)
        sig = return_amplitude(fixed, plan.reference, times)
        yield f"fmo-{i}", sig, 7, {"window": "hann"}
    times = np.arange(2048) * 0.3
    noise = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    noisy = TimeSignal(times, return_amplitude(dimer, 1, times).values + 0.3 * noise)
    yield "noisy-2048", noisy, 7, {}
    times = np.arange(64) * 0.5
    yield "flat", TimeSignal(times, np.ones_like(times, dtype=complex)), 2, {}


def test_estimator_matches_unpruned_algorithm():
    """Same bits as ranking every maximum against every stronger one and
    taking abs and log over the whole padded spectrum."""
    for name, sig, n_peaks, kw in _parity_cases():
        want, found = unpruned_spectrum_fft(sig, n_peaks, **kw)
        try:
            got = estimate_spectrum_fft(sig, n_peaks, **kw)
        except FewerPeaksError as err:
            got = err.found
            assert found < n_peaks, name
        else:
            assert found == n_peaks, name
        assert np.array_equal(got.eigenvalues, want.eigenvalues), name
        assert np.array_equal(got.weights, want.weights), name
        assert got.resolution == want.resolution, name
        assert got.warnings == want.warnings, name
        if name == "noisy-2048":
            mag = np.abs(np.fft.fft(sig.values))
            maxima = np.sum((mag > np.roll(mag, 1)) & (mag > np.roll(mag, -1)))
            assert maxima >= 300
        if name == "flat":
            assert found == 1


# ---------------------------------------------------------- extrapolation


def test_noiseless_extrapolation_is_exact(dimer):
    model = DecayModel((0.004, 0.009))
    series = measure_decaying(dimer, [1, 2], np.linspace(0, 100, 11), model)
    fit = extrapolate_t0(series)
    exact = measure_exact(dimer, [1, 2])
    np.testing.assert_allclose(fit.moduli, exact.moduli, atol=1e-12)
    np.testing.assert_allclose(fit.rates, model.rates, atol=1e-12)
    np.testing.assert_allclose(
        fit.site_rates, np.tile(model.rates, (2, 1)), atol=1e-12
    )
    assert fit.warnings == ()


def test_extrapolation_weights_rates_by_population():
    times = np.linspace(0.0, 100.0, 11)
    m = np.array([[0.6, 0.8], [0.8, 0.6]])
    gam = np.array([[0.004, 0.006], [0.010, 0.002]])
    amps = m[:, None, :] * np.exp(-0.5 * gam[:, None, :] * times[None, :, None])
    series = DecaySeries((1, 2), np.array([-1.0, 1.0]), times, amps)
    fit = extrapolate_t0(series)
    np.testing.assert_allclose(fit.moduli, m, atol=1e-12)
    # rates are averaged with the time-zero populations as weights
    assert fit.rates[0] == pytest.approx(0.36 * 0.004 + 0.64 * 0.010, abs=1e-12)
    assert fit.rates[1] == pytest.approx(0.64 * 0.006 + 0.36 * 0.002, abs=1e-12)


def test_extrapolated_measurement_is_valid(dimer):
    series = measure_decaying(
        dimer, [1], np.linspace(0, 100, 11), DecayModel((0.004, 0.009)),
        noise=0.01, seed=2,
    )
    meas = extrapolate_t0(series).to_measurement()
    assert meas.provenance.kind == "extrapolated"
    assert meas.provenance.norm_slack == 0.1
    assert meas.nodes == (1,)


def test_extrapolation_rejects_nonpositive_amplitudes():
    times = np.array([0.0, 1.0])
    amps = np.array([[[1.0, 0.5], [0.0, 0.4]]])
    with pytest.raises(InputError, match="nonpositive"):
        extrapolate_t0(DecaySeries((1,), np.array([-1.0, 1.0]), times, amps))


def test_extrapolation_flags_model_violations(dimer):
    times = np.linspace(0.0, 100.0, 11)
    series = measure_decaying(dimer, [1, 2], times, DecayModel((0.004, 0.009)))
    wobble = np.where(np.arange(11) % 2 == 0, 3.0, 1 / 3.0)
    amps = series.amplitudes * wobble[None, :, None]
    fit = extrapolate_t0(DecaySeries((1, 2), series.eigenvalues, times, amps))
    assert len(fit.warnings) > 0
    assert any("deviates from exponential" in w for w in fit.warnings)
    # four bad series, but only the first five would ever be listed verbatim
    assert len(fit.warnings) <= 6
