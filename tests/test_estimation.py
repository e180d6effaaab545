"""Fourier peak estimation and decay extrapolation."""

import math
import sys
import threading
import tracemalloc

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
from gateway_tomo import estimation
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
    for n_peaks in (2.5, "2", None, True, np.float64(2.0)):
        with pytest.raises(InputError, match="integer"):
            estimate_spectrum_fft(sig, n_peaks)
    want = estimate_spectrum_fft(sig, 2)
    got = estimate_spectrum_fft(sig, np.int64(2))
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.weights, want.weights)
    with pytest.raises(InputError):
        estimate_spectrum_fft(sig, 2, window="boxcar")
    with pytest.raises(InputError, match="uniform"):
        TimeSignal(np.array([0.0, 0.4, 1.0, 1.4, 2.0, 2.4, 3.0, 3.4]), np.ones(8, complex))
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
    # the strongest line in the first bin, then in the last, of three
    m, dt = 256, 0.5
    times = np.arange(m) * dt
    weaker = 0.5 * np.exp(-1j * 1.3 * times) + 0.3 * np.exp(1j * 2.1 * times)
    for name, energy in (("bin-0", 0.0), ("bin-last", 2 * np.pi / (m * dt))):
        sig = TimeSignal(times, np.exp(-1j * energy * times) + weaker)
        yield name, sig, 3, {"window": "hann"}
    # a tone midway between bins 0 and 1: the two tie, so neither is a maximum
    tie = TimeSignal(times, np.exp(1j * np.pi / (m * dt) * times))
    yield "half-bin-tie", tie, 1, {}


def _check_against_reference(name, sig, n_peaks, kw):
    """The estimate agrees with unpruned_spectrum_fft to rounding: eigenvalues
    within 1e-12, weights within 1e-10 relative, and found counts, resolution
    and warnings exactly."""
    want, found = unpruned_spectrum_fft(sig, n_peaks, **kw)
    try:
        got = estimate_spectrum_fft(sig, n_peaks, **kw)
    except FewerPeaksError as err:
        got = err.found
        assert found < n_peaks, name
    else:
        assert found == n_peaks, name
    assert len(got.eigenvalues) == len(want.eigenvalues), name
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-10, atol=0)
    assert got.resolution == want.resolution, name
    assert got.warnings == want.warnings, name
    return found


def test_estimator_matches_unpruned_algorithm():
    """Agrees with ranking every maximum against every stronger one and taking
    abs and log over the whole padded spectrum.  The window bins are summed
    in another order than the padded FFT sums them, so the bound is rounding,
    not bitwise equality."""
    for name, sig, n_peaks, kw in _parity_cases():
        found = _check_against_reference(name, sig, n_peaks, kw)
        if name == "noisy-2048":
            mag = np.abs(np.fft.fft(sig.values))
            maxima = np.sum((mag > np.roll(mag, 1)) & (mag > np.roll(mag, -1)))
            assert maxima >= 300
        if name == "flat":
            assert found == 1


def _rolled_peaks(sig, n_peaks, window="rect"):
    """The tapered signal and its kept bins, scanned against two rolled copies."""
    m = len(sig.times)
    win = np.hanning(m) if window == "hann" else np.ones(m)
    tapered = sig.values * win
    mag = np.abs(np.fft.fft(tapered))
    maxima = np.nonzero((mag > np.roll(mag, 1)) & (mag > np.roll(mag, -1)))[0]
    return tapered, maxima[np.argsort(mag[maxima])[::-1]][:n_peaks]


def test_maxima_scan_matches_rolled_comparison(monkeypatch):
    """The estimator hands its window filler exactly the bins, in the order,
    that comparing the magnitudes with two rolled copies keeps, including a
    line in the first or last bin and a tie that forms no maximum."""
    seen = []
    for filler in ("_zoom_window", "_fft_window"):
        fill = getattr(estimation, filler)

        def recording(x, kept, *grid, fill=fill):
            seen.append(kept.copy())
            return fill(x, kept, *grid)

        monkeypatch.setattr(estimation, filler, recording)
    for name, sig, n_peaks, kw in _parity_cases():
        seen.clear()
        try:
            estimate_spectrum_fft(sig, n_peaks, **kw)
        except FewerPeaksError:
            pass
        tapered, want = _rolled_peaks(sig, n_peaks, **kw)
        assert len(seen) == 1 and np.array_equal(seen[0], want), name
        mag = np.abs(np.fft.fft(tapered))
        if name == "bin-0":
            assert want[0] == 0
        if name == "bin-last":
            assert want[0] == len(mag) - 1
        if name == "half-bin-tie":
            assert mag[0] == mag[1] == mag.max() and len(want) == 0


def _longdouble_window(tapered, kept):
    """|DTFT| of ``tapered`` at the padded window bins, summed in long double."""
    m = len(tapered)
    mp = estimation._PAD * m
    bins = (kept[:, None] * estimation._PAD + estimation._OFFSETS) % mp
    turns = (bins.reshape(-1, 1) * np.arange(m)) % mp
    pi = 4 * np.arctan(np.longdouble(1))
    angle = turns.astype(np.longdouble) * (-2 * pi / mp)
    re = tapered.real.astype(np.longdouble)
    im = tapered.imag.astype(np.longdouble)
    cos, sin = np.cos(angle), np.sin(angle)
    out = np.hypot(cos @ re - sin @ im, sin @ re + cos @ im)
    return out.reshape(bins.shape)


def test_window_fillers_match_long_double_transform():
    """Both ways of filling the peak windows agree with a long-double DTFT at
    the same bins, to 1e-13 of the highest bin in any window.  Rounding
    scales with the signal, not with a weak line: on fmo-2 the padded FFT
    itself is off by 1.3e-12 of its weakest window's own peak."""
    for name, sig, n_peaks, kw in _parity_cases():
        m = len(sig.times)
        tapered, kept = _rolled_peaks(sig, n_peaks, **kw)
        want = _longdouble_window(tapered, kept)
        scale = want.max(initial=0.0)
        grid = estimation._grid(m, kw.get("window", "rect"))
        x = np.zeros(grid.rows * grid.block, complex)
        x[:m] = tapered
        for filler, got in (
            ("zoom", estimation._zoom_window(x, kept, grid)),
            ("fft", estimation._fft_window(tapered, kept)),
        ):
            assert got.shape == want.shape, (name, filler)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (name, filler)


def test_padded_transform_only_past_the_crossover(monkeypatch):
    """Few peaks never build the padded spectrum; many peaks on a short signal
    still do, and both estimates agree with the reference."""
    lengths = []
    fft = np.fft.fft

    def recording_fft(a, n=None, *args, **kwargs):
        lengths.append(len(a) if n is None else n)
        return fft(a, n, *args, **kwargs)

    monkeypatch.setattr(estimation.np.fft, "fft", recording_fft)
    cases = {name: case for name, *case in _parity_cases()}
    sig, n_peaks, kw = cases["fmo-0"]
    assert (len(sig.times), n_peaks) == (8192, 7)
    estimate_spectrum_fft(sig, n_peaks, **kw)
    assert lengths and max(lengths) <= 8192

    rng = np.random.default_rng(5)
    times = np.arange(1024) * 0.3
    noise = TimeSignal(times, rng.normal(size=1024) + 1j * rng.normal(size=1024))
    lengths.clear()
    estimate_spectrum_fft(noise, 50)
    assert estimation._PAD * 1024 in lengths
    _check_against_reference("noise-1024", noise, 50, {})


def test_window_built_once_per_length(monkeypatch):
    """A second estimate at the same length reuses the cached taper."""
    lengths = []
    hanning = np.hanning

    def recording_hanning(m):
        lengths.append(m)
        return hanning(m)

    monkeypatch.setattr(estimation.np, "hanning", recording_hanning)
    estimation._grid.cache_clear()
    sig = next(sig for name, sig, *_ in _parity_cases() if name == "trimer-hann")
    estimate_spectrum_fft(sig, 3, window="hann")
    assert lengths == [120]
    lengths.clear()
    estimate_spectrum_fft(sig, 3, window="hann")
    assert lengths == []


def _outputs(sig, n_peaks, window):
    est = estimate_spectrum_fft(sig, n_peaks, window=window)
    arrays = est.eigenvalues.tobytes(), est.weights.tobytes()
    return arrays, est.resolution, est.warnings


def _noisy_tones(m, seed):
    """Three tones in complex noise: hundreds of maxima, so any P is found."""
    rng = np.random.default_rng(seed)
    times = np.arange(m) * 0.3
    tones = np.exp(-1j * np.outer(times, [-1.0, 0.4, 2.2])).sum(axis=1)
    noise = rng.normal(size=m) + 1j * rng.normal(size=m)
    return TimeSignal(times, tones + 0.3 * noise)


def test_cached_tables_give_the_cold_result():
    """Estimates through a warm cache and reused work arrays are bitwise those
    of a cold one, with both windows and both window fillers (3 and 7 peaks
    zoom, 40 take the padded FFT), at m = 1000 (blocks of 32 x 32, so a zero
    tail of 24), 1024 and 8192, on two signals interleaved at each length.
    The cached tables are read-only, and no returned array shares their
    memory or that of a lent work set."""
    fmo = next(sig for name, sig, *_ in _parity_cases() if name == "fmo-0")
    calls = [(fmo, 7, "rect"), (_noisy_tones(8192, 19), 40, "hann"), (fmo, 7, "hann")]
    for m in (1000, 1024):
        for window in ("rect", "hann"):
            for n_peaks in (7, 3, 40, 7):
                calls += [(_noisy_tones(m, n_peaks), n_peaks, window)]
                calls += [(_noisy_tones(m, 18), n_peaks, window)]
    calls += [(fmo, 7, "rect")]
    zooms = []
    zoom = estimation._zoom_window
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_zoom_window", lambda *a: zooms.append(1) or zoom(*a))
        cold = []
        for call in calls:
            estimation._grid.cache_clear()
            cold.append(_outputs(*call))
    assert 0 < len(zooms) < len(calls)
    estimation._grid.cache_clear()
    assert [_outputs(*call) for call in calls] == cold
    info = estimation._grid.cache_info()
    assert (info.misses, info.hits) == (6, len(calls) - 6)

    for sig, n_peaks, window in calls:
        est = estimate_spectrum_fft(sig, n_peaks, window=window)
        grid = estimation._grid(len(sig.times), window)
        (work,) = grid.spares
        tables = (grid.taper, grid.starts, grid.shift, grid.roots)
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0
        lent = (work.x, work.ring, work.zoom)
        for out in (est.eigenvalues, est.weights):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in tables + lent)


def test_failed_estimates_return_their_work_set(monkeypatch):
    """A call that raises, before, inside or after the lent region, leaves the
    one work set in its pool."""
    sig = _noisy_tones(1024, 3)
    silent = TimeSignal(sig.times, np.zeros(1024, complex))
    estimation._grid.cache_clear()
    want = _outputs(sig, 7, "rect")
    grid = estimation._grid(1024, "rect")
    (work,) = grid.spares

    def failing(*args):
        raise InputError("window filler failed")

    for i in range(100):
        with monkeypatch.context() as patch:
            if i % 3 == 0:
                patch.setattr(estimation, "_zoom_window", failing)
                with pytest.raises(InputError, match="filler"):
                    estimate_spectrum_fft(sig, 7)
            elif i % 3 == 1:
                with pytest.raises(FewerPeaksError):
                    estimate_spectrum_fft(silent, 2)
            else:
                with pytest.raises(InputError):
                    estimate_spectrum_fft(sig, 300)
        assert grid.spares == [work]
    assert _outputs(sig, 7, "rect") == want


def test_threads_never_share_a_work_set():
    """Four threads estimating different signals at one length, 200 calls
    each with a short switch interval, get the sequential results; the pool
    ends with at most one set per thread."""
    signals = [_noisy_tones(1024, 40 + i) for i in range(4)]
    want = [_outputs(sig, 7, "hann") for sig in signals]
    got = [[] for _ in signals]

    def run(i):
        for _ in range(200):
            got[i].append(_outputs(signals[i], 7, "hann"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 200 for w in want]
    assert 1 <= len(estimation._grid(1024, "hann").spares) <= 4


def test_warm_estimate_allocates_no_work_arrays():
    """A warm estimate at m = 8192 with 7 peaks peaks below 424 KB of traced
    allocation, half the 848 KB it took when every call built its block
    buffer, ring and zoom tables afresh; the spectrum FFT's own output
    (128 KB) and small index arrays remain."""
    fmo = next(sig for name, sig, *_ in _parity_cases() if name == "fmo-0")
    estimate_spectrum_fft(fmo, 7, window="hann")
    tracemalloc.start()
    try:
        estimate_spectrum_fft(fmo, 7, window="hann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 424 * 1024


def test_silent_signal_finds_no_peaks():
    times = np.arange(64) * 0.5
    with pytest.raises(FewerPeaksError) as info:
        estimate_spectrum_fft(TimeSignal(times, np.zeros(64, complex)), 2)
    assert info.value.found.peaks == ()


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
