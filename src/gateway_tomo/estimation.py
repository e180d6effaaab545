"""Estimating spectral data from simulated signals.

Two estimators live here.  The Fourier estimator recovers eigenvalues and
reference-site weights from a uniformly sampled return-amplitude signal:
the strongest local maxima of the unpadded magnitude spectrum are the peaks,
each refined by three-point quadratic interpolation of the log magnitude at
its highest zero-padded bin, which pushes the frequency and height bias well
below the raw bin width.  The decay extrapolator fits a straight line to
log amplitudes over time, per site and eigenstate, and reads the time-zero
modulus off the intercept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FewerPeaksError, InputError
from .measurement import DecaySeries, Provenance, SpectralMeasurement, TimeSignal
from .measurement import _uniform_step

_WINDOWS = ("rect", "hann")
_PAD = 8  # zero-padding factor of the refinement spectrum
_DRIFT_TOL = 0.2  # rms log residual above which a decay fit is flagged


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Estimated eigenvalues with reference weights, ascending in energy."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    resolution: float
    warnings: tuple[str, ...] = ()

    @property
    def peaks(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (float(e), float(w)) for e, w in zip(self.eigenvalues, self.weights)
        )


def _refine_peak(alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    """Quadratic fit through a maximum's log magnitude beta and its neighbours'.

    Returns the sub-bin offset in (-1, 1) and the interpolated log height.
    """
    denom = alpha - 2.0 * beta + gamma
    if denom >= 0:
        # flat or concave-up triple; keep the bin itself
        return 0.0, beta
    delta = 0.5 * (alpha - gamma) / denom
    return delta, beta - 0.25 * (alpha - gamma) * delta


def estimate_spectrum_fft(
    signal: TimeSignal, n_peaks: int, *, window: str = "rect"
) -> SpectrumEstimate:
    """Pick the ``n_peaks`` strongest spectral lines of a return signal.

    The signal must be sampled on a uniform grid.  Peaks are the strongest
    strict local maxima of the unpadded spectrum (no two of them are
    adjacent bins); each is refined at the highest bin within ``_PAD`` (8)
    bins of it on a spectrum zero-padded ``_PAD``-fold,
    from the log magnitudes of that bin and its two neighbours.  Raises
    FewerPeaksError (carrying what was found) when the signal does not show
    enough distinct maxima.
    """
    if n_peaks < 1:
        raise InputError("need at least one peak to look for")
    if window not in _WINDOWS:
        raise InputError(f"window must be one of {_WINDOWS}, got {window!r}")
    m = len(signal.times)
    needed = max(4 * n_peaks, 8)
    if m < needed:
        raise InputError(
            f"signal with {m} samples is too short for {n_peaks} peaks; "
            f"need at least {needed}"
        )
    dt = _uniform_step(signal.times)

    win = np.hanning(m) if window == "hann" else np.ones(m)
    win_sum = float(win.sum())
    tapered = signal.values * win

    mag = np.abs(np.fft.fft(tapered))
    candidates = np.nonzero((mag > np.roll(mag, 1)) & (mag > np.roll(mag, -1)))[0]
    kept = candidates[np.argsort(mag[candidates])[::-1]][:n_peaks]

    padded = np.fft.fft(tapered, n=_PAD * m)
    mp = len(padded)
    offsets = np.arange(-_PAD, _PAD + 1)

    energies = []
    weights = []
    warnings: list[str] = []
    nyquist = np.pi / dt
    resolution = 2.0 * np.pi / (m * dt)
    for k0 in kept:
        windowed = (k0 * _PAD + offsets) % mp
        k_star = int(windowed[np.argmax(np.abs(padded[windowed]))])
        triple = np.abs(padded.take([k_star - 1, k_star, k_star + 1], mode="wrap"))
        with np.errstate(divide="ignore"):
            delta, log_height = _refine_peak(*np.log(triple))
        omega = 2.0 * np.pi * (k_star + delta) / (mp * dt)
        if omega > nyquist:
            omega -= 2.0 * nyquist
        energies.append(-omega)
        weights.append(float(np.exp(log_height)) / win_sum)
        if nyquist - abs(omega) < 2.0 * resolution:
            warnings.append(
                f"peak at energy {-omega:.6g} sits near the aliasing edge"
            )

    order = np.argsort(energies)
    energies_arr = np.asarray(energies)[order]
    weights_arr = np.asarray(weights)[order]
    if len(energies_arr) > 1 and np.any(np.diff(energies_arr) < 0.5 * resolution):
        warnings.append("some peaks are closer than half the spectral resolution")
    estimate = SpectrumEstimate(
        energies_arr, weights_arr, resolution, tuple(warnings)
    )
    if len(kept) < n_peaks:
        raise FewerPeaksError(n_peaks, estimate)
    return estimate


@dataclass(frozen=True, eq=False)
class ExtrapolationFit:
    """Line fits of log amplitude against time, one per site and eigenstate.

    ``moduli[i, j]`` is the extrapolated time-zero modulus; ``site_rates``
    holds the per-site decay-rate estimates and ``rates`` their
    population-weighted combination per eigenstate.
    """

    nodes: tuple[int, ...]
    eigenvalues: np.ndarray
    times: np.ndarray
    moduli: np.ndarray
    rates: np.ndarray
    site_rates: np.ndarray
    warnings: tuple[str, ...] = ()

    def to_measurement(self) -> SpectralMeasurement:
        return SpectralMeasurement(
            self.nodes,
            self.eigenvalues.copy(),
            self.moduli.copy(),
            Provenance("extrapolated", times=tuple(float(t) for t in self.times)),
        )


def extrapolate_t0(series: DecaySeries) -> ExtrapolationFit:
    """Extrapolate decaying moduli back to time zero.

    Each (site, eigenstate) series is fitted as a straight line in log
    amplitude; the intercept gives the undamped modulus and the slope gives
    half the decay rate.  Series whose rms fit residual exceeds ``_DRIFT_TOL``
    in log units are flagged as violating the exponential model.
    """
    amps = series.amplitudes
    if np.any(amps <= 0):
        raise InputError("nonpositive amplitudes cannot be log-fitted")
    times = series.times

    n_sites, n_times, n_states = amps.shape
    design = np.column_stack([np.ones(n_times), times])
    targets = np.log(amps).transpose(1, 0, 2).reshape(n_times, -1)
    coef, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    intercepts = coef[0].reshape(n_sites, n_states)
    slopes = coef[1].reshape(n_sites, n_states)

    residuals = targets - design @ coef
    rms = np.sqrt(np.mean(residuals**2, axis=0)).reshape(n_sites, n_states)
    warnings = []
    bad = np.argwhere(rms > _DRIFT_TOL)
    for i, j in bad[:5]:
        warnings.append(
            f"site {series.nodes[i]} eigenstate {j} deviates from exponential "
            f"decay (rms log residual {rms[i, j]:.3f})"
        )
    if len(bad) > 5:
        warnings.append(f"{len(bad) - 5} further series deviate from the model")

    moduli = np.exp(intercepts)
    site_rates = -2.0 * slopes
    pops = moduli**2
    rates = np.sum(pops * site_rates, axis=0) / np.sum(pops, axis=0)
    return ExtrapolationFit(
        series.nodes,
        series.eigenvalues.copy(),
        times.copy(),
        moduli,
        rates,
        site_rates,
        tuple(warnings),
    )
