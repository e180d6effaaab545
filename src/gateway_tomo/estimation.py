"""Estimating spectral data from simulated signals.

Two estimators live here.  The Fourier estimator recovers eigenvalues and
reference-site weights from a uniformly sampled return-amplitude signal:
the strongest local maxima of the unpadded magnitude spectrum are the peaks,
each refined by three-point quadratic interpolation of the log magnitude at
its highest zero-padded bin, which pushes the frequency and height bias well
below the raw bin width.  The zero-padded spectrum is evaluated only in each
peak's window of 19 padded bins: by a direct transform at those bins when
there are few peaks, by one padded FFT when there are many.  What depends
only on the sample count m and the window (the taper, the direct
transform's block geometry, offset powers and m-th roots of unity) is built
once per (m, window) and memoised, read-only, for the last ``_GRIDS`` (8)
pairs, with work arrays lent to one call at a time: 0.25 MB of tables and
0.6 MB per work set at m = 8192 and 7 peaks, 0.9 and 1.6 MB at 32768.  The
decay extrapolator fits a straight line to log amplitudes over time, per
site and eigenstate, and reads the time-zero modulus off the intercept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._json import scalar
from .errors import FewerPeaksError, InputError
from .measurement import DecaySeries, Provenance, SpectralMeasurement, TimeSignal

_WINDOWS = ("rect", "hann")
_PAD = 8  # zero-padding factor of the refinement spectrum
_OFFSETS = np.arange(-_PAD - 1, _PAD + 2)  # a peak's window: 19 padded bins
_ZOOM_COST = 0.325  # one multiply-add of the window transform, in FFT operations
_GRIDS = 8  # (m, window) table sets kept, with their work arrays
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


def _unit(turns: np.ndarray, period: int) -> np.ndarray:
    """exp(-2 pi i turns / period) for integer ``turns`` in [0, period)."""
    angle = turns * (-2.0 * np.pi / period)
    out = np.empty(angle.shape, complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


class _Grid(NamedTuple):
    """The estimator's tables for one sample count m and window, read-only."""

    taper: np.ndarray  # (m,) window weights
    taper_sum: float
    block: int  # B = ceil(sqrt(m)) samples per row of the zoom
    rows: int  # Q = ceil(m / B) rows
    starts: np.ndarray  # (B + Q,) the in-row offsets, then the row starts
    shift: np.ndarray  # (B + Q, 19) s^o, o in _OFFSETS, s a start's (_PAD m)-th root
    roots: np.ndarray  # (m,) the m m-th roots of unity, exp(-2 pi i k / m)
    spares: list  # _Work sets not lent to a call; pop and append are atomic


class _Work:
    """Scratch arrays lent to one estimate at a time; no output views them."""

    def __init__(self, grid: _Grid):
        self.x = np.zeros(grid.rows * grid.block, complex)  # only x[:m] is ever written
        self.ring = np.empty(grid.roots.size + 2)
        self.zoom = np.empty(0, complex)  # grown to the largest P zoomed


@functools.lru_cache(maxsize=_GRIDS)
def _grid(m: int, window: str) -> _Grid:
    """Build, once per (m, window), every table that does not read the signal."""
    taper = np.hanning(m) if window == "hann" else np.ones(m)
    block = math.isqrt(m - 1) + 1
    rows = -(-m // block)
    starts = np.concatenate((np.arange(block), np.arange(rows) * block))
    powers = np.empty((len(starts), _PAD + 1), complex)
    powers[:] = _unit(starts % (_PAD * m), _PAD * m)[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)  # s^1 .. s^(_PAD + 1)
    shift = np.hstack([powers[:, ::-1].conj(), np.ones((len(starts), 1)), powers])
    roots = _unit(np.arange(m), m)
    for table in (taper, starts, shift, roots):
        table.flags.writeable = False
    return _Grid(taper, float(taper.sum()), block, rows, starts, shift, roots, [])


def _zoom_window(x: np.ndarray, kept: np.ndarray, grid: _Grid, work=None) -> np.ndarray:
    """Magnitudes of the _PAD-fold padded spectrum in each kept peak's window.

    An exact DTFT at the window bins by blocked angle addition: ``x`` holds
    the m tapered samples zero-filled to Q rows of B, each row is
    transformed by its in-row phases in one (Q x B) @ (B x 19P) product, and
    the rows are summed at their start phases.  Each phase is a peak's m-th
    root of unity at an exact integer turn, times the offset factor s^o.  The
    in-row, then the row-start phases (Q <= B) share one part of ``work.zoom``.
    """
    work = work or _Work(grid)
    block, rows, n = grid.block, grid.rows, len(kept) * len(_OFFSETS)
    if work.zoom.size < (block + rows) * n:
        work.zoom = np.empty((block + rows) * n, complex)
    phases = work.zoom[: block * n].reshape(block, len(kept), len(_OFFSETS))
    inner = work.zoom[block * n : (block + rows) * n].reshape(rows, n)
    root = grid.roots[np.outer(grid.starts, kept) % grid.roots.size]
    np.multiply(root[:block, :, None], grid.shift[:block, None, :], out=phases)
    np.matmul(x.reshape(rows, block), phases.reshape(block, n), out=inner)
    np.multiply(root[block:, :, None], grid.shift[block:, None, :], out=phases[:rows])
    inner *= phases[:rows].reshape(rows, n)
    return np.abs(inner.sum(axis=0)).reshape(len(kept), len(_OFFSETS))


def _fft_window(tapered: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The same window magnitudes, read off the whole padded FFT."""
    mp = _PAD * tapered.size
    padded = np.fft.fft(tapered, n=mp)
    return np.abs(padded[(kept[:, None] * _PAD + _OFFSETS) % mp])


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

    Only the 19 padded bins around each of the P kept peaks are ever read,
    so they are all that is computed.  A direct transform at those bins
    (``_zoom_window``) costs 19 P m multiply-adds; the padded FFT
    (``_fft_window``) costs about 8 m log2(8 m) operations whatever P is.
    The direct transform is used when ``_ZOOM_COST`` (0.325) times its
    count is the smaller, that is for P < 8 log2(8 m) / 6.175: up to 16
    peaks at m = 1024, 20 at 8192 and 23 at 32768.  The constant was fitted
    to the measured window times of the two (one BLAS thread, 2-vCPU Xeon
    VM, least of five runs), whose crossovers lie near 10, 24 and 31 peaks
    at those lengths.  The product's speed per multiply-add grows with m,
    so one constant keeps the direct transform a little long at small m and
    the FFT a little long at large m: from m = 1024 to 32768 the rule costs
    at most 1.39 times the faster of the two (1.9 times at m = 512).  Both
    fill the same (P x 19) array and agree to rounding.

    The taper, the direct transform's block geometry and its phase tables
    depend on m and the window alone; they are built on the first call for
    that pair and kept, read-only, for the last ``_GRIDS`` (8) pairs, each
    with a pool of work sets (1.6 MB at m = 32768 and 7 peaks), one lent to
    each running call.  A call tapers the signal straight into its set's
    zero-filled block buffer, scans the unpadded spectrum for strict
    circular maxima and gathers the kept peaks' roots of unity from the
    cached table.  The signal's own uniform-grid check gives its step.
    """
    scalar(n_peaks, "number of peaks", integer=True, low=1)
    if window not in _WINDOWS:
        raise InputError(f"window must be one of {_WINDOWS}, got {window!r}")
    m = len(signal.times)
    needed = max(4 * n_peaks, 8)
    if m < needed:
        raise InputError(
            f"signal with {m} samples is too short for {n_peaks} peaks; "
            f"need at least {needed}"
        )
    dt = signal.dt

    grid = _grid(m, window)
    try:
        work = grid.spares.pop()
    except IndexError:
        work = _Work(grid)
    try:
        x, ring = work.x, work.ring
        np.multiply(signal.values, grid.taper, out=x[:m])
        # the magnitudes between copies of their circular neighbours
        mag = ring[1:-1]
        np.abs(np.fft.fft(x[:m]), out=mag)
        ring[0], ring[-1] = mag[-1], mag[0]
        candidates = np.flatnonzero((mag > ring[:-2]) & (mag > ring[2:]))
        kept = candidates[np.argsort(mag[candidates])[::-1]][:n_peaks]
        zoom = _ZOOM_COST * len(_OFFSETS) * len(kept) * m < _PAD * m * math.log2(_PAD * m)
        spectrum = _zoom_window(x, kept, grid, work) if zoom else _fft_window(x[:m], kept)
    finally:
        grid.spares.append(work)
    # the highest of the inner 17 bins, first on ties, and its two neighbours
    peak = 1 + np.argmax(spectrum[:, 1:-1], axis=1)
    triple = np.take_along_axis(spectrum, peak[:, None] + [-1, 0, 1], axis=1)
    with np.errstate(divide="ignore"):
        alpha, beta, gamma = np.log(triple.T)
    denom = alpha - 2.0 * beta + gamma
    # a flat or concave-up triple keeps the bin itself
    delta = np.divide(
        0.5 * (alpha - gamma), denom, out=np.zeros(len(kept)), where=denom < 0
    )
    log_height = beta - 0.25 * (alpha - gamma) * delta
    mp = _PAD * m
    k_star = (kept * _PAD + _OFFSETS[peak]) % mp
    omega = 2.0 * np.pi * (k_star + delta) / (mp * dt)
    nyquist = np.pi / dt
    omega[omega > nyquist] -= 2.0 * nyquist
    resolution = 2.0 * np.pi / (m * dt)
    warnings = [
        f"peak at energy {e:.6g} sits near the aliasing edge"
        for e in -omega[nyquist - np.abs(omega) < 2.0 * resolution]
    ]

    energies = -omega
    order = np.argsort(energies)
    energies_arr = energies[order]
    weights_arr = np.exp(log_height[order]) / grid.taper_sum
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
