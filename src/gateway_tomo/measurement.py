"""Measurement records: spectral moduli, shot sampling, and decaying signals.

The reconstruction input is a shared eigenvalue list plus, per accessed
site, the modulus of every eigenstate amplitude at that site.  Records can
come from exact simulation, from finite projective-measurement statistics
(multinomial shots over eigenstates), or from extrapolating exponentially
decaying amplitude series back to time zero.  This module also simulates
the complex return amplitude at the reference site on a uniform time grid,
the raw signal the spectrum estimator consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._json import numbers, site_keyed, strict_object
from .errors import InputError
from .spectral import EigenSystem

_KINDS = ("exact", "shots", "extrapolated")


@dataclass(frozen=True)
class Provenance:
    """How a measurement record was produced.

    The allowed drift of per-site modulus-square sums away from one depends
    on the source: exact records are held to numerical precision, shot
    records to a few times the sampling scale, extrapolated records to a
    loose bound since nothing constrains their normalization.
    """

    kind: str
    shots: int | None = None
    seed: int | None = None
    times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InputError(
                f"provenance kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.kind == "shots":
            try:  # text, null and huge ints have no root; NaN fails both bounds
                bad = not 1 <= math.sqrt(self.shots) < math.inf
            except (TypeError, ValueError, OverflowError):
                bad = True
            if bad:
                raise InputError("shot provenance needs a positive shot count")
        elif self.shots is not None:
            raise InputError(f"{self.kind!r} provenance does not take a shot count")
        if self.times is not None:
            object.__setattr__(self, "times", tuple(float(t) for t in self.times))

    @property
    def norm_slack(self) -> float:
        if self.kind == "exact":
            return 1e-8
        if self.kind == "shots":
            return 3.0 / math.sqrt(self.shots)
        return 0.1


def _provenance_to_json(p: Provenance) -> dict:
    out: dict = {"kind": p.kind}
    if p.shots is not None:
        out["count"] = p.shots
    if p.seed is not None:
        out["seed"] = p.seed
    if p.times is not None:
        out["times"] = list(p.times)
    return out


def _provenance_from_json(data: object) -> Provenance:
    doc = strict_object(data, "provenance", ("kind",), ("count", "seed", "times"))
    times = doc.get("times")
    return Provenance(
        doc["kind"],
        shots=doc.get("count"),
        seed=doc.get("seed"),
        times=None if times is None else tuple(numbers(times, 'provenance "times"', 1)),
    )


@dataclass(frozen=True, eq=False)
class SpectralMeasurement:
    """Eigenvalues plus per-site amplitude moduli for the accessed sites.

    ``moduli[i, j]`` is the modulus at site ``nodes[i]`` in eigenstate
    ``j``; eigenvalues are strictly increasing.
    """

    nodes: tuple[int, ...]
    eigenvalues: np.ndarray
    moduli: np.ndarray
    provenance: Provenance

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        mods = np.asarray(self.moduli, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "moduli", mods)
        if vals.ndim != 1:
            raise InputError("eigenvalues must be a flat list")
        if not np.all(np.isfinite(vals)):
            raise InputError("eigenvalues must be finite")
        if np.any(np.diff(vals) <= 0):
            raise InputError("eigenvalues must be strictly increasing")
        if mods.shape != (len(self.nodes), len(vals)):
            raise InputError(
                f"moduli shape {mods.shape} does not match "
                f"{len(self.nodes)} sites x {len(vals)} eigenvalues"
            )
        if not np.all(np.isfinite(mods)) or np.any(mods < 0):
            raise InputError("moduli must be finite and nonnegative")
        if len(set(self.nodes)) != len(self.nodes):
            raise InputError("measured sites must be distinct")
        slack = self.provenance.norm_slack
        sums = np.sum(mods * mods, axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > slack):
            worst = int(np.argmax(off))
            raise InputError(
                f"modulus squares at site {self.nodes[worst]} sum to "
                f"{sums[worst]:.6f}, outside 1 +/- {slack:.3g}"
            )

    def moduli_of(self, node: int) -> np.ndarray:
        try:
            i = self.nodes.index(node)
        except ValueError:
            raise InputError(f"site {node} was not measured") from None
        return self.moduli[i]


def measurement_to_json(m: SpectralMeasurement) -> dict:
    return {
        "provenance": _provenance_to_json(m.provenance),
        "eigenvalues": [float(e) for e in m.eigenvalues],
        "moduli": {
            str(n): [float(x) for x in m.moduli[i]] for i, n in enumerate(m.nodes)
        },
    }


def measurement_from_json(data: object) -> SpectralMeasurement:
    keys = ("provenance", "eigenvalues", "moduli")
    doc = strict_object(data, "measurement document", keys)
    sites, rows = site_keyed(doc["moduli"], 'measurement "moduli"')
    return SpectralMeasurement(
        sites,
        numbers(doc["eigenvalues"], 'measurement "eigenvalues"'),
        numbers(rows, 'measurement "moduli"'),
        _provenance_from_json(doc["provenance"]),
    )


def _measured_sites(eig: EigenSystem, nodes: Iterable[int]) -> tuple[int, ...]:
    if eig.gauge_reference is None:
        raise InputError(
            "gauge-fix the eigensystem against a reference site before measuring"
        )
    return tuple(sorted(nodes))


def measure_exact(eig: EigenSystem, nodes: Iterable[int]) -> SpectralMeasurement:
    """Read off exact amplitude moduli at the given sites."""
    nodes = _measured_sites(eig, nodes)
    rows = np.stack([np.abs(eig.site_amplitudes(n)) for n in nodes])
    return SpectralMeasurement(
        nodes, eig.eigenvalues.copy(), rows, Provenance("exact")
    )


def is_shot_count(count: object) -> bool:
    """Whether ``count`` is a whole number in [1, 2**63), numpy's multinomial cap."""
    real = isinstance(count, (int, float, np.integer, np.floating))
    return real and 1 <= count < 2**63 and float(count).is_integer()


def measure_shots(
    eig: EigenSystem, nodes: Iterable[int], shots: int, seed: int | None = None
) -> SpectralMeasurement:
    """Sample eigenstate populations per site from multinomial statistics.

    Each site is measured independently: ``shots`` projective outcomes are
    drawn over the eigenstates with probabilities given by the exact
    modulus squares, and the estimated modulus is the square root of the
    observed frequency.
    """
    nodes = _measured_sites(eig, nodes)
    if not is_shot_count(shots):
        raise InputError(f"shot count {shots!r} is not a whole number in [1, 2**63)")
    rng = np.random.default_rng(seed)
    rows = []
    for n in nodes:
        weights = eig.site_amplitudes(n) ** 2
        probs = weights / weights.sum()
        counts = rng.multinomial(shots, probs)
        rows.append(np.sqrt(counts / shots))
    return SpectralMeasurement(
        nodes,
        eig.eigenvalues.copy(),
        np.stack(rows),
        Provenance("shots", shots=shots, seed=seed),
    )


@dataclass(frozen=True)
class DecayModel:
    """Per-eigenstate amplitude decay rates; amplitude falls as exp(-rate*t/2)."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        rates = tuple(float(r) for r in self.rates)
        if any(not math.isfinite(r) or r < 0 for r in rates):
            raise InputError("decay rates must be finite and nonnegative")
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True, eq=False)
class DecaySeries:
    """Time series of decaying amplitude moduli at the measured sites.

    ``amplitudes[i, k, j]`` is the modulus at site ``nodes[i]``, sample
    time ``times[k]``, eigenstate ``j``.
    """

    nodes: tuple[int, ...]
    eigenvalues: np.ndarray
    times: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        times = np.asarray(self.times, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        if times.ndim != 1 or len(times) < 2:
            raise InputError("a decay series needs at least two sample times")
        if np.any(np.diff(times) <= 0) or times[0] < 0 or not np.isfinite(times).all():
            raise InputError("sample times must be nonnegative and increasing")
        if amps.shape != (len(self.nodes), len(times), len(vals)):
            raise InputError(
                f"amplitude block shape {amps.shape} does not match "
                "(sites, times, eigenvalues)"
            )
        if not np.all(np.isfinite(amps)):
            raise InputError("amplitudes must be finite")


def decay_series_to_json(series: DecaySeries) -> dict:
    return {
        "eigenvalues": [float(e) for e in series.eigenvalues],
        "times": [float(t) for t in series.times],
        "amplitudes": {
            str(n): [[float(x) for x in row] for row in series.amplitudes[i]]
            for i, n in enumerate(series.nodes)
        },
    }


def decay_series_from_json(data: object) -> DecaySeries:
    keys = ("eigenvalues", "times", "amplitudes")
    doc = strict_object(data, "decay series document", keys)
    sites, blocks = site_keyed(doc["amplitudes"], 'decay series "amplitudes"')
    return DecaySeries(
        sites,
        numbers(doc["eigenvalues"], 'decay series "eigenvalues"', 1),
        numbers(doc["times"], 'decay series "times"'),
        numbers(blocks, 'decay series "amplitudes"'),
    )


def measure_decaying(
    eig: EigenSystem,
    nodes: Iterable[int],
    times: Iterable[float],
    model: DecayModel,
    *,
    noise: float = 0.0,
    seed: int | None = None,
) -> DecaySeries:
    """Simulate moduli decaying as exp(-rate*t/2), optionally noisy.

    Noise is multiplicative log-normal: each sample is scaled by
    exp(N(0, noise)), matching relative amplitude error of roughly
    ``noise`` for small values.
    """
    nodes = _measured_sites(eig, nodes)
    if len(model.rates) != len(eig.eigenvalues):
        raise InputError(
            f"{len(model.rates)} decay rates for {len(eig.eigenvalues)} eigenstates"
        )
    if noise < 0:
        raise InputError("noise level must be nonnegative")
    times = _time_array(times)
    rates = np.asarray(model.rates)
    envelope = np.exp(-0.5 * np.outer(times, rates))
    amps = np.stack([np.abs(eig.site_amplitudes(n)) * envelope for n in nodes])
    if noise > 0:
        rng = np.random.default_rng(seed)
        amps = amps * np.exp(rng.normal(0.0, noise, size=amps.shape))
    return DecaySeries(nodes, eig.eigenvalues.copy(), times, amps)


def _time_array(times: Iterable[float]) -> np.ndarray:
    # a tuple of an array would box every sample; generators must be read once
    return np.asarray(times if isinstance(times, np.ndarray) else tuple(times), float)


def _uniform_step(times: np.ndarray) -> float:
    steps = np.diff(times)
    dt = float(steps[0])
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise InputError("signal must be sampled on a uniform increasing time grid")
    return dt


@dataclass(frozen=True, eq=False)
class TimeSignal:
    """Complex-valued return amplitude sampled on a time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != times.shape:
            raise InputError("times and values must be flat lists of equal length")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise InputError("signal samples must be finite")


def signal_to_json(sig: TimeSignal) -> dict:
    return {
        "times": [float(t) for t in sig.times],
        "real": [float(v.real) for v in sig.values],
        "imag": [float(v.imag) for v in sig.values],
    }


def signal_from_json(data: object) -> TimeSignal:
    doc = strict_object(data, "signal document", ("times", "real", "imag"))
    real = numbers(doc["real"], 'signal "real"')
    imag = numbers(doc["imag"], 'signal "imag"')
    if real.shape != imag.shape:
        raise InputError("real and imaginary parts differ in length")
    return TimeSignal(numbers(doc["times"], 'signal "times"'), real + 1j * imag)


def return_amplitude(
    eig: EigenSystem, reference: int, times: Iterable[float]
) -> TimeSignal:
    """Survival amplitude at the reference site: sum of w_j e^(-i E_j t).

    The weights w_j are the squared reference amplitudes, so the signal is
    independent of eigenvector sign conventions.  The m samples must lie on
    a uniform grid of step dt; blocked angle addition then needs 2 ceil(sqrt(m))
    exponentials per eigenstate, not m: each block of B = ceil(sqrt(m)) samples
    is phased at its stored start time and advanced by multiples of dt, so
    jitter that passes the uniformity check drifts by at most B steps' worth.
    """
    times = _time_array(times)
    m = times.size
    if times.ndim != 1 or m == 0:
        raise InputError("need at least one sample time")
    dt = _uniform_step(times) if m > 1 else 0.0
    block = math.isqrt(m - 1) + 1
    energies = eig.eigenvalues
    coarse = np.exp(-1j * np.outer(times[::block], energies))
    coarse *= eig.site_amplitudes(reference) ** 2
    fine = np.exp(-1j * np.outer(np.arange(block) * dt, energies))
    return TimeSignal(times, (coarse @ fine.T).ravel()[:m])
