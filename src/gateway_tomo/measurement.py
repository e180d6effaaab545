"""Measurement records: spectral moduli, shot sampling, and decaying signals.

The reconstruction input is a shared eigenvalue list plus, per accessed
site, the modulus of every eigenstate amplitude at that site.  Records can
come from exact simulation, from finite projective-measurement statistics
(multinomial shots over eigenstates), or from extrapolating exponentially
decaying amplitude series back to time zero.  This module also simulates
the complex return amplitude at the reference site on a uniform time grid,
the raw signal the spectrum estimator consumes.  A record passes its rules
in one bulk test; only a record that fails it meets the rules one at a time,
in a fixed order, so the first broken one names the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._json import _check_site, kept_numbers, numbers, scalar, site_keyed, site_labels
from ._json import strict_object
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
        if self.kind == "shots":  # numpy's multinomial takes counts below 2**63
            scalar(self.shots, "shot count {!r}", self.shots, whole=True, low=1,
                   high=2**63 - 1)
        elif self.shots is not None:
            raise InputError(f"{self.kind!r} provenance does not take a shot count")
        if self.seed is not None:  # numpy's seed domain
            scalar(self.seed, "seed {!r}", self.seed, integer=True, low=0)
        if self.times is not None:
            times = numbers(self.times, 'provenance "times"', 1)
            object.__setattr__(self, "times", tuple(times.tolist()))

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
    return Provenance(
        doc["kind"], shots=doc.get("count"), seed=doc.get("seed"),
        times=doc.get("times"),
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
        nodes = site_labels(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        vals, mods = self.eigenvalues, self.moduli
        # the rules of _name_the_fault in bulk; only finite moduli pass the norm test
        if not (kept_numbers(vals, 1) and type(mods) is np.ndarray
                and mods.dtype == np.float64 and mods.shape == (len(nodes), len(vals))
                and np.logical_and.reduce(vals[1:] > vals[:-1])
                and np.minimum.reduce(mods, None, initial=0.0) >= 0
                and len(set(nodes)) == len(nodes)
                and np.maximum.reduce(np.abs(np.add.reduce(mods * mods, 1) - 1.0), None,
                                      initial=0.0) <= self.provenance.norm_slack):
            self._name_the_fault()

    def _name_the_fault(self) -> None:
        """Each rule in turn, raising InputError at the first that fails."""
        vals = numbers(self.eigenvalues, "eigenvalues", 1)
        mods = numbers(self.moduli, "moduli")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "moduli", mods)
        if not (np.diff(vals) > 0).all():
            raise InputError("eigenvalues must be strictly increasing")
        if mods.shape != (len(self.nodes), len(vals)):
            raise InputError(
                f"moduli shape {mods.shape} does not match "
                f"{len(self.nodes)} sites x {len(vals)} eigenvalues"
            )
        if (mods < 0).any():
            raise InputError("moduli must be nonnegative")
        if len(set(self.nodes)) != len(self.nodes):
            raise InputError("measured sites must be distinct")
        slack = self.provenance.norm_slack
        sums = np.add.reduce(mods * mods, 1)
        off = np.abs(sums - 1.0)
        if (off > slack).any():
            worst = int(np.argmax(off))
            raise InputError(
                f"modulus squares at site {self.nodes[worst]} sum to "
                f"{sums[worst]:.6f}, outside 1 +/- {slack:.3g}"
            )

    def moduli_of(self, node: int) -> np.ndarray:
        if _check_site(node) not in self.nodes:
            raise InputError(f"site {node} was not measured")
        return self.moduli[self.nodes.index(node)]


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


def _measured_sites(eig: EigenSystem, nodes: Iterable[int]) -> tuple[tuple, list]:
    """The checked sites, ascending, and their rows of ``eig.vectors``."""
    if eig.gauge_reference is None:
        raise InputError(
            "gauge-fix the eigensystem against a reference site before measuring"
        )
    nodes = tuple(sorted(site_labels(nodes)))
    for n in nodes:
        if n not in eig.index_of:
            raise InputError(f"site {n} is not part of this system")
    return nodes, list(map(eig.index_of.__getitem__, nodes))


def measure_exact(eig: EigenSystem, nodes: Iterable[int]) -> SpectralMeasurement:
    """Read off exact amplitude moduli at the given sites."""
    nodes, rows = _measured_sites(eig, nodes)
    moduli = np.abs(eig.vectors.take(rows, 0))
    return SpectralMeasurement(nodes, eig.eigenvalues.copy(), moduli, Provenance("exact"))


def measure_shots(
    eig: EigenSystem, nodes: Iterable[int], shots: int, seed: int | None = None
) -> SpectralMeasurement:
    """Sample eigenstate populations per site from multinomial statistics.

    Each site is measured independently: ``shots`` projective outcomes are
    drawn over the eigenstates with probabilities given by the exact
    modulus squares, and the estimated modulus is the square root of the
    observed frequency.
    """
    nodes, rows = _measured_sites(eig, nodes)
    provenance = Provenance("shots", shots=shots, seed=seed)
    rng = np.random.default_rng(seed)
    weights = eig.vectors.take(rows, 0) ** 2
    counts = rng.multinomial(shots, weights / np.add.reduce(weights, 1, keepdims=True))
    return SpectralMeasurement(
        nodes, eig.eigenvalues.copy(), np.sqrt(counts / shots), provenance
    )


@dataclass(frozen=True)
class DecayModel:
    """Per-eigenstate amplitude decay rates; amplitude falls as exp(-rate*t/2)."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        rates = numbers(self.rates, "decay rates", 1)
        if (rates < 0).any():
            raise InputError("decay rates must be nonnegative")
        object.__setattr__(self, "rates", tuple(rates.tolist()))


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
        object.__setattr__(self, "nodes", site_labels(self.nodes))
        vals = numbers(self.eigenvalues, "eigenvalues", 1)
        times = numbers(self.times, "times")
        amps = numbers(self.amplitudes, "amplitudes")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        if times.ndim != 1 or len(times) < 2:
            raise InputError("a decay series needs at least two sample times")
        if np.any(np.diff(times) <= 0) or times[0] < 0:
            raise InputError("sample times must be nonnegative and increasing")
        if amps.shape != (len(self.nodes), len(times), len(vals)):
            raise InputError(
                f"amplitude block shape {amps.shape} does not match "
                "(sites, times, eigenvalues)"
            )


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
    nodes, rows = _measured_sites(eig, nodes)
    if len(model.rates) != len(eig.eigenvalues):
        raise InputError(
            f"{len(model.rates)} decay rates for {len(eig.eigenvalues)} eigenstates"
        )
    scalar(noise, "noise level", low=0)
    if seed is not None:
        scalar(seed, "seed {!r}", seed, integer=True, low=0)
    times = _time_array(times)
    rates = np.asarray(model.rates)
    envelope = np.exp(-0.5 * np.outer(times, rates))
    amps = np.abs(eig.vectors.take(rows, 0))[:, None] * envelope
    if noise > 0:
        rng = np.random.default_rng(seed)
        amps = amps * np.exp(rng.normal(0.0, noise, size=amps.shape))
    return DecaySeries(nodes, eig.eigenvalues.copy(), times, amps)


def _time_array(times: Iterable[float]) -> np.ndarray:
    if not isinstance(times, Iterable):
        raise InputError(f"times must be a list of numbers, got {times!r}")
    # a tuple of an array would box every sample; generators must be read once
    return numbers(times if isinstance(times, np.ndarray) else tuple(times), "times")


@dataclass(frozen=True, eq=False)
class TimeSignal:
    """Complex return amplitude sampled on a uniform time grid of step ``dt``
    (0 when there are fewer than two samples)."""

    times: np.ndarray
    values: np.ndarray
    dt: float = field(init=False)

    def __post_init__(self) -> None:
        times = numbers(self.times, "times")
        values = numbers(self.values, "values", dtype=complex)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != times.shape:
            raise InputError("times and values must be flat lists of equal length")
        steps = np.diff(times)
        dt = float(steps[0]) if steps.size else 0.0
        if steps.size and (dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * dt)):
            raise InputError("signal must be sampled on a uniform increasing time grid")
        object.__setattr__(self, "dt", dt)


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
    dt = float(times[1] - times[0]) if m > 1 else 0.0  # TimeSignal checks the grid
    block = math.isqrt(m - 1) + 1
    energies = eig.eigenvalues
    coarse = np.exp(-1j * np.outer(times[::block], energies))
    coarse *= eig.site_amplitudes(reference) ** 2
    fine = np.exp(-1j * np.outer(np.arange(block) * dt, energies))
    return TimeSignal(times, (coarse @ fine.T).ravel()[:m])
