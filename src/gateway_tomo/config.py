"""Numerical tolerance knobs.

One frozen dataclass threaded through gauge fixing, the recursion engine, and
the cycle solver, so experiments can tighten or loosen thresholds in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._json import scalar


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by reconstruction and its supporting numerics.

    Attributes
    ----------
    gap_factor:
        Eigenvalue pairs closer than ``gap_factor`` times the spectral range
        are treated as degenerate.
    overlap_tol:
        Eigenvector components at or below this magnitude count as zero when
        gauge fixing or chaining signs through a junction.
    coupling_tol:
        Residual norms at or below this value abort a recursion step instead
        of producing an unreliable coupling.
    slack_factor:
        Squared couplings from the cycle solve may be negative by this factor
        times the largest solved square before being flagged as inconsistent;
        smaller excursions are clamped to zero.
    condition_limit:
        Least-squares systems with condition number above this value raise
        instead of returning a solution.
    """

    gap_factor: float = 1e-9
    overlap_tol: float = 1e-9
    coupling_tol: float = 1e-9
    slack_factor: float = 1e-10
    condition_limit: float = 1e10

    def __post_init__(self) -> None:
        for f in fields(self):  # NaN would switch its check off unseen
            scalar(getattr(self, f.name), "tolerance {}", f.name, low=0, high=math.inf)


DEFAULT_TOLERANCES = Tolerances()
