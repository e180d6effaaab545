"""Single-excitation Hamiltonians and their eigensystems.

Sites carry local fields on the diagonal; couplings sit on the off-diagonal
positions given by the graph edges.  The matrix is real symmetric, so the
eigendecomposition is delegated to ``numpy.linalg.eigh``, which returns an
orthonormal basis with ascending eigenvalues.  Gauge fixing makes every
eigenvector positive at a chosen reference site, the convention assumed by
the reconstruction recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._json import numbers, site_keyed, strict_object
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DarkStateError, GaugeDegeneracyError, InputError
from .graphs import Edge, NetworkGraph, edge_key, _check_site


@dataclass(frozen=True)
class HamiltonianParams:
    """Local fields per site and signed couplings per edge."""

    local_fields: dict[int, float]
    couplings: dict[Edge, float]

    def __post_init__(self) -> None:
        fields = {}
        for n, b in self.local_fields.items():
            b = float(b)
            if not math.isfinite(b):
                raise InputError(f"local field at site {n} is not finite")
            fields[_check_site(n)] = b
        coups = {}
        for (u, v), c in self.couplings.items():
            c = float(c)
            if not math.isfinite(c):
                raise InputError(f"coupling at edge ({u}, {v}) is not finite")
            key = edge_key(_check_site(u), _check_site(v))
            if key in coups:
                raise InputError(f"coupling for edge {key} given twice")
            coups[key] = c
        object.__setattr__(self, "local_fields", fields)
        object.__setattr__(self, "couplings", coups)


def params_to_json(params: HamiltonianParams) -> dict:
    return {
        "b": {str(n): b for n, b in sorted(params.local_fields.items())},
        "c": {f"{u}-{v}": c for (u, v), c in sorted(params.couplings.items())},
    }


def params_from_json(data: object) -> HamiltonianParams:
    """Parse the strict parameter schema: {"b": {"1": ...}, "c": {"1-2": ...}}."""
    doc = strict_object(data, "parameter document", ("b", "c"))
    sites, values = site_keyed(doc["b"], 'parameter "b"')
    fields = {n: float(numbers(b, f'parameter "b" at site {n}', 0))
              for n, b in zip(sites, values)}
    coups = {}
    for key, val in strict_object(doc["c"], 'parameter "c"', (), doc["c"]).items():
        parts = key.split("-")
        if len(parts) != 2:
            raise InputError(f"coupling key {key!r} is not of the form 'u-v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"coupling key {key!r} is not of the form 'u-v'") from None
        if not u < v:
            raise InputError(f"coupling key {key!r} must list the smaller site first")
        coups[(u, v)] = float(numbers(val, f'parameter "c" at edge {key!r}', 0))
    return HamiltonianParams(fields, coups)


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """A dense real symmetric matrix with its site ordering."""

    nodes: tuple[int, ...]
    matrix: np.ndarray


def assemble_single_excitation(
    g: NetworkGraph, params: HamiltonianParams
) -> SymmetricMatrix:
    """Build the site-basis matrix for ``g`` and check it matches the graph.

    Every site needs a field, every edge a nonzero coupling whose sign
    agrees with the sign declared on the graph, and nothing may be left
    over.
    """
    missing = set(g.nodes) - set(params.local_fields)
    extra = set(params.local_fields) - set(g.nodes)
    if missing or extra:
        raise InputError(
            f"fields do not match sites (missing {sorted(missing)}, "
            f"extra {sorted(extra)})"
        )
    missing_e = set(g.edges) - set(params.couplings)
    extra_e = set(params.couplings) - set(g.edges)
    if missing_e or extra_e:
        raise InputError(
            f"couplings do not match edges (missing {sorted(missing_e)}, "
            f"extra {sorted(extra_e)})"
        )
    for e, c in params.couplings.items():
        if c == 0.0:
            raise InputError(f"coupling on edge {e} must be nonzero")
        if (1 if c > 0 else -1) != g.sign_of[e]:
            raise InputError(
                f"coupling on edge {e} has sign {'+' if c > 0 else '-'} but the "
                f"graph declares {'+' if g.sign_of[e] > 0 else '-'}"
            )

    idx = {n: i for i, n in enumerate(g.nodes)}
    mat = np.zeros((len(g.nodes), len(g.nodes)))
    for n, b in params.local_fields.items():
        mat[idx[n], idx[n]] = b
    for (u, v), c in params.couplings.items():
        mat[idx[u], idx[v]] = c
        mat[idx[v], idx[u]] = c
    return SymmetricMatrix(g.nodes, mat)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Orthonormal eigendecomposition in the site basis.

    ``vectors[i, j]`` is the amplitude of eigenstate ``j`` at the site
    ``nodes[i]``; eigenvalues are ascending.  ``gauge_reference`` records
    the site whose amplitudes were flipped positive, or None before gauge
    fixing.
    """

    nodes: tuple[int, ...]
    eigenvalues: np.ndarray
    vectors: np.ndarray
    gauge_reference: int | None = None

    @cached_property
    def index_of(self) -> dict[int, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    def site_amplitudes(self, node: int) -> np.ndarray:
        """Row of amplitudes of every eigenstate at one site."""
        if node not in self.index_of:
            raise InputError(f"site {node} is not part of this system")
        return self.vectors[self.index_of[node]]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def eigendecompose(sym: SymmetricMatrix) -> EigenSystem:
    mat = np.asarray(sym.matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix must be square, got shape {mat.shape}")
    if mat.shape[0] != len(sym.nodes):
        raise InputError("matrix size does not match the site list")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-12 * scale:
        raise InputError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(mat)
    return EigenSystem(tuple(sym.nodes), vals, vecs)


def gauge_fix(
    eig: EigenSystem,
    reference: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> EigenSystem:
    """Flip eigenvector signs so every amplitude at ``reference`` is positive.

    Raises GaugeDegeneracyError when eigenvalues are too close for the
    per-eigenvector sign to be meaningful, and DarkStateError when the
    reference site has (numerically) no weight in some eigenstate.
    """
    vals = eig.eigenvalues
    if len(vals) > 1:
        span = eig.spectral_range
        gaps = np.diff(vals)
        close = np.nonzero(gaps <= tolerances.gap_factor * span)[0]
        if close.size:
            pairs = [(int(j), int(j) + 1) for j in close]
            raise GaugeDegeneracyError(
                f"eigenvalue pairs {pairs} are degenerate within "
                f"{tolerances.gap_factor:g} of the spectral range",
                pairs,
            )
    row = eig.site_amplitudes(reference)
    dark = np.nonzero(np.abs(row) <= tolerances.overlap_tol)[0]
    if dark.size:
        raise DarkStateError(reference, [int(j) for j in dark])
    flips = np.where(row > 0, 1.0, -1.0)
    return EigenSystem(
        eig.nodes, vals.copy(), eig.vectors * flips, gauge_reference=reference
    )
