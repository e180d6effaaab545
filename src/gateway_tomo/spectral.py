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
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._json import _check_site, numbers, scalar, site_keyed, strict_object
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DarkStateError, GaugeDegeneracyError, InputError
from .graphs import Edge, NetworkGraph, edge_key


@dataclass(frozen=True)
class HamiltonianParams:
    """Local fields per site and signed couplings per edge."""

    local_fields: dict[int, float]
    couplings: dict[Edge, float]

    def __post_init__(self) -> None:
        if _kept_as_given(self.local_fields, self.couplings):
            fields, coups = dict(self.local_fields), dict(self.couplings)
        else:  # one entry at a time, naming the first offender
            fields = {_check_site(n): float(scalar(b, "local field at site {}", n))
                      for n, b in self.local_fields.items()}
            coups = {}
            for (u, v), c in self.couplings.items():
                key = edge_key(u, v)
                if key in coups:
                    raise InputError(f"coupling for edge {key} given twice")
                coups[key] = float(scalar(c, "coupling at edge ({}, {})", u, v))
        object.__setattr__(self, "local_fields", fields)
        object.__setattr__(self, "couplings", coups)


def _kept_as_given(fields: object, couplings: object) -> bool:
    """Whether each entry passes its check unchanged, checked in bulk: dicts of
    int sites >= 1, of int edges (u, v) with u < v, and of finite floats."""
    pairs = type(couplings) is dict and {*map(type, couplings)} <= {tuple}
    pairs = pairs and type(fields) is dict and {*map(len, couplings)} <= {2}
    vals = [*fields.values(), *couplings.values()] if pairs else [None]
    us, vs = zip(*couplings) if pairs and couplings else ((), ())
    return ({*map(type, vals)} <= {float} and {*map(type, [*fields, *us, *vs])} <= {int}
            and min(fields, default=1) >= 1 and min(us, default=1) >= 1
            and all(map(operator.lt, us, vs)) and all(map(math.isfinite, vals)))


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
        if (u, v) in coups:  # "1-2" and "01-2" name one edge
            raise InputError(f'parameter "c" names edge ({u}, {v}) more than once')
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
    fields, couplings = params.local_fields, params.couplings
    if fields.keys() != g.adjacency.keys():
        missing, extra = set(g.nodes) - set(fields), set(fields) - set(g.nodes)
        raise InputError(
            f"fields do not match sites (missing {sorted(missing)}, "
            f"extra {sorted(extra)})"
        )
    if couplings.keys() != g.sign_of.keys():
        missing, extra = set(g.edges) - set(couplings), set(couplings) - set(g.edges)
        raise InputError(
            f"couplings do not match edges (missing {sorted(missing)}, "
            f"extra {sorted(extra)})"
        )
    entries, signs = g._entries
    c = np.fromiter(map(couplings.__getitem__, g.edges), float, len(g.edges))
    # zero or against the declared sign: the first such edge in the params' order
    for e, x in couplings.items() if not (c * signs > 0).all() else ():
        if x == 0.0:
            raise InputError(f"coupling on edge {e} must be nonzero")
        if (1 if x > 0 else -1) != g.sign_of[e]:
            raise InputError(
                f"coupling on edge {e} has sign {'+' if x > 0 else '-'} but the "
                f"graph declares {'+' if g.sign_of[e] > 0 else '-'}"
            )

    size = len(g.nodes)
    mat = np.zeros((size, size))
    mat.flat[:: size + 1] = np.fromiter(map(fields.__getitem__, g.nodes), float, size)
    mat.flat[entries] = np.concatenate([c, c])
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
        if _check_site(node) not in self.index_of:
            raise InputError(f"site {node} is not part of this system")
        return self.vectors[self.index_of[node]]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def eigendecompose(sym: SymmetricMatrix) -> EigenSystem:
    mat = numbers(sym.matrix, "matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix must be square, got shape {mat.shape}")
    if mat.shape[0] != len(sym.nodes):
        raise InputError("matrix size does not match the site list")
    # the largest |entry|, and of the antisymmetric mat - mat.T the largest entry
    scale = max(1.0, float(mat.max()), -float(mat.min()))
    if (mat - mat.T).max() > 1e-12 * scale:
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
