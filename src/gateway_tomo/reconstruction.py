"""Recovering fields and couplings from spectral moduli.

The engine walks the segments of an access plan.  Each segment starts from
a site whose eigenvector coefficients are known, either measured moduli at
an accessed leaf or a column derived by earlier segments, and repeatedly
applies the site sum rule: subtracting the known neighbor terms (graph
neighbors across resolved edges) from (E_j - b_n) v_j(n) leaves a residual
vector whose squared norm is the squared coupling to the one unresolved
neighbor, and dividing by that coupling yields the next eigenvector column.

All columns are rows of one (sites x states) array.  Columns seeded from
moduli carry an unknown per-eigenstate sign, shared by their sign family,
that squares never see; where two families meet at a shared site the
relative signs are resolved componentwise and the families merged.  Each
family keeps the running per-state peak modulus of its columns, so a merge
finds the states it can align in O(states).

Consecutive measured segments, the reference path first, start in fresh
families that never read each other's columns, so they advance in lockstep,
one (segments x states) array operation per recursion step; the arrivals at
each terminal are then merged in schedule order against the running peaks,
exactly as one at a time.  Derived segments are walked alone, and so is a
run in which a step or merge would fail, so an error names the earliest
failing segment.  Cycle couplings never appear alone in a sum rule, so
their squares are solved jointly from second (and, for even cycles, third)
central moments of the cycle sites.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    IllConditionedError,
    InconsistentDataError,
    InputError,
    NearZeroDivisionError,
    RankDeficientError,
    SignAmbiguityError,
)
from .graphs import AccessPlan, BranchPeel, CyclePlan, Edge, NetworkGraph, edge_key
from .measurement import SpectralMeasurement
from .spectral import HamiltonianParams

REFERENCE_FAMILY = "reference"


class CoefficientTable:
    """Working store of eigenvector columns grouped into sign families.

    Columns are the rows of ``cols``, in the order their sites were claimed.
    Every tracked site belongs to exactly one family; a family's columns
    share a common (unknown) per-eigenstate sign relative to the true gauge,
    and ``peak`` holds their per-state maximum modulus.  Merging two
    families fixes their relative signs using the column both computed for a
    shared site.
    """

    def __init__(self, eigenvalues: np.ndarray):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        # a full reconstruction claims one row per eigenstate
        self.cols = np.empty((len(self.eigenvalues),) * 2)
        self.row: dict[int, int] = {}
        self.node_family: dict[int, str] = {}
        self.families: dict[str, list[int]] = {}
        self.peak: dict[str, np.ndarray] = {}
        self.mismatch_log: dict[str, float] = {}

    def claim(self, nodes, families, block: np.ndarray) -> None:
        """Store the rows of ``block`` as the columns of unclaimed ``nodes``."""
        start, stop = len(self.row), len(self.row) + len(nodes)
        if stop > len(self.cols):
            self.cols = np.concatenate([self.cols[:start], np.empty_like(block)])
        self.cols[start:stop] = block
        self.row.update(zip(nodes, range(start, stop)))
        self.node_family.update(zip(nodes, families))
        for n, family in zip(nodes, families):
            self.families[family].append(n)

    def seed(self, family: str, node: int, vector: np.ndarray) -> None:
        if family in self.families:
            raise InputError(f"family {family!r} already exists")
        if node in self.node_family:
            raise InputError(f"site {node} already belongs to a family")
        self.families[family] = []
        self.peak[family] = np.abs(vector)
        self.claim((node,), (family,), vector)

    def add(self, family: str, node: int, vector: np.ndarray) -> None:
        if node in self.node_family:
            raise InputError(f"site {node} claimed twice")
        self.claim((node,), (family,), vector)
        np.maximum(self.peak[family], np.abs(vector), out=self.peak[family])

    def family_of(self, node: int) -> str | None:
        return self.node_family.get(node)

    def vector(self, node: int) -> np.ndarray:
        if node not in self.row:
            raise InputError(f"no eigenvector column known at site {node}")
        return self.cols[self.row[node]]

    def rows(self, nodes, families) -> list[int]:
        """Rows of the columns of ``nodes``; each must lie in its family."""
        for n, family in zip(nodes, families):
            if self.node_family.get(n) != family:
                raise InputError(f"neighbor {n} is outside family {family!r}")
        return [self.row[n] for n in nodes]

    def log_mismatch(self, shared: int, value: float) -> None:
        key = f"merge_{shared}"
        self.mismatch_log[key] = max(self.mismatch_log.get(key, 0.0), value)

    def merge(
        self, shared: int, incoming: str, vector: np.ndarray, overlap_tol: float
    ) -> str:
        """Fold the ``incoming`` family into the one already holding ``shared``.

        ``vector`` is the column the incoming family just derived for the
        shared site.  Componentwise products of the two columns fix the
        relative signs; eigenstates in which the incoming family carries no
        weight at all are sign-free and default to +1.  The disagreement
        between the two columns, after sign alignment, is recorded in
        ``mismatch_log``.
        """
        holder = self.node_family.get(shared)
        if holder in (None, incoming) or incoming not in self.families:
            raise InputError(f"merge at site {shared} needs two distinct families")
        existing = self.cols[self.row[shared]]
        alive_inc = np.maximum(self.peak[incoming], np.abs(vector)) > overlap_tol
        relevant = alive_inc & (self.peak[holder] > overlap_tol)
        weak = relevant & (
            (np.abs(vector) <= overlap_tol) | (np.abs(existing) <= overlap_tol)
        )
        if np.any(weak):
            raise SignAmbiguityError(shared, [int(j) for j in np.nonzero(weak)[0]])
        eps = np.where(relevant, np.sign(vector) * np.sign(existing), 1.0)
        self.log_mismatch(shared, float(np.max(np.abs(eps * vector - existing))))

        # keep the reference family's frame and name when it is on either side
        ref = incoming == REFERENCE_FAMILY
        src, dst = (holder, incoming) if ref else (incoming, holder)
        moved = self.families.pop(src)
        self.cols[[self.row[n] for n in moved]] *= eps
        self.families[dst] += moved
        self.node_family.update(dict.fromkeys(moved, dst))
        self.peak[dst] = np.maximum(self.peak[dst], self.peak.pop(src))
        return dst


def _known(g: NetworkGraph, couplings: dict[Edge, float], node: int, skip=()):
    """Neighbors of ``node`` across resolved edges not in ``skip``, with couplings."""
    edges = ((u, edge_key(node, u)) for u in g.adjacency[node])
    return [(u, couplings[e]) for u, e in edges if e in couplings and e not in skip]


def _subtract_known(table: CoefficientTable, known, family: str, r: np.ndarray):
    """``r`` minus the known neighbors' columns, all in ``family``, times couplings."""
    for u, c in known:
        if table.node_family.get(u) != family:
            raise InputError(f"neighbor {u} is outside family {family!r}")
        r = r - c * table.cols[table.row[u]]
    return r


class _Recursion:
    """The sum-rule recursion of one reconstruction: its table and results."""

    def __init__(self, g: NetworkGraph, meas: SpectralMeasurement, tol: Tolerances):
        self.g, self.meas, self.tolerances = g, meas, tol
        self.table = CoefficientTable(meas.eigenvalues)
        self.fields: dict[int, float] = {}
        self.couplings: dict[Edge, float] = {}

    def walk(self, family: str, peel: BranchPeel) -> None:
        """Propagate eigenvector columns along one segment on its own.

        A measured segment seeds ``family`` from the head's moduli; a derived
        one continues in whatever family holds the head column.  Consumes the
        sum rule of every site in ``peel.nodes`` to extract the coupling
        toward the following site; the terminal site only receives its column.
        """
        g, table, couplings = self.g, self.table, self.couplings
        if peel.seeded_by_measurement:
            table.seed(family, peel.head, self.meas.moduli_of(peel.head))
        elif (family := table.family_of(peel.head)) is None:
            raise InputError(f"derived segment head {peel.head} has no column yet")
        eigs, vec = table.eigenvalues, table.vector(peel.head)
        seq = (*peel.nodes, peel.terminal)
        for i, cur in enumerate(peel.nodes):
            b = self.fields[cur] = float((eigs * vec * vec).sum())
            r = (eigs - b) * vec
            r = _subtract_known(table, _known(g, couplings, cur), family, r)
            c_sq = float((r * r).sum())
            edge = edge_key(cur, seq[i + 1])
            if c_sq <= self.tolerances.coupling_tol**2:
                raise NearZeroDivisionError(cur, edge, math.sqrt(max(c_sq, 0.0)))
            c = couplings[edge] = g.sign_of[edge] * math.sqrt(c_sq)
            vec = r / c
            if i + 1 < len(peel.nodes):
                table.add(family, seq[i + 1], vec)

        if not peel.nodes:
            return
        holder = table.family_of(peel.terminal)
        if holder is None:
            table.add(family, peel.terminal, vec)
        elif holder == family:
            drift = np.abs(vec - table.vector(peel.terminal))
            table.log_mismatch(peel.terminal, float(np.max(drift)))
        else:
            table.merge(peel.terminal, family, vec, self.tolerances.overlap_tol)

    def lockstep(self, batch: list[tuple[str, BranchPeel]]) -> bool:
        """Run measured segments side by side, one array operation per step.

        ``batch`` lists (family, segment) in schedule order, as `_batches`
        forms it, so each step's one known neighbor is the site before it.
        Returns False, with nothing written, when a site the batch reaches
        already has a column or a step or merge would raise; walking the
        batch then raises where it should.
        """
        table, tol = self.table, self.tolerances.overlap_tol
        eigs = table.eigenvalues
        # longest segment first, so the segments still running at step k are
        # the first active[k]; step k fills rows start[k]:start[k + 1]
        lengths = [len(p.nodes) for _, p in batch]
        order = sorted(range(len(batch)), key=lengths.__getitem__, reverse=True)
        seqs = [(*batch[i][1].nodes, batch[i][1].terminal) for i in order]
        shorter = sorted(-n for n in lengths)
        active = [bisect.bisect_left(shorter, -k) for k in range(len(seqs[0]) - 1)]
        start = [0, *itertools.accumulate(active)]
        nodes = [s[k] for k, a in enumerate(active) for s in seqs[:a]]
        if not table.row.keys().isdisjoint([*nodes, *(s[-1] for s in seqs)]):
            return False
        succ = [s[k + 1] for k, a in enumerate(active) for s in seqs[:a]]
        edges = [(u, v) if u < v else (v, u) for u, v in zip(nodes, succ)]
        sign = np.array([self.g.sign_of[e] for e in edges], dtype=float)
        index = {n: i for i, n in enumerate(self.meas.nodes)}
        cols = np.empty((len(nodes), len(eigs)))
        cols[: len(seqs)] = self.meas.moduli[[index[s[0]] for s in seqs]]
        peak = np.abs(cols[: len(seqs)])
        arrivals = np.empty_like(peak)
        b, c = np.empty(len(nodes)), np.empty(len(nodes))
        for k, a in enumerate(active):
            lo, hi = start[k], start[k + 1]
            v = cols[lo:hi]
            np.maximum(peak[:a], np.abs(v), out=peak[:a])
            b[lo:hi] = (eigs * v * v).sum(axis=1)
            r = (eigs - b[lo:hi, None]) * v
            if k:
                prev = slice(start[k - 1], start[k - 1] + a)
                r -= c[prev, None] * cols[prev]
            c_sq = (r * r).sum(axis=1)
            if c_sq.min() <= self.tolerances.coupling_tol**2:
                return False
            c[lo:hi] = sign[lo:hi] * np.sqrt(c_sq)
            r /= c[lo:hi, None]
            going = active[k + 1] if k + 1 < len(active) else 0
            cols[hi : hi + going] = r[:going]
            arrivals[going:a] = r[going:]

        # settle each terminal's arrivals in schedule order: the first claims
        # the site, later ones merge into its family, which no other terminal
        # touches, so terminals are independent
        owner = [batch[i][0] for i in order]
        at_terminal: dict[int, list[int]] = {}
        for j in sorted(range(len(order)), key=order.__getitem__):
            at_terminal.setdefault(seqs[j][-1], []).append(j)
        eps = np.ones_like(arrivals)
        peaks, logs = {}, {}
        for t, (first, *rows) in at_terminal.items():
            holder, existing = owner[first], arrivals[first]
            hold = np.maximum(peak[first], np.abs(existing))
            if rows:
                arriving, inc = arrivals[rows], peak[rows]
                mag = np.abs(arriving)
                relevant = np.maximum(inc, mag) > tol
                if not np.all(hold > tol):
                    # arrival i aligns only the states that the holder or an
                    # earlier arrival carries: whose first live family precedes it
                    alive = np.vstack([hold, inc, np.full_like(hold, np.inf)]) > tol
                    relevant &= alive.argmax(axis=0) <= np.arange(len(rows))[:, None]
                if np.any(relevant & ((mag <= tol) | (np.abs(existing) <= tol))):
                    return False
                e = np.where(relevant, np.sign(arriving) * np.sign(existing), 1.0)
                eps[rows] = e
                logs[t] = float(np.max(np.abs(e * arriving - existing)))
                hold = np.maximum(hold, inc.max(axis=0))
                for j in rows:
                    owner[j] = holder
            peaks[holder] = hold

        table.families.update((holder, []) for holder in peaks)
        table.peak.update(peaks)
        for k, a in enumerate(active):
            cols[start[k] : start[k + 1]] *= eps[:a]
        table.claim(nodes, [owner[j] for a in active for j in range(a)], cols)
        ends = [rows[0] for rows in at_terminal.values()]
        table.claim(list(at_terminal), [owner[j] for j in ends], arrivals[ends])
        for t, value in logs.items():
            table.log_mismatch(t, value)
        self.fields.update(zip(nodes, b.tolist()))
        self.couplings.update(zip(edges, c.tolist()))
        return True


def _batches(segments: list[tuple[str, BranchPeel]]):
    """Split (family, segment) pairs, in order, into runs that may go in lockstep.

    A run holds consecutive measured segments until one would end at a site
    another consumes, or consume a site another ends at; any other segment
    makes a run of its own.
    """
    batch, consumed, ends = [], set(), set()
    for family, peel in segments:
        joins = peel.seeded_by_measurement and bool(peel.nodes)
        joins = joins and peel.terminal not in peel.nodes
        if batch and not (
            joins and peel.terminal not in consumed and ends.isdisjoint(peel.nodes)
        ):
            yield batch
            batch, consumed, ends = [], set(), set()
        batch.append((family, peel))
        if joins:
            consumed.update(peel.nodes)
            ends.add(peel.terminal)
        else:
            yield batch
            batch = []
    if batch:
        yield batch


@dataclass(frozen=True)
class CycleDiagnostics:
    """How the cycle moment solve went."""

    condition_number: float
    moments_used: tuple[str, ...]
    rank: int
    min_square: float
    lstsq_residual: float


def solve_cycle_moments(
    g: NetworkGraph,
    plan: CyclePlan,
    table: CoefficientTable,
    meas: SpectralMeasurement,
    *,
    fields: dict[int, float],
    couplings: dict[Edge, float],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[dict[Edge, float], CycleDiagnostics, tuple[str, ...]]:
    """Solve for squared cycle couplings from site central moments.

    Each cycle site contributes one second-moment equation: the sum of the
    squared couplings on its two cycle edges, after removing known tree
    contributions.  Odd cycles make that system full rank.  Even cycles
    have an alternating null vector, so third-moment equations, whose
    coefficients are field differences across the cycle edges, are added;
    if the fields carry no differences the system stays rank deficient and
    the cycle cannot be resolved.
    """
    eigs, cyc, length = table.eigenvalues, plan.cycle, len(plan.cycle)
    # edge i runs from cyc[i] to the next site, so site i meets edges i - 1 and i
    cyc_edges = list(map(edge_key, cyc, (*cyc[1:], cyc[0])))
    measured = set(plan.measured)
    skip = set(cyc_edges)
    tree = {n: _known(g, couplings, n, skip) for n in cyc}
    if not fields.keys().isdisjoint(cyc):
        raise InputError(f"cycle sites {sorted(set(cyc) & fields.keys())} have fields")
    vecs = np.array(
        [meas.moduli_of(n) if n in measured else table.vector(n) for n in cyc]
    )
    weights = vecs * vecs
    b = (eigs * vecs * vecs).sum(axis=1)
    fields.update(zip(cyc, b.tolist()))
    dev = eigs - b[:, None]
    rhs = (dev**2 * weights).sum(axis=1)
    for i, n in enumerate(cyc):
        if n not in measured:
            r = _subtract_known(table, tree[n], table.family_of(n), dev[i] * vecs[i])
            rhs[i] = (r * r).sum()
    at = np.arange(length)
    matrix = np.eye(length)
    matrix[at, at - 1] = 1.0

    moments_used = ["second"]
    if length % 2 == 0:
        moments_used.append("third")
        third = (dev**3 * weights).sum(axis=1)
        for i, n in enumerate(cyc):
            for u, c in tree[n]:
                third[i] -= c * c * (fields[u] - fields[n])
        # row i weighs edge i - 1 by the field step back, edge i by the one ahead
        rows = np.zeros((length, length))
        rows[at, at - 1] = b[at - 1] - b
        rows[at, at] = b[(at + 1) % length] - b
        scale = np.abs(rows).max(axis=1)
        keep = scale > 1e-12 * max(1.0, float(np.abs(b).max()))
        matrix = np.vstack([matrix, rows[keep] / scale[keep, None]])
        rhs = np.concatenate([rhs, third[keep] / scale[keep]])

    solution, _, rank, sv = np.linalg.lstsq(matrix, rhs, rcond=None)
    if rank < length:
        raise RankDeficientError(
            f"cycle moment system has rank {rank} for {length} edges; "
            "the field pattern leaves the even cycle unresolved"
        )
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if condition > tolerances.condition_limit:
        raise IllConditionedError(
            f"cycle moment system condition number {condition:.3e} exceeds "
            f"{tolerances.condition_limit:.3e}",
            condition,
        )
    fit_residual = float(np.linalg.norm(matrix @ solution - rhs))

    largest = float(np.max(solution))
    floor = -tolerances.slack_factor * max(largest, 1.0)
    cycle_couplings: dict[Edge, float] = {}
    for e, x in zip(cyc_edges, solution.tolist()):
        if x < floor:
            raise InconsistentDataError(
                f"squared coupling on cycle edge {e} solved to {x:.3e}; "
                "the moment data contradicts the declared topology"
            )
        x = max(x, 0.0)
        cycle_couplings[e] = g.sign_of[e] * math.sqrt(x)

    diagnostics = CycleDiagnostics(
        condition, tuple(moments_used), int(rank), float(np.min(solution)), fit_residual
    )
    flags = ("RankAugmented",) if "third" in moments_used else ()
    return cycle_couplings, diagnostics, flags


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Recovered parameters plus everything needed to judge them."""

    params: HamiltonianParams
    residuals: dict[str, float]
    flags: tuple[str, ...]
    cycle_diagnostics: CycleDiagnostics | None = None


def result_to_json(result: ReconstructionResult) -> dict:
    diag = None
    if result.cycle_diagnostics is not None:
        d = result.cycle_diagnostics
        diag = {
            "condition_number": d.condition_number,
            "moments_used": list(d.moments_used),
            "rank": d.rank,
            "min_square": d.min_square,
            "lstsq_residual": d.lstsq_residual,
        }
    return {
        "b": {str(n): b for n, b in sorted(result.params.local_fields.items())},
        "c": {f"{u}-{v}": c for (u, v), c in sorted(result.params.couplings.items())},
        "residuals": dict(sorted(result.residuals.items())),
        "flags": list(result.flags),
        "cycle_diagnostics": diag,
    }


def reconstruct(
    g: NetworkGraph,
    plan: AccessPlan,
    meas: SpectralMeasurement,
    *,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    known_fields: dict[int, float] | None = None,
) -> ReconstructionResult:
    """Run a full reconstruction of ``g`` from the planned measurements.

    Leftover site equations (those no segment or cycle consumed) become
    consistency residuals keyed ``site_<n>``; family merges report their
    column disagreement under ``merge_<n>``.  Externally supplied fields
    are not fed into the recursion, they are only compared against the
    recovered ones under ``field_supplied_<n>``.
    """
    plan.validate(g)
    missing = set(plan.access_set) - set(meas.nodes)
    if missing:
        raise InputError(f"measurement lacks accessed sites {sorted(missing)}")
    if len(meas.eigenvalues) != len(g.nodes):
        raise InputError(
            f"measurement resolves {len(meas.eigenvalues)} eigenstates for a "
            f"{len(g.nodes)}-site network; the full spectrum is required"
        )

    run = _Recursion(g, meas, tolerances)
    table, fields, couplings = run.table, run.fields, run.couplings
    residuals: dict[str, float] = {}
    path = plan.reference_path or (plan.reference,)
    segments = [(REFERENCE_FAMILY, BranchPeel(path[0], path[:-1], path[-1], True))]
    segments += [(f"branch:{p.head}", p) for p in plan.peel_schedule]
    for batch in _batches(segments):
        # a lone segment walks: the lockstep's set-up costs more than it saves
        if len(batch) == 1 or not run.lockstep(batch):
            for family, peel in batch:
                run.walk(family, peel)

    diagnostics, flags = None, ()
    if plan.cycle_plan is not None:
        cycle_couplings, diagnostics, flags = solve_cycle_moments(
            g, plan.cycle_plan, table, meas,
            fields=fields, couplings=couplings, tolerances=tolerances,
        )
        couplings.update(cycle_couplings)

    # leftover equations become consistency checks: every neighbor column is
    # gathered at once and summed per site, each site leading its own group
    # with a zero term so that no group is empty
    checks = plan.check_sites(g)
    if checks:
        eigs = table.eigenvalues
        own = np.array([table.vector(n) for n in checks])
        b = (eigs * own * own).sum(axis=1)
        fields.update(zip(checks, b.tolist()))
        known = [[(n, 0.0), *_known(g, couplings, n)] for n in checks]
        family = [table.node_family[n] for n, k in zip(checks, known) for _ in k]
        rows = table.rows([u for k in known for u, _ in k], family)
        cs = np.array([c for k in known for _, c in k])
        starts = [0, *itertools.accumulate(len(k) for k in known[:-1])]
        r = (eigs - b[:, None]) * own
        r -= np.add.reduceat(cs[:, None] * table.cols[rows], starts)
        sites = [f"site_{n}" for n in checks]
        residuals.update(zip(sites, (r * r).sum(axis=1).tolist()))

    for key, value in table.mismatch_log.items():
        residuals[key] = max(residuals.get(key, 0.0), value)

    if known_fields:
        unknown = set(known_fields) - set(g.nodes)
        if unknown:
            raise InputError(f"supplied fields for unknown sites {sorted(unknown)}")
        for n, b in known_fields.items():
            residuals[f"field_supplied_{n}"] = abs(fields[n] - float(b))

    # every key is a site or an edge of ``g``, so the counts tell coverage
    if len(fields) != len(g.nodes) or len(couplings) != len(g.edges):
        raise InputError("the plan leaves a site or an edge unresolved")
    return ReconstructionResult(
        params=HamiltonianParams(fields, couplings),
        residuals=residuals,
        flags=flags,
        cycle_diagnostics=diagnostics,
    )
