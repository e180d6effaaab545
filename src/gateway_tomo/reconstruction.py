"""Recovering fields and couplings from spectral moduli.

Each segment of an access plan starts from a site whose eigenvector column
is known, measured moduli or a column derived earlier, and applies the site
sum rule: (E_j - b_n) v_j(n) minus the known neighbor terms leaves a vector
whose norm is the coupling to the one unresolved neighbor, and dividing by
it gives that neighbor's column.  `_Recursion.sum_rule` alone evaluates the
rule: at each segment's first site, at the cycle sites and at the check
sites; a later step subtracts just the site before.  Columns seeded from
moduli carry a per-eigenstate sign, shared by their sign family, that
squares never see; where two families meet at a site their relative signs
are fixed componentwise and the families merge.  Each family keeps the
running peak modulus of its columns, so a merge finds the states it can
align in O(states).

One kernel runs every segment, alone or in a block of measured segments
that never read each other's columns, one (segments x states) array
operation per recursion step, and then settles the arrivals in schedule
order, exactly as one at a time.  It trusts `AccessPlan.validate` for the
plan and raises only numeric errors.  Cycle couplings never appear alone
in a sum rule, so their squares are solved jointly from second (and, for
even cycles, third) central moments of the cycle sites.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass
from numbers import Real

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    GatewayTomoError,
    IllConditionedError,
    InconsistentDataError,
    InputError,
    NearZeroDivisionError,
    RankDeficientError,
    SignAmbiguityError,
)
from .graphs import AccessPlan, BranchPeel, CyclePlan, Edge, NetworkGraph
from .graphs import _check_site, edge_key
from .measurement import SpectralMeasurement
from .spectral import HamiltonianParams, params_to_json

REFERENCE_FAMILY = "reference"


def _known(g: NetworkGraph, couplings: dict[Edge, float], node: int, skip=()):
    """Neighbors of ``node`` across resolved edges not in ``skip``, with couplings."""
    edges = ((u, edge_key(node, u)) for u in g.adjacency[node])
    return [(u, couplings[e]) for u, e in edges if e in couplings and e not in skip]


class _Recursion:
    """The sum-rule recursion of one reconstruction: its columns and results.

    Columns are the rows of ``cols``, in the order their sites were claimed,
    and ``row`` maps each site to its row.  Every tracked site belongs to
    exactly one family; a family's columns share a common (unknown)
    per-eigenstate sign relative to the true gauge, and ``peak`` holds their
    per-state maximum modulus.  `sum_rule` is the one evaluator of the site
    sum rule; `advance` calls it at step 0, `_solve_cycle_moments` for the
    cycle sites and `reconstruct` for the check sites.
    """

    def __init__(self, g: NetworkGraph, meas: SpectralMeasurement, tol: Tolerances):
        self.g, self.meas, self.tolerances = g, meas, tol
        self.eigenvalues = np.asarray(meas.eigenvalues, dtype=float)
        # a full reconstruction claims one row per eigenstate
        self.cols = np.empty((len(self.eigenvalues),) * 2)
        self.row: dict[int, int] = {}
        self.node_family: dict[int, str] = {}
        self.families: dict[str, list[int]] = {}
        self.peak: dict[str, np.ndarray] = {}
        self.mismatch_log: dict[str, float] = {}
        self.fields: dict[int, float] = {}
        self.couplings: dict[Edge, float] = {}

    def vector(self, node: int) -> np.ndarray:
        if node not in self.row:
            raise InputError(f"no eigenvector column known at site {node}")
        return self.cols[self.row[node]]

    def sum_rule(self, own: np.ndarray, known: list) -> tuple[np.ndarray, np.ndarray]:
        """Fields b = sum E v^2 and vectors (E - b) v - sum c v_u of some sites.

        ``own`` holds their columns as rows, ``known`` per site the claimed
        (neighbor, coupling) pairs to subtract; sites past its end have none.
        """
        b = np.add.reduce(self.eigenvalues * own * own, 1)
        r = (self.eigenvalues - b[:, None]) * own
        # one neighbor at a time, in order; several in one reduce over their rows
        for i, pairs in enumerate(known):
            if len(pairs) == 1:
                ((u, c),) = pairs
                r[i] -= c * self.cols[self.row[u]]
            elif pairs:
                us, cs = zip(*pairs)
                terms = np.reshape(cs, (-1, 1)) * self.cols[[self.row[u] for u in us]]
                terms[0] = r[i] - terms[0]
                np.subtract.reduce(terms, 0, out=r[i])
        return b, r

    def advance(self, batch: list[tuple[str, BranchPeel]]) -> None:
        """Run a block of segments, one array operation per recursion step.

        ``batch`` lists (family, segment) of a validated plan in schedule
        order, as `_batches` forms it.  A measured segment seeds ``family``
        from its head's moduli, a derived one continues the family holding
        its head column.  Step 0 runs `sum_rule` over every known neighbor of
        each head, a later site subtracts only the one before.  Only numeric
        errors are raised, in the order that running the segments one at a
        time meets them, and before anything is written.
        """
        g, couplings = self.g, self.couplings
        overlap, floor = self.tolerances.overlap_tol, self.tolerances.coupling_tol**2
        segs = []
        for i, (family, peel) in enumerate(batch):
            if peel.seeded_by_measurement:
                col, top = self.meas.moduli_of(peel.head), None
            elif not peel.nodes:
                continue
            else:
                family = self.node_family[peel.head]
                col, top = self.cols[self.row[peel.head]], self.peak[family]
            # a measured segment without steps arrives at its head at once
            seq = (*peel.nodes, peel.terminal) if peel.nodes else (peel.head,)
            segs.append((seq, family, col, top, i))
        if not segs:
            return
        # longest segment first, so the segments still running at step k are
        # the first active[k]; step k fills rows start[k]:start[k + 1] of
        # nodes, edges and cols, and segment j arrives in row start[-1] + j
        segs.sort(key=lambda s: -len(s[0]))
        seqs, fams, heads, tops, rank = zip(*segs)
        shorter = [1 - len(s) for s in seqs]
        active = [bisect.bisect_left(shorter, -k) for k in range(-shorter[0])]
        start = [0, *itertools.accumulate(active)]
        nodes = [s[k] for k, a in enumerate(active) for s in seqs[:a]]
        succ = [s[k + 1] for k, a in enumerate(active) for s in seqs[:a]]
        edges = [(u, v) if u < v else (v, u) for u, v in zip(nodes, succ)]
        lead = start[1] if active else 0
        cols = np.empty((len(nodes) + len(seqs), len(self.eigenvalues)))
        arrivals = cols[len(nodes) :]
        arrivals[:] = heads
        cols[:lead], peak = arrivals[:lead], np.abs(arrivals)
        for j, top in enumerate(tops):
            if top is not None:
                peak[j] = top
        sign = np.array([g.sign_of[e] for e in edges], dtype=float)
        b_all, c_all = np.empty(len(nodes)), np.empty(len(nodes))
        for k, a in enumerate(active):
            lo, hi = start[k], start[k + 1]
            v = cols[lo:hi]
            np.maximum(peak[:a], np.abs(v), out=peak[:a])
            # step 0 subtracts the heads' known neighbors; before any coupling, none
            heads = () if k or not couplings else nodes[:a]
            b_all[lo:hi], r = self.sum_rule(v, [_known(g, couplings, n) for n in heads])
            if k:
                r -= c[:a, None] * cols[start[k - 1] : start[k - 1] + a]
            c_sq = np.add.reduce(r * r, 1)
            low = [lo + j for j, x in enumerate(c_sq.tolist()) if x <= floor]
            if low:
                value = math.sqrt(max(float(c_sq[low[0] - lo]), 0.0))
                raise NearZeroDivisionError(nodes[low[0]], edges[low[0]], value)
            c = c_all[lo:hi] = sign[lo:hi] * np.sqrt(c_sq)
            r /= c[:, None]
            going = active[k + 1] if k + 1 < len(active) else 0
            cols[hi : hi + going], arrivals[going:a] = r[:going], r[going:]

        # settle each terminal in schedule order: the family that held it
        # before the block keeps it, or else the first arrival claims it, and
        # every other arrival aligns the states that it and the holder, as
        # grown by the arrivals before it, both carry, then joins the holder
        at_terminal, hold, logs, moves = {}, {}, {}, []
        claimed, owner, eps = [False] * len(seqs), list(fams), None
        for j in sorted(range(len(seqs)), key=rank.__getitem__):
            at_terminal.setdefault(seqs[j][-1], []).append(j)
        for t, js in at_terminal.items():
            if t in self.row:
                dst, ex = self.node_family[t], self.vector(t)
            else:
                first = js.pop(0)
                dst, ex, claimed[first] = fams[first], arrivals[first], True
                hold[dst] = np.maximum(peak[first], np.abs(ex))
            if js:
                eps = np.ones_like(arrivals) if eps is None else eps
                arriving, inc, base = arrivals[js], peak[js], hold.get(dst)
                base = self.peak[dst] if base is None else base
                mag = np.abs(arriving)
                relevant = np.maximum(inc, mag) > overlap
                if not base.min() > overlap:
                    grown = np.maximum.accumulate(np.vstack([base, inc[:-1]]), axis=0)
                    relevant &= grown > overlap
                weak = relevant & ((mag <= overlap) | (np.abs(ex) <= overlap))
                if weak.any():
                    i = int(weak.any(axis=1).argmax())
                    raise SignAmbiguityError(t, np.flatnonzero(weak[i]).tolist())
                e = eps[js] = np.where(relevant, np.sign(arriving) * np.sign(ex), 1.0)
                logs[t] = float(np.abs(e * arriving - ex).max())
                hold[dst] = np.maximum(base, inc.max(axis=0))
                for i, j in enumerate(js):
                    src, into = fams[j], dst
                    if src == REFERENCE_FAMILY:  # the reference keeps its frame, name
                        src, into, eps[j] = into, src, 1.0
                        hold[into] = hold.pop(src)
                    else:
                        owner[j] = into
                        hold.pop(src, None)
                    if src in self.families:
                        moves.append((src, into, e[i]))

        for k, a in enumerate(active if eps is not None else ()):
            cols[start[k] : start[k + 1]] *= eps[:a]
        # new columns: every row but a derived head's, and the claiming arrivals
        keep = [t is None for t in tops[:lead]] + [True] * (len(nodes) - lead) + claimed
        sites = nodes + [s[-1] for s in seqs]
        owners = [owner[j] for a in active for j in range(a)] + owner
        new, row0 = list(itertools.compress(sites, keep)), len(self.row)
        self.cols[row0 : row0 + len(new)] = cols if all(keep) else cols[keep]
        self.row.update(zip(new, itertools.count(row0)))
        for n, family in zip(new, itertools.compress(owners, keep)):
            self.node_family[n] = family
            self.families.setdefault(family, []).append(n)
        for src, dst, flip in moves:  # a family that held sites before the block
            moved = self.families.pop(src)
            self.cols[[self.row[n] for n in moved]] *= flip
            self.families[dst] += moved
            self.node_family.update(dict.fromkeys(moved, dst))
            del self.peak[src]
        self.peak.update(hold)
        for key, value in ((f"merge_{t}", x) for t, x in logs.items()):
            self.mismatch_log[key] = max(self.mismatch_log.get(key, 0.0), value)
        self.fields.update(zip(nodes, b_all.tolist()))
        self.couplings.update(zip(edges, c_all.tolist()))


def _batches(segments: list[tuple[str, BranchPeel]]):
    """Split (family, segment) pairs, in order, into blocks for `_Recursion.advance`.

    A block holds consecutive measured segments with steps, none ending at a
    site that an earlier segment reached; any other segment makes a block of
    its own.  A valid plan never consumes a site that a segment of the same
    block ends at, so in a block of several the first arrival at each
    terminal claims it.
    """
    batch, ends, reached = [], set(), set()
    for family, peel in segments:
        measured = peel.seeded_by_measurement and peel.nodes
        joins = measured and peel.terminal not in reached
        reached.update(peel.nodes)
        if joins:
            batch.append((family, peel))
            ends.add(peel.terminal)
            continue
        if batch:
            yield batch
        yield [(family, peel)]
        reached |= ends
        reached.add(peel.terminal)
        batch, ends = [], set()
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


def _solve_cycle_moments(
    run: _Recursion, plan: CyclePlan
) -> tuple[CycleDiagnostics, tuple[str, ...]]:
    """Solve the cycle's fields and couplings into ``run`` from central moments.

    Each cycle site contributes one second-moment equation: the sum of the
    squared couplings on its two cycle edges, the squared norm of its
    `sum_rule` vector less its known tree neighbors.  Odd cycles make that
    system full rank.  Even cycles have an alternating null vector, so
    third-moment equations, whose coefficients are field differences across
    the cycle edges, are added; if the fields carry no differences the
    system stays rank deficient and the cycle cannot be resolved.
    """
    g, fields, tolerances = run.g, run.fields, run.tolerances
    cyc, length = plan.cycle, len(plan.cycle)
    # edge i runs from cyc[i] to the next site, so site i meets edges i - 1 and i
    cyc_edges = list(map(edge_key, cyc, (*cyc[1:], cyc[0])))
    measured = set(plan.measured)
    tree = [_known(g, run.couplings, n, cyc_edges) for n in cyc]
    vecs = np.array(
        [run.meas.moduli_of(n) if n in measured else run.vector(n) for n in cyc]
    )
    b, r = run.sum_rule(vecs, tree)
    fields.update(zip(cyc, b.tolist()))
    rhs = np.add.reduce(r * r, 1)
    at = np.arange(length)
    matrix = np.eye(length)
    matrix[at, at - 1] = 1.0

    moments_used = ["second"]
    if length % 2 == 0:
        moments_used.append("third")
        third = np.add.reduce((run.eigenvalues - b[:, None]) ** 3 * (vecs * vecs), 1)
        for i, n in enumerate(cyc):
            for u, c in tree[i]:
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

    floor = -tolerances.slack_factor * max(float(solution.max()), 1.0)
    for e, x in zip(cyc_edges, solution.tolist()):
        if x < floor:
            raise InconsistentDataError(
                f"squared coupling on cycle edge {e} solved to {x:.3e}; "
                "the moment data contradicts the declared topology"
            )
        run.couplings[e] = g.sign_of[e] * math.sqrt(max(x, 0.0))

    diagnostics = CycleDiagnostics(
        condition, tuple(moments_used), int(rank), float(solution.min()), fit_residual
    )
    flags = ("RankAugmented",) if "third" in moments_used else ()
    return diagnostics, flags


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Recovered parameters plus everything needed to judge them."""

    params: HamiltonianParams
    residuals: dict[str, float]
    flags: tuple[str, ...]
    cycle_diagnostics: CycleDiagnostics | None = None


def result_to_json(result: ReconstructionResult) -> dict:
    d = result.cycle_diagnostics
    diag = None if d is None else {**asdict(d), "moments_used": list(d.moments_used)}
    return {
        **params_to_json(result.params),
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
    column disagreement under ``merge_<n>``.  Externally supplied fields,
    finite numbers at sites of ``g``, are only compared against the
    recovered ones under ``field_supplied_<n>``, not fed into the recursion.
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
    supplied = known_fields or {}
    for n, b in supplied.items():
        if _check_site(n) not in g.adjacency:
            raise InputError(f"supplied field for unknown site {n}")
        if isinstance(b, bool) or not isinstance(b, Real) or not math.isfinite(b):
            raise InputError(f"supplied field at site {n} is not a finite number")

    run = _Recursion(g, meas, tolerances)
    fields, couplings = run.fields, run.couplings
    path = plan.reference_path or (plan.reference,)
    segments = [(REFERENCE_FAMILY, BranchPeel(path[0], path[:-1], path[-1], True))]
    segments += [(f"branch:{p.head}", p) for p in plan.peel_schedule]
    for batch in _batches(segments):
        try:
            run.advance(batch)
        except GatewayTomoError:
            # nothing was written: one at a time, the earliest failing segment raises
            for segment in batch if len(batch) > 1 else ():
                run.advance([segment])
            raise

    diagnostics, flags = None, ()
    if plan.cycle_plan is not None:
        diagnostics, flags = _solve_cycle_moments(run, plan.cycle_plan)

    # leftover equations become consistency checks
    residuals: dict[str, float] = {}
    checks = plan.check_sites(g)
    if checks:
        own = np.array([run.vector(n) for n in checks])
        b, r = run.sum_rule(own, [_known(g, couplings, n) for n in checks])
        fields.update(zip(checks, b.tolist()))
        sites = [f"site_{n}" for n in checks]
        residuals.update(zip(sites, np.add.reduce(r * r, 1).tolist()))

    for key, value in run.mismatch_log.items():
        residuals[key] = max(residuals.get(key, 0.0), value)

    for n, b in supplied.items():
        residuals[f"field_supplied_{n}"] = abs(fields[n] - float(b))
    return ReconstructionResult(
        params=HamiltonianParams(fields, couplings),
        residuals=residuals,
        flags=flags,
        cycle_diagnostics=diagnostics,
    )
