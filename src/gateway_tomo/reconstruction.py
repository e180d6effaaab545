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
running peak modulus of its columns where a later block may read it, so a
merge finds the states it can align in O(states).  All that the graph and
the plan decide, validation, the cycle's edges and tree terms and the layout
of its moment system included, is compiled once per (g, plan) into a
`_Schedule`, which `reconstruct` replays as array operations on the rows it
fixed.  Cycle couplings never appear alone in a sum rule, so their squares
are solved jointly from second (and, for even cycles, third) central moments.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._json import _check_site, scalar
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GatewayTomoError, IllConditionedError, InconsistentDataError
from .errors import InputError, NearZeroDivisionError, RankDeficientError
from .errors import SignAmbiguityError
from .graphs import AccessPlan, BranchPeel, NetworkGraph, edge_key
from .measurement import SpectralMeasurement
from .spectral import HamiltonianParams, params_to_json

REFERENCE_FAMILY = "reference"


class _Recursion:
    """The sum-rule recursion of one reconstruction: its columns and results.

    Columns are rows of ``cols`` in claim order and ``peak`` holds each
    family's per-state maximum modulus.  `take` records what the plan fixes:
    the rows, edges and families a block claims.  `_Schedule` takes every
    block without a measurement; `replay` runs one without taking it.
    """

    def __init__(self, g: NetworkGraph, meas=None, tol=DEFAULT_TOLERANCES):
        self.g, self.meas, self.tolerances = g, meas, tol
        self.row, self.node_family, self.families, self.peak = {}, {}, {}, {}
        self.closed, self.couplings, self.fields, self.mismatch_log = set(), {}, {}, {}
        if meas is not None:
            self.eigenvalues = np.asarray(meas.eigenvalues, dtype=float)
            # a full reconstruction claims one row per eigenstate
            self.cols = np.empty((len(self.eigenvalues),) * 2)
            self.moduli_row = dict(zip(meas.nodes, itertools.count()))

    def vector(self, node: int) -> np.ndarray:
        if node not in self.row:
            raise InputError(f"no eigenvector column known at site {node}")
        return self.cols[self.row[node]]

    def known(self, n: int) -> tuple[list, list, list]:
        """Sites, rows and edges of ``n``'s neighbors across resolved edges."""
        us = [u for u in self.g.adjacency[n] if edge_key(n, u) in self.closed]
        return us, [self.row[u] for u in us], [edge_key(n, u) for u in us]

    def take(self, block: _Block) -> None:
        self.row.update(zip(block.owners, itertools.count(len(self.row))))
        self.closed.update(block.edges)
        for n, family in block.owners.items():
            self.node_family[n] = family
            self.families.setdefault(family, []).append(n)
        for src, dst, _ in block.moves:
            moved = self.families.pop(src)
            self.families[dst] += moved
            self.node_family.update(dict.fromkeys(moved, dst))

    def sum_rule(self, own: np.ndarray, known: list, b=None) -> tuple[np.ndarray, ...]:
        """Fields b = sum E v^2 and vectors (E - b) v - sum c v_u of some sites.

        ``own`` holds their columns as rows, ``known`` per site the neighbors
        `known` lists; sites past its end have none.  ``b`` may take the fields.
        """
        b = np.add.reduce(self.eigenvalues * own * own, 1, out=b)
        r = (self.eigenvalues - b[:, None]) * own
        # one neighbor at a time, in order; several in one reduce over their rows
        for i, (_, rows, edges) in enumerate(known):
            if len(rows) == 1:
                r[i] -= self.couplings[edges[0]] * self.cols[rows[0]]
            elif rows:
                cs = [self.couplings[e] for e in edges]
                terms = np.reshape(cs, (-1, 1)) * self.cols[rows]
                terms[0] = r[i] - terms[0]
                np.subtract.reduce(terms, 0, out=r[i])
        return b, r

    def advance(self, block: _Block) -> None:
        self.replay(block, peaks=True)
        self.take(block)

    def replay(self, block: _Block, peaks: bool) -> None:
        """Run a block, one array operation per recursion step, and settle it.

        Step 0 subtracts every known neighbor of each head, a later step only the
        site before.  An arrival joining a holder aligns the states that it and the
        holder, as grown by the arrivals before it, both carry.  Numeric errors alone
        are raised, in the order that running the segments one at a time meets them,
        and before anything is written.  Family peaks are kept only if ``peaks``.
        """
        overlap, floor = self.tolerances.overlap_tol, self.tolerances.coupling_tol**2
        nodes, edges, sign = block.nodes, block.edges, block.sign
        cols = np.empty((len(nodes) + len(block.batch), len(self.eigenvalues)))
        arrivals = cols[len(nodes) :]
        rows = [self.moduli_row[n] for n in block.heads]
        arrivals[block.measured] = self.meas.moduli[rows]
        for j, _, row in block.tops:
            arrivals[j] = self.cols[row]
        cols[: block.lead], peak = arrivals[: block.lead], peaks and np.abs(arrivals)
        for j, family, _ in block.tops if peaks else ():
            np.maximum(self.peak[family], peak[j], out=peak[j])
        b_all, c_all = np.empty(len(nodes)), np.empty((len(nodes), 1))
        for lo, hi, a, back, going in block.steps:
            _, r = self.sum_rule(cols[lo:hi], () if lo else block.known, b_all[lo:hi])
            if lo:  # step 0 runs the heads, which the peaks hold already
                r -= c[:a] * cols[back : back + a]
                if peaks:
                    np.maximum(peak[:a], np.abs(cols[lo:hi]), out=peak[:a])
            c_sq = np.add.reduce(r * r, 1, keepdims=True)
            for j, (x,) in enumerate(c_sq.tolist(), lo):
                if x <= floor:
                    raise NearZeroDivisionError(nodes[j], edges[j], math.sqrt(x))
            c = np.multiply(sign[lo:hi], np.sqrt(c_sq), out=c_all[lo:hi])
            if going:
                np.divide(r[:going], c[:going], out=cols[hi : hi + going])
            if going < a:
                np.divide(r[going:], c[going:], out=arrivals[going:a])

        hold, logs, flips, eps = {}, {}, [], None
        for t, held, first, dst, js, joins in block.terminals if peaks else ():
            ex = self.cols[held] if first is None else arrivals[first]
            if first is not None:
                hold[dst] = np.maximum(peak[first], np.abs(ex))
            if not joins:
                continue
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
            for i, j, src, into, moves in joins:
                x = hold.pop(src, None)
                if into is not None:  # the reference took over the holder
                    hold[into], eps[j] = x, 1.0
                if moves:
                    flips.append(e[i])
        if eps is not None:
            cols[: len(nodes)] *= eps[block.lanes]
        self.cols[block.row0 : block.row0 + len(block.keep)] = cols[block.keep]
        for (src, _, rows), flip in zip(block.moves, flips):
            self.cols[rows] *= flip
            del self.peak[src]
        self.peak.update(hold)
        for key, value in ((f"merge_{t}", x) for t, x in logs.items()):
            self.mismatch_log[key] = max(self.mismatch_log.get(key, 0.0), value)
        self.fields.update(zip(nodes, b_all.tolist()))
        self.couplings.update(zip(edges, c_all[:, 0].tolist()))


class _Block:
    """One block of (family, segment) pairs, laid out for `_Recursion.advance`.

    Lanes are the segments, longest first; a measured one seeds its family
    from its head's moduli, a derived one continues the family holding its
    head column.  Step k runs the first ``a`` lanes into rows lo:hi of the
    block's columns; lane j arrives in row len(nodes) + j.  ``terminals``
    settles each terminal in schedule order: the family that held it before
    the block keeps it, or else the first arrival claims it, and every other
    arrival joins the holder.
    """

    def __init__(self, sites: _Recursion, batch: list[tuple[str, BranchPeel]]):
        segs = []
        for i, (family, peel) in enumerate(batch):
            top = None if peel.seeded_by_measurement else sites.node_family[peel.head]
            seed = peel.head if top is None else sites.row[peel.head]
            # a measured segment without steps arrives at its head at once
            seq = (*peel.nodes, peel.terminal) if peel.nodes else (peel.head,)
            segs.append((seq, top or family, seed, top, i))
        segs.sort(key=lambda s: -len(s[0]))
        seqs, fams, seeds, tops, rank = zip(*segs)
        self.batch, self.row0 = tuple(batch), len(sites.row)
        # a derived lane continues its family from a row, a measured one reads its head
        self.tops = [(j, f, seeds[j]) for j, f in enumerate(tops) if f]
        self.measured = np.flatnonzero([t is None for t in tops])
        self.heads = [seeds[j] for j in self.measured]
        shorter = [1 - len(s) for s in seqs]
        active = [bisect.bisect_left(shorter, -k) for k in range(-shorter[0])]
        start = [0, *itertools.accumulate(active)]
        self.nodes = nodes = [s[k] for k, a in enumerate(active) for s in seqs[:a]]
        succ = [s[k + 1] for k, a in enumerate(active) for s in seqs[:a]]
        self.edges = list(map(edge_key, nodes, succ))
        self.sign = np.array([[sites.g.sign_of[e]] for e in self.edges], dtype=float)
        # per step: lo, hi, a, the first row of the step before, the lanes going on
        self.steps = list(zip(start, start[1:], active, [0, *start], [*active[1:], 0]))
        self.lead = lead = active[0] if active else 0
        self.known = [sites.known(n) for n in nodes[:lead]]  # step 0 subtracts these
        at_terminal, self.terminals, self.moves = {}, [], []
        claimed, owner = [False] * len(seqs), list(fams)
        for j in sorted(range(len(seqs)), key=rank.__getitem__):
            at_terminal.setdefault(seqs[j][-1], []).append(j)
        for t, js in at_terminal.items():
            held, first, dst = sites.row.get(t), None, sites.node_family.get(t)
            if held is None:
                first = js.pop(0)
                dst, claimed[first] = fams[first], True
            joins = []
            for i, j in enumerate(js):
                swap = fams[j] == REFERENCE_FAMILY  # it keeps its frame and name
                src, into = (dst, fams[j]) if swap else (fams[j], dst)
                owner[j] = into
                if src in sites.families:  # it moves with what it held before
                    rows = [sites.row[n] for n in sites.families[src]]
                    self.moves.append((src, into, np.array(rows, dtype=np.intp)))
                joins.append((i, j, src, into if swap else None, src in sites.families))
            self.terminals.append((t, held, first, dst, np.array(js, np.intp), joins))
        # new columns: every row but a derived head's, and the claiming arrivals
        keep = [t is None for t in tops[:lead]] + [True] * (len(nodes) - lead) + claimed
        lane = [j for a in active for j in range(a)]
        self.lanes, self.keep = np.array(lane, dtype=np.intp), np.flatnonzero(keep)
        new = zip(nodes + [s[-1] for s in seqs], [owner[j] for j in lane] + owner)
        self.owners = dict(itertools.compress(new, keep))  # new columns, in row order


class _Schedule:
    """The validated plan's blocks, cycle solve and check sites, as laid out once.

    A block holds consecutive measured segments with steps, none ending at a
    site an earlier segment reached; any other segment is a block of its own.
    A valid plan never consumes a site that a segment of the same block ends
    at, so in a block of several the first arrival at each terminal claims it.
    """

    def __init__(self, g: NetworkGraph, plan: AccessPlan):
        plan.validate(g)
        sites, path = _Recursion(g), plan.reference_path or (plan.reference,)
        segments = [(REFERENCE_FAMILY, BranchPeel(path[0], path[:-1], path[-1], True))]
        segments += [(f"branch:{p.head}", p) for p in plan.peel_schedule]
        batches, reached = [[]], set()
        for family, peel in segments:
            measured = peel.seeded_by_measurement and peel.nodes
            joins = measured and peel.terminal not in reached
            reached.update(peel.nodes)
            if joins:
                batches[-1].append((family, peel))
            else:
                reached |= {p.terminal for _, p in batches[-1]} | {peel.terminal}
                batches += [[(family, peel)], []]
        self.blocks = []
        for batch in batches:  # a derived segment without steps does nothing
            if any(p.seeded_by_measurement or p.nodes for _, p in batch):
                self.blocks.append(block := _Block(sites, batch))
                sites.take(block)
        read, self.peaks = False, []  # peaks kept for merges and derived lanes
        for block in reversed(self.blocks):
            self.peaks.insert(0, read or any(joins for *_, joins in block.terminals))
            read = self.peaks[0] or bool(block.tops)
        self.cycle = plan.cycle_plan
        if self.cycle is not None:
            cyc, measured = self.cycle.cycle, self.cycle.measured
            # edge i runs from site i to the next, so site i meets edges i - 1 and i
            edges = map(edge_key, cyc, (*cyc[1:], cyc[0]))
            self.cycle_edges = [(e, g.sign_of[e]) for e in edges]
            self.rows = [None if n in measured else sites.row[n] for n in cyc]
            self.tree = [sites.known(n) for n in cyc]  # cycle edges are open yet
            # the third moments' tree terms: (cycle row, site, tree neighbor, edge)
            self.branches = [(i, n, u, e) for i, n in enumerate(cyc)
                             for u, _, e in zip(*self.tree[i])]
            self.moments = ("second", "third") if len(cyc) % 2 == 0 else ("second",)
            at, k = np.arange(len(cyc)), len(cyc)
            self.around = np.array([(at - 1) % k, (at + 1) % k])  # sites back, ahead
            self.system = np.zeros((k * len(self.moments), k + 1))  # [matrix | rhs]
            self.system[at, at] = self.system[at, self.around[0]] = 1.0
            # third-moment row k + i: edges i - 1 and i by the field steps back and ahead
            self.place = (k + at) * (k + 1) + np.array([self.around[0], at, [k] * k])
            sites.closed.update(e for e, _ in self.cycle_edges)
        self.access, self.checks = frozenset(plan.access_set), plan.check_sites(g)
        self.check_rows = [sites.row[n] for n in self.checks]
        self.known = [sites.known(n) for n in self.checks]
        self.keys = [f"site_{n}" for n in self.checks]


# by value: equal graphs and plans share a schedule; a failed validation raises again
_schedule = functools.lru_cache(maxsize=8)(_Schedule)


@dataclass(frozen=True)
class CycleDiagnostics:
    """How the cycle moment solve went."""

    condition_number: float
    moments_used: tuple[str, ...]
    rank: int
    min_square: float
    lstsq_residual: float


def _solve_cycle_moments(
    run: _Recursion, schedule: _Schedule
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
    fields, couplings, tolerances = run.fields, run.couplings, run.tolerances
    cyc, system = schedule.cycle.cycle, schedule.system.copy()
    length = len(cyc)
    vecs = np.array([run.meas.moduli[run.moduli_row[n]] if row is None else run.cols[row]
                     for n, row in zip(cyc, schedule.rows)])
    b, r = run.sum_rule(vecs, schedule.tree)
    fields.update(zip(cyc, b.tolist()))
    np.add.reduce(r * r, 1, out=system[:length, length])

    if len(schedule.moments) > 1:
        # column i: row k + i's field steps back and ahead, then its third moment
        steps = np.empty((3, length))
        np.subtract(b[schedule.around], b, out=steps[:2])
        np.add.reduce((run.eigenvalues - b[:, None]) ** 3 * vecs**2, 1, out=steps[2])
        for i, n, u, e in schedule.branches:
            c = couplings[e]
            steps[2, i] -= c * c * (fields[u] - fields[n])
        scale = np.maximum.reduce(np.abs(steps[:2]))
        keep = scale > 1e-12 * max(1.0, float(np.maximum.reduce(np.abs(b))))
        system.flat[schedule.place] = np.divide(steps, scale, out=steps, where=keep)
        if not all(keep.tolist()):
            system = system[np.concatenate((np.ones(length, bool), keep))]
    matrix, rhs = system[:, :length], system[:, length]

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
    fit, squares = matrix @ solution - rhs, solution.tolist()

    floor = -tolerances.slack_factor * max(max(squares), 1.0)
    for (e, sign), x in zip(schedule.cycle_edges, squares):
        if x < floor:
            raise InconsistentDataError(
                f"squared coupling on cycle edge {e} solved to {x:.3e}; "
                "the moment data contradicts the declared topology"
            )
        couplings[e] = sign * math.sqrt(max(x, 0.0))

    diagnostics = CycleDiagnostics(condition, schedule.moments, int(rank), min(squares),
                                   math.sqrt(fit.dot(fit)))
    return diagnostics, ("RankAugmented",) if len(schedule.moments) > 1 else ()


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
    schedule = _schedule(g, plan)
    missing = schedule.access.difference(meas.nodes)
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
        scalar(b, "supplied field at site {}", n)

    run = _Recursion(g, meas, tolerances)
    fields, couplings = run.fields, run.couplings
    for k, block in enumerate(schedule.blocks):
        try:
            run.replay(block, schedule.peaks[k])
        except GatewayTomoError:
            # nothing was written: one at a time, the earliest failing segment raises
            if len(block.batch) > 1:
                for done in schedule.blocks[:k]:  # the rows and families it builds on
                    run.take(done)
                for segment in block.batch:
                    run.advance(_Block(run, [segment]))
            raise

    diagnostics, flags = None, ()
    if schedule.cycle is not None:
        diagnostics, flags = _solve_cycle_moments(run, schedule)

    # leftover equations become consistency checks
    residuals: dict[str, float] = {}
    if schedule.checks:
        b, r = run.sum_rule(run.cols[schedule.check_rows], schedule.known)
        fields.update(zip(schedule.checks, b.tolist()))
        residuals.update(zip(schedule.keys, np.add.reduce(r * r, 1).tolist()))
    residuals.update(run.mismatch_log)  # merge_<n> keys, never a site_<n> key
    for n, b in supplied.items():
        residuals[f"field_supplied_{n}"] = abs(fields[n] - float(b))
    params = HamiltonianParams(fields, couplings)
    return ReconstructionResult(params, residuals, flags, diagnostics)
