"""Listing-based counting: grows every result exactly once from its lowest-rank
vertex, with candidate reduction and branch bounds as pruning hooks.

Serves as the baseline engine and as a cross-check for the pivot engine.
Single target size only; a size-(q-1) partial result closes once per live
candidate instead of recursing one more level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import DegeneracyOrder, Graph, RootNeighborhood, degeneracy_order
from .motifs import DcliqueState, MotifSpec, PlexState
from .pruning import upper_bound_dclique, upper_bound_plex
from .runner import RunStats, check_counter, prepare_root, run_over_roots


@dataclass
class ListRun:
    spec: MotifSpec
    count: int
    stats: RunStats
    pruned: bool

    @property
    def counts(self) -> dict[int, int]:
        return {self.spec.q_low: self.count}


def _root_count_clique(rn: RootNeighborhood, q: int, stats: RunStats) -> int:
    adj = rn.adj
    C0 = rn.cand_mask
    if 1 + C0.bit_count() < q:
        return 0

    def rec(C: int, depth: int) -> int:
        stats.nodes += 1
        if depth == q - 1:
            return C.bit_count()
        total = 0
        w = C
        while w:
            b = w & -w
            u = b.bit_length() - 1
            w ^= b
            C ^= b
            stats.branch_iters += 1
            C2 = adj[u] & C
            if depth + 1 + C2.bit_count() >= q:
                total += rec(C2, depth + 1)
        return total

    return rec(C0, 1)


def _root_count_dclique(rn: RootNeighborhood, s: int, q: int, prune: bool,
                        stats: RunStats) -> int:
    state = DcliqueState(rn.adj, s)
    state.push(rn.root_local)
    C0 = rn.cand_mask
    if 1 + C0.bit_count() < q:
        return 0

    def rec(C: int) -> int:
        stats.nodes += 1
        if len(state.R) == q - 1:
            return C.bit_count()
        total = 0
        w = C
        while w:
            b = w & -w
            u = b.bit_length() - 1
            w ^= b
            C ^= b
            stats.branch_iters += 1
            if prune and upper_bound_dclique(state, u, C) < q:
                stats.bound_pruned += 1
                continue
            state.push(u)
            C2 = state.filter_candidates(C)
            if len(state.R) + C2.bit_count() >= q:
                total += rec(C2)
            state.pop()
        return total

    return rec(C0)


def _root_count_plex(rn: RootNeighborhood, s: int, q: int, prune: bool,
                     stats: RunStats) -> int:
    state = PlexState(rn.adj, s)
    state.push(rn.root_local)
    C0 = rn.cand_mask
    if 1 + C0.bit_count() < q:
        return 0

    def rec(C: int) -> int:
        stats.nodes += 1
        if len(state.R) == q - 1:
            return C.bit_count()
        total = 0
        budget = None
        if prune:
            budget = sum(s - len(state.As[v]) for v in state.R)
        w = C
        while w:
            b = w & -w
            u = b.bit_length() - 1
            w ^= b
            C ^= b
            stats.branch_iters += 1
            if prune and upper_bound_plex(state, u, C, budget) < q:
                stats.bound_pruned += 1
                continue
            state.push(u)
            C2 = state.filter_candidates(C, u)
            if len(state.R) + C2.bit_count() >= q:
                total += rec(C2)
            state.pop()
        return total

    return rec(C0)


def _list_worker(g: Graph, order: DegeneracyOrder, spec: MotifSpec, prune: bool,
                 roots: list[int]) -> tuple[int, RunStats]:
    stats = RunStats()
    q, s = spec.q_low, spec.s
    total = 0
    for root in roots:
        rn = prepare_root(g, order, root, spec, prune, stats)
        if spec.family == "clique":
            total += _root_count_clique(rn, q, stats)
        elif spec.family == "dclique":
            total += _root_count_dclique(rn, s, q, prune, stats)
        else:
            total += _root_count_plex(rn, s, q, prune, stats)
        check_counter(total)
    return total, stats


def count_by_listing(g: Graph, spec: MotifSpec, *, prune: bool = True,
                     threads: int = 1, order: DegeneracyOrder | None = None) -> ListRun:
    """Count HCSs of one exact size by listing each exactly once."""
    spec.validate()
    if spec.is_range:
        raise ValueError("the listing engine counts a single size; use the pivot engine for ranges")
    t0 = time.perf_counter()
    stats = RunStats()
    total = 0
    if g.n and spec.q_low == 1:
        total = g.n
    elif g.n:
        for part, pstats in run_over_roots(_list_worker, g, spec, prune=prune,
                                           threads=threads, order=order):
            total += part
            stats.merge(pstats)
            check_counter(total)
    stats.wall_time = time.perf_counter() - t0
    return ListRun(spec, total, stats, prune)


def enumerate_by_listing(g: Graph, spec: MotifSpec, sink, *, prune: bool = True,
                         order: DegeneracyOrder | None = None) -> None:
    """Emit every size-q HCS exactly once, as a sorted tuple of dense vertex ids.

    Test facility for desk-scale inputs; the recursion mirrors count_by_listing.
    """
    spec.validate()
    if spec.is_range:
        raise ValueError("enumerate_by_listing takes a single size")
    if order is None:
        order = degeneracy_order(g)
    q, s = spec.q_low, spec.s
    stats = RunStats()
    if spec.q_low == 1:
        for u in range(g.n):
            sink((u,))
        return
    for root in order.order:
        rn = prepare_root(g, order, int(root), spec, prune, stats)
        verts = rn.verts.tolist() + [int(rn.root)]
        adj = rn.adj

        if spec.family == "clique":
            state = None
        elif spec.family == "dclique":
            state = DcliqueState(adj, s)
        else:
            state = PlexState(adj, s)
        R: list[int] = [rn.root_local]
        if state is not None:
            state.push(rn.root_local)

        def emit_with(c: int) -> None:
            sink(tuple(sorted(verts[x] for x in R + [c])))

        def rec(C: int) -> None:
            if len(R) == q - 1:
                w = C
                while w:
                    b = w & -w
                    emit_with(b.bit_length() - 1)
                    w ^= b
                return
            w = C
            while w:
                b = w & -w
                u = b.bit_length() - 1
                w ^= b
                C ^= b
                if state is None:
                    C2 = adj[u] & C
                elif isinstance(state, DcliqueState):
                    state.push(u)
                    C2 = state.filter_candidates(C)
                else:
                    state.push(u)
                    C2 = state.filter_candidates(C, u)
                R.append(u)
                if len(R) + C2.bit_count() >= q:
                    rec(C2)
                R.pop()
                if state is not None:
                    state.pop()

        if 1 + rn.cand_mask.bit_count() >= q:
            rec(rn.cand_mask)
