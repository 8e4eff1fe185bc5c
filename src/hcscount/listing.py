"""Listing-based counting: grows every result exactly once from its lowest-rank
vertex, with candidate reduction and branch bounds as pruning hooks.

Serves as the baseline engine and as a cross-check for the pivot engine.
One recursion serves every family through its state object and FAMILY_RULES
entry; it counts results, or hands each one to a sink. Single target size
only; a size-(q-1) partial result closes once per live candidate instead of
recursing one more level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import DegeneracyOrder, Graph, RootNeighborhood, degeneracy_order
from .motifs import MotifSpec, iter_bits
from .pivot import FAMILY_RULES, Family
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


def _list_root(rn: RootNeighborhood, rules: Family, spec: MotifSpec, prune: bool,
               stats: RunStats, emit=None) -> int:
    """Size-q results rooted at rn's root; emit(members) receives each one
    in local ids when given."""
    q = spec.q_low
    state = rules.root_state(rn, spec.s)
    R = state.R
    push, pop = state.push, state.pop
    filter_candidates = state.filter_candidates
    bound = rules.bound if prune else None

    def rec(C: int) -> int:
        stats.nodes += 1
        if len(R) == q - 1:
            if emit is not None:
                for c in iter_bits(C):
                    emit(R + [c])
            return C.bit_count()
        total = 0
        w = C
        while w:
            b = w & -w
            u = b.bit_length() - 1
            w ^= b
            C ^= b
            stats.branch_iters += 1
            if bound is not None and bound(state, u, C) < q:
                stats.bound_pruned += 1
                continue
            push(u, C)
            C2 = filter_candidates(C, u)
            if len(R) + C2.bit_count() >= q:
                total += rec(C2)
            pop()
        return total

    total = rec(rn.cand_mask)
    # rec holds itself through its closure: dropping the name frees this
    # root's state now instead of at the next cyclic garbage collection
    del rec
    return total


def _list_worker(g: Graph, order: DegeneracyOrder, spec: MotifSpec, prune: bool,
                 roots: list[int]) -> tuple[int, RunStats]:
    stats = RunStats()
    rules = FAMILY_RULES[spec.family]
    total = 0
    for root in roots:
        rn = prepare_root(g, order, root, spec, prune, stats)
        if rn is not None:
            total += _list_root(rn, rules, spec, prune, stats)
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

    Test facility for desk-scale inputs: runs count_by_listing's recursion,
    with candidate reduction and branch bounds when prune is set, and hands
    each result to sink.
    """
    spec.validate()
    if spec.is_range:
        raise ValueError("enumerate_by_listing takes a single size")
    if order is None:
        order = degeneracy_order(g)
    if spec.q_low == 1:
        for u in range(g.n):
            sink((u,))
        return
    rules = FAMILY_RULES[spec.family]
    stats = RunStats()
    for root in order.order:
        rn = prepare_root(g, order, int(root), spec, prune, stats)
        if rn is None:
            continue
        verts = rn.verts + [int(rn.root)]
        _list_root(rn, rules, spec, prune, stats,
                   lambda members: sink(tuple(sorted(verts[x] for x in members))))
