"""Listing-based counting: grows every result exactly once from its lowest-rank
vertex, with candidate reduction and branch bounds as pruning hooks.

Serves as the baseline engine and as a cross-check for the pivot engine.
One recursion serves every family through its state object and FAMILY_RULES
entry; it counts results, or hands each one to a sink. Single target size
only; a size-(q-1) partial result closes once per live candidate instead of
recursing one more level.
"""

from __future__ import annotations

from functools import partial

from .graph import DegeneracyOrder, Graph, RootNeighborhood
from .motifs import MotifSpec, iter_bits
from .pivot import FAMILY_RULES
from .runner import Run, RunStats, prepare_root, run_over_roots


def _list_search(rn: RootNeighborhood, spec: MotifSpec, prune: bool, run: Run,
                 sink=None) -> None:
    """Counts the size-q results rooted at rn's root; sink receives each one,
    when given, as a sorted tuple of dense vertex ids."""
    q = spec.q_low
    stats = run.stats
    verts = rn.verts + [int(rn.root)] if sink is not None else None
    rules = FAMILY_RULES[spec.family]
    state = rules.root_state(rn, spec.s)
    R = state.R
    push, pop = state.push, state.pop
    filter_candidates = state.filter_candidates
    bound = rules.bound if prune else None
    keeps_counts = state.keeps_counts

    def rec(C: int) -> int:
        stats.nodes += 1
        if len(R) == q - 1:
            if sink is not None:
                for c in iter_bits(C):
                    sink(tuple(sorted(verts[x] for x in R + [c])))
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
            if keeps_counts:
                push(u, C)
            else:
                push(u)
            C2 = filter_candidates(C, u)
            if len(R) + C2.bit_count() >= q:
                total += rec(C2)
            pop()
        return total

    run.counts[q] += rec(rn.cand_mask)
    # rec holds itself through its closure: dropping the name frees this
    # root's state now instead of at the next cyclic garbage collection
    del rec


def _list_root(g: Graph, order: DegeneracyOrder, root: int, spec: MotifSpec, prune: bool,
               run: Run, sink=None) -> None:
    """One root of a listing run; kept free of closures, since most roots are
    cut before any search."""
    rn = prepare_root(g, order, root, spec, prune, run.stats)
    if rn is not None:
        _list_search(rn, spec, prune, run, sink)


def count_by_listing(g: Graph, spec: MotifSpec, *, prune: bool = True,
                     threads: int = 1, order: DegeneracyOrder | None = None) -> Run:
    """Count HCSs of one exact size by listing each exactly once."""
    spec.validate()
    if spec.is_range:
        raise ValueError("the listing engine counts a single size; use the pivot engine for ranges")
    if spec.q_low == 1:
        return Run(spec, {1: g.n}, RunStats(), prune)
    return run_over_roots(_list_root, g, spec, prune=prune, threads=threads, order=order)


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
    if spec.q_low == 1:
        for u in range(g.n):
            sink((u,))
        return
    run_over_roots(partial(_list_root, sink=sink), g, spec, prune=prune, threads=1,
                   order=order)
