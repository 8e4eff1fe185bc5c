"""Listing-based counting: grows every result exactly once from its lowest-rank
vertex, with candidate reduction and branch bounds as pruning hooks.

Serves as the baseline engine and as a cross-check for the pivot engine.
One recursion serves every family through its state object and FAMILY_RULES
entry; it counts results, or hands each one to a sink. Single target size
only.

The recursion closes at |R| = q - 2, one level above its results: such a
node takes one closer from its state (``state.closer(C)``), and for each
candidate u reads the later candidates v that complete R + {u, v} as one
bitmask, with no push, filter, pop or bound. That mask is exact, not a
bound: every member of C extends R (the root's candidates do, and each
filter keeps only vertices that extend the grown R), so whether R + {u, v}
is a result depends only on u, v and R's counts (see the closers in
motifs.py). Stats match a search that branched on u: one branch iteration
per u, and one node per u whose completion set is non-empty. No bound is
evaluated at the closing level, so a q = 3 listing evaluates none. A q = 2
listing counts the root's candidates and a q = 1 listing the root itself,
one node per root; like every other size, both run through
run_over_roots, which measures their stats and wall time.
"""

from __future__ import annotations

from functools import partial

from .graph import DegeneracyOrder, Graph, RootNeighborhood
from .motifs import MotifSpec, SpecError, iter_bits
from .pivot import FAMILY_RULES
from .runner import Run, run_over_roots


def _list_search(rn: RootNeighborhood, spec: MotifSpec, prune: bool, run: Run,
                 sink=None) -> None:
    """Counts the size-q results rooted at rn's root; sink receives each one,
    when given, as a sorted tuple of dense vertex ids."""
    q = spec.q_low
    stats = run.stats
    if q == 1:
        # the root alone is the result
        stats.nodes += 1
        if sink is not None:
            sink((int(rn.root),))
        run.counts[1] += 1
        return
    verts = rn.verts + [int(rn.root)] if sink is not None else None
    if q == 2:
        # the root is already one member short: each candidate closes it
        stats.nodes += 1
        if sink is not None:
            for c in iter_bits(rn.cand_mask):
                sink(tuple(sorted((verts[rn.root_local], verts[c]))))
        run.counts[q] += rn.cand_mask.bit_count()
        return
    rules = FAMILY_RULES[spec.family]
    state = rules.root_state(rn, spec.s)
    R = state.R
    push, pop = state.push, state.pop
    filter_candidates = state.filter_candidates
    closer = state.closer
    bound = rules.bound if prune else None

    def rec(C: int) -> int:
        stats.nodes += 1
        total = 0
        if len(R) == q - 2:
            close = closer(C)
            closed = 0
            w = C
            while w:
                b = w & -w
                u = b.bit_length() - 1
                w ^= b
                m = close(u, w)
                if m:
                    closed += 1
                    total += m.bit_count()
                    if sink is not None:
                        for v in iter_bits(m):
                            sink(tuple(sorted(verts[x] for x in R + [u, v])))
            stats.nodes += closed
            stats.branch_iters += C.bit_count()
            return total
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


def count_by_listing(g: Graph, spec: MotifSpec, *, prune: bool = True,
                     threads: int = 1, order: DegeneracyOrder | None = None) -> Run:
    """Count HCSs of one exact size by listing each exactly once; a range
    spec is a SpecError."""
    spec.validate()
    if spec.is_range:
        raise SpecError("the listing engine counts a single size; use the pivot engine for ranges")
    return run_over_roots(_list_search, g, spec, prune=prune, threads=threads, order=order)


def enumerate_by_listing(g: Graph, spec: MotifSpec, sink, *, prune: bool = True,
                         order: DegeneracyOrder | None = None) -> None:
    """Emit every size-q HCS exactly once, as a sorted tuple of dense vertex ids.

    Test facility for desk-scale inputs: runs count_by_listing's recursion,
    with candidate reduction and branch bounds when prune is set, and hands
    each result to sink.
    """
    spec.validate()
    if spec.is_range:
        raise SpecError("enumerate_by_listing takes a single size")
    run_over_roots(partial(_list_search, sink=sink), g, spec, prune=prune, threads=1,
                   order=order)
