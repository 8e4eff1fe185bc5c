"""Pivot-based counting: lists only seed results and credits the rest
combinatorially from an accumulated pivot set D.

Every node splits its candidates into a hold-out side C1 = N(u_p) ∩ C and a
branching side C2. An admitted pivot joins D instead of being branched on;
at leaves, subsets of D complete the current set R without being listed.
clique and dclique always admit u_p. plex admits it only when every member
of R that misses it has room for it and for its own misses in C1, since only
u_p and members of C1 join R or D below its hold-out call
(select_pivot_plex); otherwise the node splits on u_p without admitting it.

One recursion serves every family through its state object (motifs.py) and
the FAMILY_RULES entry (state, pivot rule, branch bound). Invariant: D is a
clique, and after every push the family's filter_pivots drops the members of
D that can no longer complete R; R only grows below the push, so a dropped
member never could again. Hence:

* closure leaf (|R| = q_high - 1): every member of C | D completes R;
* combinatorial leaf (C empty): the family's leaf_classes(D) splits D by
  deficiency w <= s (clique and plex: one class, w = 0), and a k-subset
  of D completes R when its weights sum to at most the remaining edge
  budget. The credits, with each class's per-member and per-pair shares,
  depend only on |R|, the class sizes, the budget and the size range, so
  they are memoised (_leaf), and computed from binomials (_fits).

A branch vertex fits the family's budget with R (the filters keep only
such vertices, and a root has 2-hop candidates only for s >= 1), so a branch
bound is at least |R| + 1 (less the verification fault); a node whose
|R| + 1 + |D| already reaches q_low skips the bound, and debug runs check
that it could not prune.

One traversal yields counts for all sizes in [q_low, q_high] and, on demand,
per-vertex/per-edge local counts. These are not listed either. Every result
found below a push contains all of R, so each member of R and its edges to
the earlier members are credited once, at the matching pop, with the number
of results found in between; a leaf credits only its completion members (the
closure set, or the members of D) and their edges (see _RootLocal).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

from . import pruning
from .graph import DegeneracyOrder, Graph, RootNeighborhood
from .motifs import CliqueState, DcliqueState, MotifSpec, PlexState, iter_bits
from .pruning import upper_bound_dclique, upper_bound_plex
from .runner import LocalCounts, Run, run_over_roots


def binom(n: int, k: int) -> int:
    """C(n, k), and 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def _fits(counts: tuple[int, ...], budget: int, k: int) -> int:
    """Number of k-subsets of a multiset holding counts[w] members of weight
    w whose weights sum to at most budget (0 if any count is negative)."""
    if k < 0 or budget < 0:
        return 0
    w = len(counts) - 1
    if not w:
        return binom(counts[0], k)
    c, rest = counts[w], counts[:w]
    return sum(binom(c, j) * _fits(rest, budget - w * j, k - j)
               for j in range(min(c, k, budget // w) + 1))


def knapsack_counts(weights: list[int], budget: int, k: int) -> int:
    """Number of k-subsets of `weights` whose sum is at most budget."""
    counts = [0] * (max(weights, default=0) + 1)
    for w in weights:
        counts[w] += 1
    return _fits(tuple(counts), budget, k)


@lru_cache(maxsize=4096)
def _leaf(nR: int, counts: tuple[int, ...], budget: int, q_lo: int,
          q_hi: int) -> tuple[tuple, int, tuple, tuple]:
    """A combinatorial leaf: R has nR members, and D holds counts[w] members
    of deficiency w; a k-subset of D completes R when q_lo <= nR + k <= q_hi
    and its deficiencies sum to at most budget.

    Returns the (size, count) pairs it credits, their total, and per class,
    how many of those results hold a given member of it (ones[w]) and a given
    pair of members of classes w <= x (two[w][x]), the shape that
    _RootLocal.credit_leaf takes.
    """
    ks = range(max(0, q_lo - nR), min(sum(counts), q_hi - nR) + 1)
    credits = tuple((nR + k, c) for k in ks if (c := _fits(counts, budget, k)))

    def holding(*held: int) -> int:
        # results holding one given member of each class in held (0 when a
        # class is too small: _fits counts nothing over a negative count)
        less = list(counts)
        for w in held:
            less[w] -= 1
        less, room = tuple(less), budget - sum(held)
        return sum(_fits(less, room, k - len(held)) for k in ks)

    classes = range(len(counts))
    ones = tuple(holding(w) for w in classes)
    two = tuple(tuple(holding(w, x) if x >= w else 0 for x in classes) for w in classes)
    return credits, sum(c for _, c in credits), ones, two


@dataclass
class PivotDecision:
    """Outcome of pivot selection: C1 is held out, C2 is branched on."""

    pivot: int | None
    C1: int
    C2: int


def select_pivot_dclique(state: DcliqueState, C: int) -> PivotDecision:
    """Maximum-degree vertex of G(C) (ties to the smallest id); always admits."""
    adj = state.adj
    best, best_deg = -1, -1
    w = C
    while w:
        b = w & -w
        u = b.bit_length() - 1
        w ^= b
        d = (adj[u] & C).bit_count()
        if d > best_deg:
            best, best_deg = u, d
    C1 = adj[best] & C
    return PivotDecision(best, C1, C & ~C1 & ~(1 << best))


def select_pivot_plex(state: PlexState, C: int) -> PivotDecision:
    """Maximum-degree qualifier if any; otherwise split on the maximum-degree
    vertex without admitting it (it stays in the branching side).

    u qualifies when every member v of R that it misses keeps room for u and
    for everything v misses in u's hold-out side C1 = N(u) ∩ C:
    m̄(v, R) + 1 + |C1 \\ N(v)| <= s for all v in R \\ N(u). Below u's
    hold-out call only u and members of C1 join R or D, so no result credited
    there gives v more than s non-neighbors. A member of D that v misses
    needs no charge here: the first such d was admitted with v in R, and its
    own check charged v for d and for all of d's hold-out side, which holds
    u, C1 and everything pushed or admitted since. A member of D admitted
    before v joined R held v in its hold-out side, so v sees it. A member d
    of D sees all of D (a clique) and everything pushed after it (its
    hold-out side), so it misses only its m̄(d, R) at admission, which the
    candidate filter kept within s.

    A member v with m̄(v, R + C) <= s passes for every u it misses, since u
    lies in C \\ N(v) but not in C1; only the other, heavy members are
    checked against C1, and only for a u whose degree beats the best
    qualifier so far. One sweep over C (ties to the smallest id) finds both
    the best qualifier and the best vertex.
    """
    s = state.s
    A = state.A
    adj = state.adj
    nC = C.bit_count()
    heavy_r = 0
    for v in state.R:
        if A[v] + (nC - (adj[v] & C).bit_count()) > s:
            heavy_r |= 1 << v
    best = qual = -1
    best_deg = qual_deg = -1
    w = C
    while w:
        b = w & -w
        u = b.bit_length() - 1
        w ^= b
        au = adj[u]
        d = (au & C).bit_count()
        if d > best_deg:
            best, best_deg = u, d
        if d > qual_deg:
            h = heavy_r & ~au
            if h:
                C1 = au & C
                while h:
                    hb = h & -h
                    v = hb.bit_length() - 1
                    if A[v] + (C1 & ~adj[v]).bit_count() >= s:
                        break
                    h ^= hb
            if not h:
                qual, qual_deg = u, d
    if qual < 0:
        C1 = adj[best] & C
        return PivotDecision(None, C1, C & ~C1)
    C1 = adj[qual] & C
    return PivotDecision(qual, C1, C & ~C1 & ~(1 << qual))


class Family(NamedTuple):
    """How both engines search one family: its state class, the pivot rule
    (pivot engine only) and the branch bound (applied when pruning)."""

    state: type
    select_pivot: Callable[..., PivotDecision]
    bound: Callable[..., int] | None

    def root_state(self, rn: RootNeighborhood, s: int):
        state = self.state(rn.adj, s)
        state.push(rn.root_local)
        return state


FAMILY_RULES = {
    "clique": Family(CliqueState, select_pivot_dclique, None),
    "dclique": Family(DcliqueState, select_pivot_dclique, upper_bound_dclique),
    "plex": Family(PlexState, select_pivot_plex, upper_bound_plex),
}


# A root's held masks are expanded after this many leaves (fewer on universes
# of over 1024 vertices), which bounds their memory.
HOLD_LEAVES = 4096


class _RootLocal:
    """Per-root local-count scratch in local ids, added in dense ids into the
    run's LocalCounts by flush.

    Every result found below a push contains all of R, so a member of R is
    credited once, at its pop, not at every leaf below it: `found` counts the
    results found so far, and credit_member gives the results found since the
    matching push to the popped member and to its edges to the earlier
    members of R. A leaf credits only its completion members (the closure set
    xs, or the members of D) and their edges.

    Credits are held as bitmasks, since leaves repeat them: held_v maps a
    mask to the credit of each of its members; held_e[u] maps a mask to the
    credit of each edge from u into it; held_pairs maps (a, b) to the credit
    of each edge from a member of a to one of b (to a later one when a == b).
    flush expands each held mask once; it runs at the root's end, and after
    every `hold` leaves (HOLD_LEAVES, scaled down on large universes) so that
    the held masks stay few.
    """

    __slots__ = ("acc", "verts", "adj", "pv", "held_v", "held_e", "held_pairs", "found",
                 "leaves", "hold")

    def __init__(self, rn: RootNeighborhood, acc: LocalCounts):
        self.acc = acc
        self.verts = rn.verts + [int(rn.root)]
        self.adj = rn.adj
        n = len(self.verts)
        self.pv = [0] * n if acc.per_vertex is not None else None
        self.held_v: dict[int, int] = {}
        self.held_e = defaultdict(dict) if acc.per_edge is not None else None
        self.held_pairs: dict[tuple[int, int], int] = {}
        self.found = 0
        self.leaves = 0
        self.hold = max(1, HOLD_LEAVES * 1024 // max(n, 1024))

    def credit_member(self, R: list[int], n: int) -> None:
        """n results were found since R's newest member was pushed."""
        if not n:
            return
        u = R[-1]
        if self.pv is not None:
            self.pv[u] += n
        if self.held_e is not None:
            m = 0
            for r in R:
                m |= 1 << r
            m &= self.adj[u]
            if m:
                row = self.held_e[u]
                row[m] = row.get(m, 0) + n

    def credit_leaf(self, R: list[int], n: int, masks: Sequence[int], ones: Sequence[int],
                    two: Sequence[Sequence[int]]) -> None:
        """A leaf: n results complete R, each with a set of completion members.

        The members are split into classes: each member of masks[i] lies in
        ones[i] of the results, and a member of class i and another of class
        j >= i lie together in two[i][j] of them. At a combinatorial leaf the
        members are D, a clique, so every such pair is an edge; at a closure
        leaf they are xs, one per result.
        """
        self.found += n
        hv = self.held_v if self.pv is not None else None
        he = self.held_e
        adj = self.adj
        for mask, c1 in zip(masks, ones):
            if not (mask and c1):
                continue
            if hv is not None:
                hv[mask] = hv.get(mask, 0) + c1
            if he is not None:
                for r in R:
                    m = adj[r] & mask
                    if m:
                        row = he[r]
                        row[m] = row.get(m, 0) + c1
        if he is not None:
            hp = self.held_pairs
            for i, a in enumerate(masks):
                two_i = two[i]
                for j in range(i, len(masks)):
                    c2 = two_i[j]
                    if c2:
                        key = (a, masks[j])
                        hp[key] = hp.get(key, 0) + c2
        self.leaves += 1
        if self.leaves == self.hold:
            self.flush()

    def flush(self) -> None:
        """Expand the held masks and add every credit, in dense ids, into acc."""
        self.leaves = 0
        verts = self.verts
        pv = self.pv
        if pv is not None:
            for mask, c in self.held_v.items():
                while mask:
                    b = mask & -mask
                    pv[b.bit_length() - 1] += c
                    mask ^= b
            self.held_v.clear()
            out = self.acc.per_vertex
            for i, c in enumerate(pv):
                if c:
                    out[verts[i]] += c
                    pv[i] = 0
        he = self.held_e
        if he is None:
            return
        for (a, b), c in self.held_pairs.items():
            w = a
            while w:
                bit = w & -w
                w ^= bit
                m = b & -(bit << 1) if a == b else b
                if m:
                    row = he[bit.bit_length() - 1]
                    row[m] = row.get(m, 0) + c
        self.held_pairs.clear()
        out = self.acc.per_edge
        tmp = [0] * len(verts)
        for a, row in he.items():
            seen = 0
            for mask, c in row.items():
                seen |= mask
                while mask:
                    b = mask & -mask
                    tmp[b.bit_length() - 1] += c
                    mask ^= b
            u = verts[a]
            while seen:
                b = seen & -seen
                x = b.bit_length() - 1
                seen ^= b
                v = verts[x]
                key = (u, v) if u < v else (v, u)
                out[key] = out.get(key, 0) + tmp[x]
                tmp[x] = 0
        he.clear()


def _pivot_search(rn: RootNeighborhood, spec: MotifSpec, prune: bool, run: Run,
                  probe=None, debug_checks: bool = False) -> None:
    q_lo, q_hi = spec.q_low, spec.q_high
    adj = rn.adj
    close_lo = q_hi - 1 >= q_lo
    counts, stats = run.counts, run.stats
    scratch = _RootLocal(rn, run.local) if run.local is not None else None
    rules = FAMILY_RULES[spec.family]
    state = rules.root_state(rn, spec.s)
    R = state.R
    push, pop = state.push, state.pop
    filter_candidates, filter_pivots = state.filter_candidates, state.filter_pivots
    leaf_classes = state.leaf_classes
    select_pivot = rules.select_pivot
    bound = rules.bound if prune else None
    keeps_counts = state.keeps_counts
    # read at run time: a pool worker's chunk sets it before the search
    fault = pruning.BOUND_FAULT

    def comb_leaf(nR: int, D: int, nD: int) -> None:
        masks, sizes, budget = leaf_classes(D, nD)
        credits, tot, ones, two = _leaf(nR, sizes, budget, q_lo, q_hi)
        for size, c in credits:
            counts[size] += c
        stats.comb_credits += tot
        if scratch is not None and tot:
            scratch.credit_leaf(R, tot, masks, ones, two)

    def rec(C: int, D: int) -> None:
        stats.nodes += 1
        nR, nD = len(R), D.bit_count()
        if nR + C.bit_count() + nD < q_lo:
            return
        if debug_checks:
            assert all(not (D & ~adj[d] & ~(1 << d)) for d in iter_bits(D)), \
                "accumulated pivot set must induce a clique"
            state.check_live(C | D)
        if nR == q_hi - 1:
            xs = C | D
            n_new = xs.bit_count()
            counts[q_hi] += n_new
            stats.closure_credits += n_new
            if close_lo:
                counts[q_hi - 1] += 1
                stats.closure_credits += 1
            if scratch is not None:
                scratch.credit_leaf(R, n_new + close_lo, (xs,), (1,), ((0,),))
            return
        if C == 0:
            comb_leaf(nR, D, nD)
            return
        dec = select_pivot(state, C)
        if probe is not None:
            probe(rn, R, C, dec)
        rec(dec.C1, D if dec.pivot is None else D | (1 << dec.pivot))
        # a bound is at least nR + 1 - fault (see the module docstring)
        may_prune = bound is not None and nR + 1 + nD - fault < q_lo
        # the pivot leaves the branching side but stays a candidate: results
        # pairing it with a branch vertex are listed inside that branch
        Crem = C
        w = dec.C2
        while w:
            b = w & -w
            v = b.bit_length() - 1
            w ^= b
            Crem ^= b
            stats.branch_iters += 1
            if may_prune:
                if bound(state, v, Crem) + nD < q_lo:
                    stats.bound_pruned += 1
                    continue
            elif debug_checks and bound is not None:
                assert bound(state, v, Crem) + nD >= q_lo, "a skipped bound would prune"
            if keeps_counts:
                if debug_checks:
                    assert state.admits(v), "push would exceed the family's budget"
                push(v, Crem | D)
            else:
                push(v)
            if scratch is None:
                rec(filter_candidates(Crem, v), filter_pivots(D, v))
            else:
                found = scratch.found
                rec(filter_candidates(Crem, v), filter_pivots(D, v))
                scratch.credit_member(R, scratch.found - found)
            pop()

    rec(rn.cand_mask, 0)
    if scratch is not None:
        scratch.credit_member(R, scratch.found)  # the root
        scratch.flush()
    # rec holds itself through its closure: dropping the name frees this
    # root's state now instead of at the next cyclic garbage collection
    del rec


def count_by_pivot(g: Graph, spec: MotifSpec, *, prune: bool = True, threads: int = 1,
                   local: str | None = None, order: DegeneracyOrder | None = None,
                   probe=None, debug_checks: bool = False) -> Run:
    """Exact counts for every size in the spec's range from one traversal.

    local may be 'vertex', 'edge', or 'both' to also collect local counts.
    """
    spec.validate()
    if local not in (None, "vertex", "edge", "both"):
        raise ValueError(f"unknown local granularity {local!r}")
    search = _pivot_search
    if probe is not None or debug_checks:
        if threads > 1:
            raise ValueError("probe/debug runs require threads=1")
        search = partial(_pivot_search, probe=probe, debug_checks=debug_checks)
    return run_over_roots(search, g, spec, prune=prune, threads=threads, order=order,
                          local=local)
