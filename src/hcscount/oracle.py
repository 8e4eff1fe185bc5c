"""Brute-force ground truth for all counting modes at desk scale.

The oracle is definition-only: it grows vertex sets in ascending-id order,
keeping a set alive exactly while it satisfies the family definition (valid
because the families are hereditary), and restricts candidates to the
two-hop ball of the minimum-id vertex (valid because admissible parameters
force diameter at most 2). It shares only Graph and the definitional
membership helpers with the engines.

The DFS keeps, for every vertex it may still read, its number of
non-neighbors in the current set S. Pushing v walks only v's non-neighbors
among the members of S and the candidates above v that stay live below it
(none when the child is at the largest size), and its pop walks the same
mask back; a root's push walks only its two-hop universe. So a push costs
what the live candidates cost, not n. The ids of the edges inside S are
kept on a stack (a push appends the ids of v's edges to the members of S,
its pop truncates), so a visit credits its edges without testing the pairs
of S. On sparse
random_gnp(150, 0.04, seed=1) and random_gnp(250, 0.02, seed=1),
sweep(g, 2, 7) took 0.62 s and 0.49 s of CPU, against 2.8 s and 5.6 s with
a full walk of n - 1 bits per push and a pair test per visit (best of two,
2 vCPUs, CPython 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph
from .motifs import MotifSpec, is_hcs

MAX_ORACLE_VERTICES = 400


class OracleInfeasibleError(RuntimeError):
    """Instance too large for exhaustive enumeration."""


@dataclass
class OracleResult:
    totals: dict[int, int]
    per_vertex: list[int]
    per_edge: dict[tuple[int, int], int]
    sets: list[tuple[int, ...]] | None = None

    def total(self, q: int) -> int:
        return self.totals.get(q, 0)


def _adjacency_masks(g: Graph) -> list[int]:
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleInfeasibleError(
            f"oracle refuses n={g.n} > {MAX_ORACLE_VERTICES} vertices")
    return g.adjacency_masks()


def _root_universe(adj: list[int], root: int, n: int) -> int:
    """Higher-id vertices within two hops of root (any middle vertex)."""
    higher = ((1 << n) - 1) & ~((1 << (root + 1)) - 1)
    one = adj[root]
    pooled = 0
    w = adj[root]
    while w:
        b = w & -w
        pooled |= adj[b.bit_length() - 1]
        w ^= b
    two = pooled & ~adj[root] & ~(1 << root)
    return (one | two) & higher


def _enumerate(g: Graph, edge_ids: list[tuple[int, int]], family: str, s: int,
               q_max: int, visit) -> None:
    """DFS over valid sets; calls visit(S, mm, defs, E) for every valid S, |S| >= 1.

    mm is the current missing-edge total. defs[v] is m̄(v, S) for every member
    v of S and every vertex that may still join S below; other entries are
    stale. E holds the positions in edge_ids of the edges inside S.
    Extensions proceed in ascending id, so each set is reached exactly once.
    """
    adj = _adjacency_masks(g)
    n = g.n
    full = (1 << n) - 1
    nonadj = [full & ~a & ~(1 << i) for i, a in enumerate(adj)]
    # per-vertex slot of each incident edge, for O(1) pair-to-id lookups
    eidx: list[dict[int, int]] = [{} for _ in range(n)]
    for i, (u, v) in enumerate(edge_ids):
        eidx[u][v] = i
        eidx[v][u] = i
    defs = [0] * n
    S: list[int] = []
    E: list[int] = []

    plex_like = family == "plex"
    budget = s if family != "clique" else 0

    def dfs(ext: int, mm: int, sat: int, s_bits: int) -> None:
        visit(S, mm, defs, E)
        if len(S) == q_max:
            return
        # a child at q_max reads only its members' deficiencies, not sat
        deeper = len(S) + 1 < q_max
        w = ext
        while w:
            b = w & -w
            v = b.bit_length() - 1
            w ^= b
            if plex_like:
                # v must fit its own budget and spare the saturated members
                if defs[v] > budget or (nonadj[v] & sat):
                    continue
            else:
                if mm + defs[v] > budget:
                    continue
            # w is now ext above v, the child's ext
            walk = nonadj[v] & ((w if deeper else 0) | s_bits)
            aw = walk
            while aw:
                ab = aw & -aw
                defs[ab.bit_length() - 1] += 1
                aw ^= ab
            top = len(E)
            row = eidx[v]
            aw = adj[v] & s_bits
            while aw:
                ab = aw & -aw
                E.append(row[ab.bit_length() - 1])
                aw ^= ab
            new_sat = sat
            if plex_like and deeper:
                if defs[v] == budget:
                    new_sat |= b
                aw = walk & s_bits
                while aw:
                    ab = aw & -aw
                    if defs[ab.bit_length() - 1] == budget:
                        new_sat |= ab
                    aw ^= ab
            S.append(v)
            dfs(w, mm + defs[v], new_sat, s_bits | b)
            S.pop()
            del E[top:]
            aw = walk
            while aw:
                ab = aw & -aw
                defs[ab.bit_length() - 1] -= 1
                aw ^= ab

    for root in range(n):
        universe = _root_universe(adj, root, n)
        walk = nonadj[root] & universe
        aw = walk
        while aw:
            ab = aw & -aw
            defs[ab.bit_length() - 1] += 1
            aw ^= ab
        S.append(root)
        sat0 = (1 << root) if (plex_like and budget == 0) else 0
        dfs(universe, 0, sat0, 1 << root)
        S.pop()
        aw = walk
        while aw:
            ab = aw & -aw
            defs[ab.bit_length() - 1] -= 1
            aw ^= ab


def brute_force_count(g: Graph, spec: MotifSpec, collect_sets: bool = False) -> OracleResult:
    """Exhaustively count spec HCSs; tallies totals plus local counts."""
    spec.validate()
    totals: dict[int, int] = {q: 0 for q in spec.sizes}
    per_vertex = [0] * g.n
    edge_ids = g.edge_list()
    edge_acc = [0] * len(edge_ids)
    sets: list[tuple[int, ...]] | None = [] if collect_sets else None
    q_low, q_high = spec.q_low, spec.q_high

    def visit(S: list[int], mm: int, defs, E: list[int]) -> None:
        q = len(S)
        if not (q_low <= q <= q_high):
            return
        totals[q] += 1
        for u in S:
            per_vertex[u] += 1
        for j in E:
            edge_acc[j] += 1
        if sets is not None:
            sets.append(tuple(sorted(S)))

    _enumerate(g, edge_ids, spec.family, spec.s, spec.q_high, visit)
    per_edge = {e: c for e, c in zip(edge_ids, edge_acc) if c}
    return OracleResult(totals, per_vertex, per_edge, sets)


@dataclass
class SweepTally:
    """Per-(size, missing-class, max-deficiency) tallies from one enumeration pass."""

    s_cap: int
    edge_ids: list[tuple[int, int]]
    totals: dict[tuple[int, int, int], int] = field(default_factory=dict)
    verts: dict[tuple[int, int, int], list[int]] = field(default_factory=dict)
    edges: dict[tuple[int, int, int], list[int]] = field(default_factory=dict)

    def result_for(self, spec: MotifSpec, n: int) -> OracleResult:
        totals = {q: 0 for q in spec.sizes}
        per_vertex = [0] * n
        edge_acc = [0] * len(self.edge_ids)
        for (q, mmc, mdc), cnt in self.totals.items():
            if not (spec.q_low <= q <= spec.q_high):
                continue
            if spec.family == "clique" and mmc != 0:
                continue
            if spec.family == "dclique" and mmc > spec.s:
                continue
            if spec.family == "plex" and mdc > spec.s:
                continue
            totals[q] += cnt
            vt = self.verts[(q, mmc, mdc)]
            for u in range(n):
                per_vertex[u] += vt[u]
            for i, c in enumerate(self.edges[(q, mmc, mdc)]):
                edge_acc[i] += c
        per_edge = {self.edge_ids[i]: c for i, c in enumerate(edge_acc) if c}
        return OracleResult(totals, per_vertex, per_edge)


def sweep(g: Graph, s_max: int, q_max: int) -> SweepTally:
    """One enumeration pass at the loosest envelope (plex, s_max) bucketing
    every valid set by (size, clamped missing-edge total, max deficiency).

    Any (family, s <= s_max, q <= q_max) count is derivable from the buckets,
    since dcliques and cliques are plexes with the same or smaller budgets.
    """
    cap = s_max + 1
    n = g.n
    edge_ids = g.edge_list()
    m = len(edge_ids)
    tally = SweepTally(s_cap=s_max, edge_ids=edge_ids)
    totals, verts, edges = tally.totals, tally.verts, tally.edges

    def visit(S: list[int], mm: int, defs, E: list[int]) -> None:
        md = 0
        for u in S:
            if defs[u] > md:
                md = defs[u]
        key = (len(S), mm if mm < cap else cap, md)
        cnt = totals.get(key)
        if cnt is None:
            totals[key] = 1
            verts[key] = vt = [0] * n
            edges[key] = ed = [0] * m
        else:
            totals[key] = cnt + 1
            vt = verts[key]
            ed = edges[key]
        for u in S:
            vt[u] += 1
        for j in E:
            ed[j] += 1

    _enumerate(g, edge_ids, "plex", s_max, q_max, visit)
    return tally


def brute_force_pivot_check(g: Graph, spec: MotifSpec, R: list[int],
                            C1: list[int], u: int) -> bool:
    """Definitional pivot certificate: u must extend every valid hold-out result.

    Enumerates all H inside C1 (including the empty set) with R + H valid and
    verifies R + H + {u} stays valid.
    """
    if len(C1) > 25:
        raise OracleInfeasibleError(f"pivot check refuses |C1|={len(C1)} > 25")
    C1 = sorted(C1)

    def rec(H: list[int], start: int) -> bool:
        if not is_hcs(spec, g, R + H + [u]):
            return False
        for i in range(start, len(C1)):
            v = C1[i]
            if is_hcs(spec, g, R + H + [v]):
                H.append(v)
                ok = rec(H, i + 1)
                H.pop()
                if not ok:
                    return False
        return True

    if not is_hcs(spec, g, R):
        raise ValueError("R itself is not a valid HCS")
    return rec([], 0)
