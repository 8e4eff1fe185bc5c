"""Pivot-based counting: lists only seed results and credits the rest
combinatorially from an accumulated pivot set D.

Every node splits its candidates into a hold-out side C1 = N(u_p) ∩ C and a
branching side C2. An admitted pivot joins D instead of being branched on;
at leaves, subsets of D complete the current set R without being listed:

* clique: D is pruned to N(v) on every branch, so any k of D extend R;
* dclique: D always induces a clique, so a k-subset H is valid exactly when
  its members' deficiencies fit the remaining edge budget (0/1 knapsack);
* plex: pivots are admitted only under a slack condition that keeps every
  k-subset of D valid at every reachable leaf.

One traversal yields counts for all sizes in [q_low, q_high] and, on demand,
per-vertex/per-edge local counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .graph import DegeneracyOrder, Graph, RootNeighborhood
from .motifs import DcliqueState, MotifSpec, PlexState
from .pruning import upper_bound_dclique, upper_bound_plex
from .runner import RunStats, check_counter, prepare_root, run_over_roots


def binom(n: int, k: int) -> int:
    """C(n, k), and 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def knapsack_table(weights: list[int], budget: int, k_max: int) -> list[list[int]]:
    """dp[j][b] = number of j-subsets of `weights` with weight sum exactly b."""
    budget = max(budget, 0)
    dp = [[0] * (budget + 1) for _ in range(k_max + 1)]
    dp[0][0] = 1
    for w in weights:
        if w > budget:
            continue
        lo = w if w else 0
        for j in range(k_max, 0, -1):
            row, prev = dp[j], dp[j - 1]
            for b in range(budget, lo - 1, -1):
                if prev[b - w]:
                    row[b] += prev[b - w]
    return dp


def knapsack_remove(dp: list[list[int]], w: int, budget: int) -> list[list[int]]:
    """Inverse of inserting one item of weight w into the counting DP."""
    out = [row[:] for row in dp]
    if w > budget:
        return out
    for j in range(1, len(out)):
        row, prev = out[j], out[j - 1]
        for b in range(w, budget + 1):
            row[b] -= prev[b - w]
    return out


def knapsack_counts(weights: list[int], budget: int, k: int) -> int:
    """Number of k-subsets whose weights sum to at most budget."""
    if k < 0 or k > len(weights):
        return 0
    if budget < 0:
        return 0
    dp = knapsack_table(weights, budget, k)
    return sum(dp[k])


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


def plex_pivot_qualifiers(state: PlexState, C: int) -> list[int]:
    """Candidates admissible as plex pivots.

    u qualifies when every member it misses keeps slack: m̄(v, R + C) <= s-1
    for all v in R \\ N(u). Everything admitted below u's hold-out side then
    lies inside N(u) and is already charged against that slack, so u extends
    every result credited from the accumulated set.
    """
    s = state.s
    As = state.As
    adj = state.adj
    nC = C.bit_count()

    heavy_r = 0
    for v in state.R:
        if len(As[v]) + (nC - (adj[v] & C).bit_count()) > s - 1:
            heavy_r |= 1 << v
    if heavy_r == 0:
        return list(_iter_bits(C))
    out = []
    w = C
    while w:
        b = w & -w
        u = b.bit_length() - 1
        w ^= b
        if not (heavy_r & ~adj[u]):
            out.append(u)
    return out


def select_pivot_plex(state: PlexState, C: int) -> PivotDecision:
    """Maximum-degree qualifier if any; otherwise split on the maximum-degree
    vertex without admitting it (it stays in the branching side)."""
    adj = state.adj
    qual = plex_pivot_qualifiers(state, C)
    if qual:
        best, best_deg = -1, -1
        for u in qual:
            d = (adj[u] & C).bit_count()
            if d > best_deg:
                best, best_deg = u, d
        C1 = adj[best] & C
        return PivotDecision(best, C1, C & ~C1 & ~(1 << best))
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
    return PivotDecision(None, C1, C & ~C1)


@dataclass
class LocalCounts:
    """Exact per-vertex and/or per-edge result counts (dense vertex ids)."""

    per_vertex: list[int] | None = None
    per_edge: dict[tuple[int, int], int] | None = None

    def merge(self, other: "LocalCounts") -> None:
        if self.per_vertex is not None and other.per_vertex is not None:
            for i, c in enumerate(other.per_vertex):
                self.per_vertex[i] += c
        if self.per_edge is not None and other.per_edge is not None:
            for k, c in other.per_edge.items():
                self.per_edge[k] = self.per_edge.get(k, 0) + c


@dataclass
class PivotRun:
    spec: MotifSpec
    counts: dict[int, int]
    stats: RunStats
    pruned: bool
    local: LocalCounts | None = None

    def total(self, q: int) -> int:
        return self.counts.get(q, 0)


class _RootLocal:
    """Per-root local-count scratch in local ids, mapped to dense ids on merge."""

    __slots__ = ("verts", "adj", "want_v", "want_e", "pv", "pe")

    def __init__(self, rn: RootNeighborhood, want_v: bool, want_e: bool):
        self.verts = rn.verts.tolist() + [int(rn.root)]
        self.adj = rn.adj
        self.want_v = want_v
        self.want_e = want_e
        self.pv = [0] * len(self.verts) if want_v else None
        self.pe: dict[tuple[int, int], int] | None = {} if want_e else None

    def credit_set_members(self, R: list[int], extra: int | None, amount: int) -> None:
        """One concrete result R (+extra): every member and induced edge gains amount."""
        if self.want_v:
            pv = self.pv
            for r in R:
                pv[r] += amount
            if extra is not None:
                pv[extra] += amount
        if self.want_e:
            members = R if extra is None else R + [extra]
            self._edges_within(members, amount)

    def _edges_within(self, members: list[int], amount: int) -> None:
        adj = self.adj
        pe = self.pe
        for i, u in enumerate(members):
            au = adj[u]
            for v in members[i + 1:]:
                if (au >> v) & 1:
                    key = (u, v) if u < v else (v, u)
                    pe[key] = pe.get(key, 0) + amount

    def credit_combinatorial(self, R: list[int], D: list[int], per_d_total,
                             per_d_one, per_d_two) -> None:
        """Credit all D-completions at once.

        per_d_total: results counted at this leaf (all k in range summed);
        per_d_one(d): results containing member d; per_d_two(d, d'): both.
        """
        if per_d_total == 0:
            return
        if self.want_v:
            pv = self.pv
            for r in R:
                pv[r] += per_d_total
            for d in D:
                pv[d] += per_d_one(d)
        if self.want_e:
            adj = self.adj
            pe = self.pe
            for i, u in enumerate(R):
                au = adj[u]
                for v in R[i + 1:]:
                    if (au >> v) & 1:
                        key = (u, v) if u < v else (v, u)
                        pe[key] = pe.get(key, 0) + per_d_total
            for d in D:
                c1 = per_d_one(d)
                if c1 == 0:
                    continue
                ad = adj[d]
                for r in R:
                    if (ad >> r) & 1:
                        key = (d, r) if d < r else (r, d)
                        pe[key] = pe.get(key, 0) + c1
            for i, d in enumerate(D):
                for d2 in D[i + 1:]:
                    c2 = per_d_two(d, d2)
                    if c2:
                        key = (d, d2) if d < d2 else (d2, d)
                        pe[key] = pe.get(key, 0) + c2

    def flush_into(self, acc: LocalCounts) -> None:
        """Map local ids to dense ids and add into the run-level accumulator."""
        verts = self.verts
        if self.want_v:
            pv = acc.per_vertex
            for i, c in enumerate(self.pv):
                if c:
                    pv[verts[i]] += c
        if self.want_e:
            pe = acc.per_edge
            for (a, b), c in self.pe.items():
                u, v = verts[a], verts[b]
                key = (u, v) if u < v else (v, u)
                pe[key] = pe.get(key, 0) + c

    def credit_closures(self, R: list[int], xs: list[int]) -> None:
        """Closure leaf: each x in xs completes R into one result."""
        if not xs:
            return
        cnt = len(xs)
        if self.want_v:
            pv = self.pv
            for r in R:
                pv[r] += cnt
            for x in xs:
                pv[x] += 1
        if self.want_e:
            self._edges_within(R, cnt)
            adj = self.adj
            pe = self.pe
            for x in xs:
                ax = adj[x]
                for r in R:
                    if (ax >> r) & 1:
                        key = (x, r) if x < r else (r, x)
                        pe[key] = pe.get(key, 0) + 1


def _iter_bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _pivot_root_clique(rn: RootNeighborhood, q_lo: int, q_hi: int,
                       counts: dict[int, int], stats: RunStats,
                       scratch: _RootLocal | None, probe=None) -> None:
    adj = rn.adj
    R = [rn.root_local]

    def comb_leaf(D: int) -> None:
        nR, nD = len(R), D.bit_count()
        k_lo = max(0, q_lo - nR)
        k_hi = min(nD, q_hi - nR)
        if k_hi < k_lo:
            return
        tot = 0
        for k in range(k_lo, k_hi + 1):
            c = binom(nD, k)
            counts[nR + k] += c
            tot += c
        stats.comb_credits += tot
        if scratch is not None:
            one = sum(binom(nD - 1, k - 1) for k in range(k_lo, k_hi + 1))
            two = sum(binom(nD - 2, k - 2) for k in range(k_lo, k_hi + 1))
            scratch.credit_combinatorial(R, list(_iter_bits(D)), tot,
                                         lambda d: one, lambda a, b: two)

    def rec(C: int, D: int) -> None:
        stats.nodes += 1
        nR = len(R)
        if nR + C.bit_count() + D.bit_count() < q_lo:
            return
        if nR == q_hi - 1:
            xs = C | D
            n_new = xs.bit_count()
            counts[q_hi] += n_new
            stats.closure_credits += n_new
            if q_hi - 1 >= q_lo:
                counts[q_hi - 1] += 1
                stats.closure_credits += 1
            if scratch is not None:
                scratch.credit_closures(R, list(_iter_bits(xs)))
                if q_hi - 1 >= q_lo:
                    scratch.credit_set_members(R, None, 1)
            return
        if C == 0:
            comb_leaf(D)
            return
        best, best_deg = -1, -1
        for u in _iter_bits(C):
            d = (adj[u] & C).bit_count()
            if d > best_deg:
                best, best_deg = u, d
        if probe is not None:
            probe(rn, R, C, PivotDecision(best, adj[best] & C,
                                          C & ~adj[best] & ~(1 << best)))
        C1 = adj[best] & C
        rec(C1, (D | (1 << best)))
        Crem = C & ~(1 << best)
        for v in _iter_bits(Crem & ~adj[best]):
            bv = 1 << v
            Crem ^= bv
            stats.branch_iters += 1
            Cv = adj[v] & Crem
            Dv = adj[v] & D
            R.append(v)
            rec(Cv, Dv)
            R.pop()

    rec(rn.cand_mask, 0)


def _pivot_root_dclique(rn: RootNeighborhood, s: int, q_lo: int, q_hi: int,
                        counts: dict[int, int], stats: RunStats,
                        scratch: _RootLocal | None, prune: bool,
                        probe=None, debug_checks: bool = False) -> None:
    adj = rn.adj
    state = DcliqueState(adj, s)
    state.push(rn.root_local)
    A = state.A
    R = state.R
    D: list[int] = []

    def comb_leaf() -> None:
        nR, nD = len(R), len(D)
        k_lo = max(0, q_lo - nR)
        k_hi = min(nD, q_hi - nR)
        if k_hi < k_lo:
            return
        budget = s - state.total_missing
        weights = [A[d] for d in D]
        dp = knapsack_table(weights, budget, k_hi)
        tot_k = [sum(dp[k]) for k in range(k_hi + 1)]
        tot = 0
        for k in range(k_lo, k_hi + 1):
            counts[nR + k] += tot_k[k]
            tot += tot_k[k]
        stats.comb_credits += tot
        if scratch is not None and tot:
            removed = {d: knapsack_remove(dp, A[d], budget) for d in D}

            def one(d: int) -> int:
                rb = budget - A[d]
                if rb < 0:
                    return 0
                dpw = removed[d]
                return sum(sum(dpw[k - 1][:rb + 1])
                           for k in range(max(k_lo, 1), k_hi + 1))

            def two(d: int, d2: int) -> int:
                rb = budget - A[d] - A[d2]
                if rb < 0:
                    return 0
                dpw = knapsack_remove(removed[d], A[d2], budget)
                return sum(sum(dpw[k - 2][:rb + 1])
                           for k in range(max(k_lo, 2), k_hi + 1))

            scratch.credit_combinatorial(R, D, tot, one, two)

    def rec(C: int) -> None:
        stats.nodes += 1
        nR, nD = len(R), len(D)
        if nR + C.bit_count() + nD < q_lo:
            return
        if debug_checks:
            assert all((adj[D[i]] >> D[j]) & 1
                       for i in range(nD) for j in range(i + 1, nD)), \
                "accumulated pivot set must induce a clique"
        if nR == q_hi - 1:
            budget = s - state.total_missing
            xs = list(_iter_bits(C)) + [d for d in D if A[d] <= budget]
            counts[q_hi] += len(xs)
            stats.closure_credits += len(xs)
            if q_hi - 1 >= q_lo:
                counts[q_hi - 1] += 1
                stats.closure_credits += 1
            if scratch is not None:
                scratch.credit_closures(R, xs)
                if q_hi - 1 >= q_lo:
                    scratch.credit_set_members(R, None, 1)
            return
        if C == 0:
            comb_leaf()
            return
        dec = select_pivot_dclique(state, C)
        if probe is not None:
            probe(rn, R, C, dec)
        D.append(dec.pivot)
        rec(dec.C1)
        D.pop()
        # the pivot leaves the branching side but stays a candidate: results
        # pairing it with a branch vertex are listed inside that branch
        Crem = C
        for v in _iter_bits(dec.C2):
            bv = 1 << v
            Crem ^= bv
            stats.branch_iters += 1
            if prune and upper_bound_dclique(state, v, Crem) + nD < q_lo:
                stats.bound_pruned += 1
                continue
            state.push(v)
            Cv = state.filter_candidates(Crem)
            rec(Cv)
            state.pop()

    rec(rn.cand_mask)


def _pivot_root_plex(rn: RootNeighborhood, s: int, q_lo: int, q_hi: int,
                     counts: dict[int, int], stats: RunStats,
                     scratch: _RootLocal | None, prune: bool,
                     probe=None) -> None:
    adj = rn.adj
    state = PlexState(adj, s)
    state.push(rn.root_local)
    R = state.R
    D: list[int] = []

    def comb_leaf() -> None:
        nR, nD = len(R), len(D)
        k_lo = max(0, q_lo - nR)
        k_hi = min(nD, q_hi - nR)
        if k_hi < k_lo:
            return
        tot = 0
        for k in range(k_lo, k_hi + 1):
            c = binom(nD, k)
            counts[nR + k] += c
            tot += c
        stats.comb_credits += tot
        if scratch is not None and tot:
            one = sum(binom(nD - 1, k - 1) for k in range(max(k_lo, 1), k_hi + 1))
            two = sum(binom(nD - 2, k - 2) for k in range(max(k_lo, 2), k_hi + 1))
            scratch.credit_combinatorial(R, D, tot, lambda d: one, lambda a, b: two)

    def rec(C: int) -> None:
        stats.nodes += 1
        nR, nD = len(R), len(D)
        if nR + C.bit_count() + nD < q_lo:
            return
        if nR == q_hi - 1:
            xs = list(_iter_bits(C)) + D
            counts[q_hi] += len(xs)
            stats.closure_credits += len(xs)
            if q_hi - 1 >= q_lo:
                counts[q_hi - 1] += 1
                stats.closure_credits += 1
            if scratch is not None:
                scratch.credit_closures(R, xs)
                if q_hi - 1 >= q_lo:
                    scratch.credit_set_members(R, None, 1)
            return
        if C == 0:
            comb_leaf()
            return
        dec = select_pivot_plex(state, C)
        if probe is not None:
            probe(rn, R, C, dec)
        if dec.pivot is not None:
            D.append(dec.pivot)
            rec(dec.C1)
            D.pop()
        else:
            rec(dec.C1)
        # branch candidates keep the pivot (it only leaves the branching side)
        Crem = C
        budget = None
        if prune:
            budget = sum(s - len(state.As[v]) for v in R)
        for v in _iter_bits(dec.C2):
            bv = 1 << v
            Crem ^= bv
            stats.branch_iters += 1
            if prune and upper_bound_plex(state, v, Crem, budget) + nD < q_lo:
                stats.bound_pruned += 1
                continue
            state.push(v)
            Cv = state.filter_candidates(Crem, v)
            rec(Cv)
            state.pop()

    rec(rn.cand_mask)


def _pivot_worker(g: Graph, order: DegeneracyOrder, spec: MotifSpec, prune: bool,
                  roots: list[int], want_v: bool = False, want_e: bool = False,
                  probe=None, debug_checks: bool = False):
    stats = RunStats()
    counts = {q: 0 for q in spec.sizes}
    acc = None
    if want_v or want_e:
        acc = LocalCounts(per_vertex=[0] * g.n if want_v else None,
                          per_edge={} if want_e else None)
    for root in roots:
        rn = prepare_root(g, order, root, spec, prune, stats)
        scratch = _RootLocal(rn, want_v, want_e) if acc is not None else None
        if spec.family == "clique":
            _pivot_root_clique(rn, spec.q_low, spec.q_high, counts, stats, scratch, probe)
        elif spec.family == "dclique":
            _pivot_root_dclique(rn, spec.s, spec.q_low, spec.q_high, counts, stats,
                                scratch, prune, probe, debug_checks)
        else:
            _pivot_root_plex(rn, spec.s, spec.q_low, spec.q_high, counts, stats,
                             scratch, prune, probe)
        if scratch is not None:
            scratch.flush_into(acc)
        check_counter(max(counts.values(), default=0))
    return counts, stats, acc


def count_by_pivot(g: Graph, spec: MotifSpec, *, prune: bool = True, threads: int = 1,
                   local: str | None = None, order: DegeneracyOrder | None = None,
                   probe=None, debug_checks: bool = False) -> PivotRun:
    """Exact counts for every size in the spec's range from one traversal.

    local may be 'vertex', 'edge', or 'both' to also collect local counts.
    """
    spec.validate()
    if local not in (None, "vertex", "edge", "both"):
        raise ValueError(f"unknown local granularity {local!r}")
    want_v = local in ("vertex", "both")
    want_e = local in ("edge", "both")
    if (probe is not None or debug_checks) and threads > 1:
        raise ValueError("probe/debug runs require threads=1")
    t0 = time.perf_counter()
    stats = RunStats()
    counts = {q: 0 for q in spec.sizes}
    acc = None
    if want_v or want_e:
        acc = LocalCounts(per_vertex=[0] * g.n if want_v else None,
                          per_edge={} if want_e else None)
    if g.n:
        from functools import partial
        worker = partial(_pivot_worker, want_v=want_v, want_e=want_e,
                         probe=probe, debug_checks=debug_checks)
        for pcounts, pstats, pacc in run_over_roots(worker, g, spec, prune=prune,
                                                    threads=threads, order=order):
            for q, c in pcounts.items():
                counts[q] += c
            stats.merge(pstats)
            if acc is not None and pacc is not None:
                acc.merge(pacc)
            check_counter(max(counts.values(), default=0))
    stats.wall_time = time.perf_counter() - t0
    return PivotRun(spec, counts, stats, prune, acc)


def count_local(g: Graph, spec: MotifSpec, granularity: str, *, prune: bool = True,
                threads: int = 1, order: DegeneracyOrder | None = None) -> LocalCounts:
    """Per-vertex or per-edge result counts over the spec's size range."""
    run = count_by_pivot(g, spec, prune=prune, threads=threads, local=granularity,
                         order=order)
    return run.local
