"""Shared per-root driver: candidate preparation, stats, parallel map, counters."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import pruning
from .graph import (DegeneracyOrder, Graph, RootNeighborhood,
                    build_root_neighborhood, collect_candidates, degeneracy_order)
from .motifs import MotifSpec
from .pruning import _induced_core

# Fault-injection knob: when set, any counter exceeding this value raises.
# Simulates a fixed-width accumulator; normal runs use unbounded integers.
COUNTER_LIMIT: int | None = None


class CounterOverflowError(OverflowError):
    """A counter exceeded the injected fixed-width limit."""


def check_counter(value: int) -> None:
    if COUNTER_LIMIT is not None and value > COUNTER_LIMIT:
        raise CounterOverflowError(
            f"count {value} exceeds the configured counter limit {COUNTER_LIMIT}")


@dataclass
class RunStats:
    """Search statistics, summed over roots.

    cand_pre is the raw candidate count before reduction, a property of the
    graph alone: m for s = 0 and the number of vertex pairs within distance 2
    (Graph.pairs_within_two) for s >= 1. Over a full order it is the sum of
    the roots' higher-rank neighbors or higher-rank 2-hop balls, each pair
    counted at its lower-rank end; run_over_roots sets it once per run, so a
    run over a sub-order, or a pruned run that skips roots, reports the whole
    graph's total too. cand_now sums the candidates each visited root keeps
    after reduction (all of them with pruning off); a pruned run does not
    visit the roots outside the (q_low - 1 - s)-core (see run_over_roots),
    and they add nothing. nodes counts the search nodes of the visited roots
    only, so a skipped root adds no node either.
    """

    nodes: int = 0
    branch_iters: int = 0
    bound_pruned: int = 0
    cand_pre: int = 0
    cand_now: int = 0
    closure_credits: int = 0
    comb_credits: int = 0
    wall_time: float = 0.0

    def merge(self, other: "RunStats") -> None:
        self.nodes += other.nodes
        self.branch_iters += other.branch_iters
        self.bound_pruned += other.bound_pruned
        self.cand_pre += other.cand_pre
        self.cand_now += other.cand_now
        self.closure_credits += other.closure_credits
        self.comb_credits += other.comb_credits

    @property
    def reduction_rate(self) -> float | None:
        if self.cand_pre == 0:
            return None
        return (self.cand_pre - self.cand_now) / self.cand_pre

    @property
    def combinatorial_fraction(self) -> float | None:
        total = self.closure_credits + self.comb_credits
        if total == 0:
            return None
        return self.comb_credits / total


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
class Run:
    """The result of either engine over the roots it visits, or over one chunk of them."""

    spec: MotifSpec
    counts: dict[int, int]
    stats: RunStats
    pruned: bool
    local: LocalCounts | None = None

    @classmethod
    def empty(cls, n: int, spec: MotifSpec, prune: bool, local: str | None) -> "Run":
        """Zero counts; local is None, 'vertex', 'edge' or 'both'."""
        acc = None
        if local is not None:
            acc = LocalCounts(per_vertex=[0] * n if local in ("vertex", "both") else None,
                              per_edge={} if local in ("edge", "both") else None)
        return cls(spec, {q: 0 for q in spec.sizes}, RunStats(), prune, acc)

    def merge(self, other: "Run") -> None:
        for q, c in other.counts.items():
            self.counts[q] += c
        self.stats.merge(other.stats)
        if self.local is not None and other.local is not None:
            self.local.merge(other.local)

    def total(self, q: int) -> int:
        return self.counts.get(q, 0)

    @property
    def count(self) -> int:
        """The count of a single-size run."""
        (count,) = self.counts.values()
        return count


class RunConfigError(ValueError):
    """A run parameter (such as HCS_THREADS) is invalid."""


def resolve_threads(requested: int | None) -> int:
    """The worker count: requested if given, else HCS_THREADS, else all cores.

    A count below 1 from either source is a RunConfigError.
    """
    source = "the thread count"
    if requested is None:
        env = os.environ.get("HCS_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            requested = int(env)
        except ValueError:
            raise RunConfigError(f"HCS_THREADS must be an integer, got {env!r}") from None
        source = "HCS_THREADS"
    if requested < 1:
        raise RunConfigError(f"{source} must be at least 1, got {requested}")
    return requested


def prepare_root(g: Graph, order: DegeneracyOrder, root: int, spec: MotifSpec,
                 prune: bool, stats: RunStats) -> RootNeighborhood | None:
    """Collect, optionally reduce, and assemble one root's search universe.

    Two-hop candidates only exist for s >= 1: with s = 0 a root/candidate
    non-edge already exhausts every budget. Range specs reduce with q_low,
    the weakest target in the range. A root whose candidates cannot reach
    q_low (1 + |candidates| < q_low) gets no universe: it returns None, and
    only its cand_now goes into stats.

    With pruning off the universe is the root's whole higher-rank 2-hop ball
    (collect_candidates). With pruning on it is built from the reduced core
    (_reduce_from_core) and gives the same sets as collect_candidates then
    reduce_candidates, without building the ball.
    """
    if prune:
        one, two = _reduce_from_core(g, order, root, spec)
    else:
        one, two = collect_candidates(g, order, root, spec.s >= 1)
    stats.cand_now += len(one) + len(two)
    if 1 + len(one) + len(two) < spec.q_low:
        return None
    return build_root_neighborhood(g, root, one, two)


def _reduce_from_core(g: Graph, order: DegeneracyOrder, root: int,
                      spec: MotifSpec) -> tuple[list[int], list[int]]:
    """A root's reduced (one, two).

    The higher-rank neighbors are peeled to the core. Each 2-hop survivor
    needs `need` neighbors in that core, at least one on every valid spec,
    so it lies on some core member's neighbor list: counting, over those
    lists, the hits on each higher-rank non-neighbor of the root finds every
    survivor.
    """
    s, family = spec.s, spec.family
    one, _ = collect_candidates(g, order, root, False)
    core_k, need = pruning.thresholds(family, spec.q_low, s)
    if core_k > 0:
        one = _induced_core(g, one, core_k)
    if family == "clique" or s == 0 or len(one) < need:
        return one, []
    rank = order.rank_list
    r = rank[root]
    adj = g.nbrs
    near_set = set(adj[root])
    hits: dict[int, int] = {}
    for u in one:
        for w in adj[u]:
            if rank[w] > r and w not in near_set:
                hits[w] = hits.get(w, 0) + 1
    return one, [w for w, c in hits.items() if c >= need]


def _run_chunk(bound_fault: int, root_fn, g: Graph, order: DegeneracyOrder,
               spec: MotifSpec, prune: bool, local: str | None, roots: list[int]) -> Run:
    """Run root_fn over roots into a fresh Run. Pool workers may outlive the
    call that started them, so each chunk brings the run's bound fault."""
    pruning.BOUND_FAULT = bound_fault
    run = Run.empty(g.n, spec, prune, local)
    for root in roots:
        root_fn(g, order, root, spec, prune, run)
    return run


# One pool per process, kept across calls with the same thread count;
# concurrent.futures joins its workers at interpreter exit.
_pool: ProcessPoolExecutor | None = None
_pool_threads = 0


def _shared_pool(threads: int) -> ProcessPoolExecutor:
    global _pool, _pool_threads
    if _pool is None or _pool_threads != threads:
        _drop_pool()
        _pool = ProcessPoolExecutor(max_workers=threads)
        _pool_threads = threads
    return _pool


def _drop_pool() -> None:
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def run_over_roots(root_fn, g: Graph, spec: MotifSpec, *, prune: bool, threads: int,
                   order: DegeneracyOrder | None = None, local: str | None = None) -> Run:
    """Run root_fn(g, order, root, spec, prune, run) over the order's roots
    and return the merged Run, timed and checked against the counter limit.

    With pruning on and k = q_low - 1 - s > 0, only the roots whose core
    number is at least k are visited. That loses no result: every member of
    a result misses at most s of the other members, so it has at least
    q_low - 1 - s neighbors inside the result, and the whole result lies in
    the k-core. A result is found at its lowest-rank member, which is then a
    visited root, whatever the order. With pruning off every root is visited.

    The visited roots are processed in degeneracy-rank order; with
    threads == 1, or with fewer than 4 of them, the call runs inline
    (canonical recursion for debugging). Otherwise each of
    n = min(threads, #roots) workers gets one strided chunk of the visited
    roots, roots[k::n] for k < n, on the process's shared pool, with the
    run's bound fault.
    Roots are independent, and striding spreads the costly ones (the dense
    core that peels last on power-law graphs, the early roots of G(n, p))
    over every chunk; one chunk per worker pickles the graph and the order
    once per worker. Counts, stats and locals are sums, so the merged Run
    does not depend on the partition; cand_pre is set once, from the graph.
    Counts only grow, so the merged counts exceed the counter limit exactly
    when some chunk's did.
    """
    t0 = time.perf_counter()
    if order is None:
        order = degeneracy_order(g)
    roots = order.order
    k_core = spec.q_low - 1 - spec.s
    if prune and k_core > 0:
        roots = roots[order.core_numbers[roots] >= k_core]
    roots = roots.tolist()
    if threads <= 1 or len(roots) < 4:
        run = _run_chunk(pruning.BOUND_FAULT, root_fn, g, order, spec, prune, local, roots)
    else:
        run = Run.empty(g.n, spec, prune, local)
        n = min(threads, len(roots))
        pool = _shared_pool(threads)
        futures = []
        try:
            for k in range(n):
                futures.append(pool.submit(_run_chunk, pruning.BOUND_FAULT, root_fn, g, order,
                                           spec, prune, local, roots[k::n]))
            for f in futures:
                run.merge(f.result())
        except BrokenProcessPool:
            _drop_pool()
            raise
        finally:
            for f in futures:
                f.cancel()
    run.stats.cand_pre = g.pairs_within_two if spec.s >= 1 else g.m
    check_counter(max(run.counts.values(), default=0))
    run.stats.wall_time = time.perf_counter() - t0
    return run
