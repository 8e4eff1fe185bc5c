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
    visit the roots outside the (q_low - 1 - s)-core (pruning.visited_roots),
    and they add nothing. nodes counts search nodes only: a root outside the
    core, or one whose prepared candidates cannot reach q_low, adds none.
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
    (pruning.reduce_root) and gives the same sets as collect_candidates then
    reduce_candidates, without building the ball.
    """
    if prune:
        one, two = pruning.reduce_root(g, order, root, spec)
    else:
        one, two = collect_candidates(g, order, root, spec.s >= 1)
    stats.cand_now += len(one) + len(two)
    if 1 + len(one) + len(two) < spec.q_low:
        return None
    return build_root_neighborhood(g, root, one, two)


def _run_chunk(bound_fault: int, search, g: Graph, order: DegeneracyOrder,
               spec: MotifSpec, prune: bool, local: str | None, roots: list[int]) -> Run:
    """Prepare each root and search the ones that get a universe, into a
    fresh Run; a cut root builds no search state. Pool workers may outlive
    the call that started them, so each chunk brings the run's bound fault."""
    pruning.BOUND_FAULT = bound_fault
    run = Run.empty(g.n, spec, prune, local)
    for root in roots:
        rn = prepare_root(g, order, root, spec, prune, run.stats)
        if rn is not None:
            search(rn, spec, prune, run)
    return run


# One pool per process, kept across calls with the same thread count;
# concurrent.futures joins its workers at interpreter exit.
_pool: ProcessPoolExecutor | None = None
_pool_threads = 0


def _shared_pool(threads: int) -> ProcessPoolExecutor:
    """The pool for a thread count. It starts at most one worker per usable
    CPU, since a forked pool starts all its workers at the first submit;
    chunks beyond that wait for a free worker."""
    global _pool, _pool_threads
    if _pool is None or _pool_threads != threads:
        _drop_pool()
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        _pool = ProcessPoolExecutor(max_workers=min(threads, cpus))
        _pool_threads = threads
    return _pool


def _drop_pool() -> None:
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def run_over_roots(search, g: Graph, spec: MotifSpec, *, prune: bool, threads: int,
                   order: DegeneracyOrder | None = None, local: str | None = None) -> Run:
    """Prepare every visited root (pruning.visited_roots) with prepare_root,
    call search(rn, spec, prune, run) on each universe it returns, and return
    the merged Run, timed and checked against the counter limit.

    The visited roots are processed in degeneracy-rank order; with
    threads == 1, or with fewer than 4 of them, the call runs inline
    (canonical recursion for debugging). Otherwise the visited roots are
    dealt into n = min(threads, #roots) strided chunks, roots[k::n] for
    k < n, each run with the run's bound fault on the process's shared pool,
    which starts at most one worker per usable CPU.
    Roots are independent, and striding spreads the costly ones (the dense
    core that peels last on power-law graphs, the early roots of G(n, p))
    over every chunk; one chunk per thread pickles the graph and the order
    only n times. Counts, stats and locals are sums, so the merged Run
    does not depend on the partition; cand_pre is set once, from the graph.
    Counts only grow, so the merged counts exceed the counter limit exactly
    when some chunk's did.
    """
    t0 = time.perf_counter()
    if order is None:
        order = degeneracy_order(g)
    roots = pruning.visited_roots(order, spec, prune)
    if threads <= 1 or len(roots) < 4:
        run = _run_chunk(pruning.BOUND_FAULT, search, g, order, spec, prune, local, roots)
    else:
        run = Run.empty(g.n, spec, prune, local)
        n = min(threads, len(roots))
        pool = _shared_pool(threads)
        futures = []
        try:
            for k in range(n):
                futures.append(pool.submit(_run_chunk, pruning.BOUND_FAULT, search, g, order,
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
