"""Shared per-root driver: candidate preparation, stats, parallel map, counters."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pruning
from .graph import (DegeneracyOrder, Graph, RootNeighborhood,
                    build_root_neighborhood, collect_candidates, degeneracy_order)
from .motifs import MotifSpec
from .pruning import reduce_candidates

# Fault-injection knob: when set, any counter exceeding this value raises.
# Simulates a fixed-width accumulator; normal runs use unbounded integers.
COUNTER_LIMIT: int | None = None


class CounterOverflowError(OverflowError):
    """A counter exceeded the injected fixed-width limit."""


def check_counter(value: int) -> int:
    if COUNTER_LIMIT is not None and value > COUNTER_LIMIT:
        raise CounterOverflowError(
            f"count {value} exceeds the configured counter limit {COUNTER_LIMIT}")
    return value


@dataclass
class RunStats:
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
    only its candidate counts go into stats.
    """
    two_hop = spec.s >= 1
    one, two = collect_candidates(g, order, root, two_hop)
    pre = len(one) + len(two)
    if prune:
        one, two = reduce_candidates(g, one, two, spec.family, spec.q_low, spec.s)
    stats.cand_pre += pre
    stats.cand_now += len(one) + len(two)
    if 1 + len(one) + len(two) < spec.q_low:
        return None
    return build_root_neighborhood(g, root, one, two, cand_pre=pre)


class RunConfig(NamedTuple):
    """The fault knobs of one run, frozen when the run starts.

    Pool workers may outlive the call that started them, so they are sent
    this with every chunk instead of inheriting the knobs at fork.
    """

    bound_fault: int
    counter_limit: int | None

    @classmethod
    def current(cls) -> "RunConfig":
        return cls(pruning.BOUND_FAULT, COUNTER_LIMIT)

    def apply(self) -> None:
        global COUNTER_LIMIT
        pruning.BOUND_FAULT = self.bound_fault
        COUNTER_LIMIT = self.counter_limit


def _run_chunk(config: RunConfig, root_worker, *args):
    config.apply()
    return root_worker(*args)


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


def _chunk_costs(g: Graph, order: DegeneracyOrder, size: int) -> list[float]:
    """Estimated cost of each run of `size` consecutive roots in the order.

    A root's search is bounded by 2 to the size of its universe, whose 1-hop
    part is the root's number of higher-rank neighbors, so a chunk costs
    about the sum of 2 ** that number over its roots (capped so that the sum
    stays finite). On power-law graphs the last roots in degeneracy order
    sit in the densest core and cost the most; on G(n, p) the first ones do,
    since every other vertex still outranks them.
    """
    rank = order.rank
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    later = np.bincount(src[rank[g.indices] > rank[src]], minlength=g.n)
    weight = np.exp2(np.minimum(later, 900))[order.order]
    return np.add.reduceat(weight, np.arange(0, len(weight), size)).tolist()


def run_over_roots(root_worker, g: Graph, spec: MotifSpec, *, prune: bool,
                   threads: int, order: DegeneracyOrder | None = None):
    """Map a per-root-chunk worker over all roots; yields partial results.

    The worker signature is worker(g, order, spec, prune, roots) -> partial.
    Roots are processed in degeneracy-rank order; with threads == 1 the call
    runs inline (canonical recursion for debugging). With threads > 1 the
    roots are cut into threads * 4 contiguous chunks, which go to the
    process's shared pool, each with the run's RunConfig. They are submitted
    costliest first (by _chunk_costs), so that the costliest chunk does not
    run alone at the end of the call; partials come in submission order.
    """
    if order is None:
        order = degeneracy_order(g)
    roots = [int(r) for r in order.order]
    if threads <= 1 or len(roots) < 4:
        yield root_worker(g, order, spec, prune, roots)
        return
    n_chunks = threads * 4
    size = max(1, (len(roots) + n_chunks - 1) // n_chunks)
    costs = _chunk_costs(g, order, size)
    config = RunConfig.current()
    pool = _shared_pool(threads)
    futures = []
    try:
        for k in sorted(range(len(costs)), key=lambda k: -costs[k]):
            futures.append(pool.submit(_run_chunk, config, root_worker, g, order, spec,
                                       prune, roots[k * size:(k + 1) * size]))
        for f in futures:
            yield f.result()
    except BrokenProcessPool:
        _drop_pool()
        raise
    finally:
        for f in futures:
            f.cancel()
