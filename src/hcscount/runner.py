"""Shared per-root driver: candidate preparation, stats, parallel map, counters."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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


def default_threads() -> int:
    env = os.environ.get("HCS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise RunConfigError(f"HCS_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def prepare_root(g: Graph, order: DegeneracyOrder, root: int, spec: MotifSpec,
                 prune: bool, stats: RunStats) -> RootNeighborhood:
    """Collect, optionally reduce, and assemble one root's search universe.

    Two-hop candidates only exist for s >= 1: with s = 0 a root/candidate
    non-edge already exhausts every budget. Range specs reduce with q_low,
    the weakest target in the range.
    """
    two_hop = spec.s >= 1
    one, two = collect_candidates(g, order, root, two_hop)
    pre = len(one) + len(two)
    if prune:
        one, two = reduce_candidates(g, one, two, spec.family, spec.q_low, spec.s)
    rn = build_root_neighborhood(g, root, one, two, cand_pre=pre)
    stats.cand_pre += pre
    stats.cand_now += rn.cand_now
    return rn


def run_over_roots(root_worker, g: Graph, spec: MotifSpec, *, prune: bool,
                   threads: int, order: DegeneracyOrder | None = None):
    """Map a per-root-chunk worker over all roots; yields partial results.

    The worker signature is worker(g, order, spec, prune, roots) -> partial.
    Roots are processed in degeneracy-rank order; with threads == 1 the call
    runs inline (canonical recursion for debugging).
    """
    if order is None:
        order = degeneracy_order(g)
    roots = [int(r) for r in order.order]
    if threads <= 1 or len(roots) < 4:
        yield root_worker(g, order, spec, prune, roots)
        return
    n_chunks = threads * 4
    size = max(1, (len(roots) + n_chunks - 1) // n_chunks)
    chunks = [roots[i:i + size] for i in range(0, len(roots), size)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(root_worker, g, order, spec, prune, c) for c in chunks]
        for f in futures:
            yield f.result()
