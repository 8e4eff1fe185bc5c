"""The shared process pool of run_over_roots: reuse, faults and failures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from hcscount import (CounterOverflowError, MotifSpec, count_by_listing, count_by_pivot,
                      degeneracy_order, from_edges, pruning, random_gnp, runner)
from hcscount.verify import inject_fault

SRC = Path(__file__).resolve().parent.parent / "src"

# A verify-corpus graph (seed 90_001) on which prune-bound changes plex(1, 5).
FAULT_GRAPH = (19, 0.4, 90_001)
FAULT_SPEC = ("plex", 1, 5)


def _exit_search(rn, spec, prune, run):
    os._exit(1)


def _skip_search(rn, spec, prune, run):
    pass


class _InlinePool:
    """Runs each submitted chunk at once and records its roots in the order
    of submission; it also stands in for ProcessPoolExecutor."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers
        self.submitted = []

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        self.submitted.append(args[-1])
        future = Future()
        future.set_result(fn(*args))
        return future


def _pivot_answer(g, spec, threads):
    run = count_by_pivot(g, spec, local="both", threads=threads)
    return run.counts, run.local.per_vertex, run.local.per_edge


@pytest.mark.parametrize("engine", [count_by_pivot, count_by_listing],
                         ids=["pivot", "listing"])
def test_counter_overflow_leaves_the_pool_usable(engine):
    """The limit is checked on the merged counts of a parallel run."""
    g = random_gnp(*FAULT_GRAPH[:2], seed=FAULT_GRAPH[2])
    spec = MotifSpec.single(*FAULT_SPEC)
    runner.COUNTER_LIMIT = 10
    try:
        with pytest.raises(CounterOverflowError):
            engine(g, spec, threads=2)
    finally:
        inject_fault(None)
    assert engine(g, spec, threads=2).counts == engine(g, spec).counts


def test_prune_bound_fault_changes_listing_counts():
    """A listing at q >= 4 still evaluates its branch bound above the last
    level, so a too-tight bound changes its count."""
    g = random_gnp(*FAULT_GRAPH[:2], seed=FAULT_GRAPH[2])
    spec = MotifSpec.single(*FAULT_SPEC)
    clean = count_by_listing(g, spec).count
    inject_fault("prune-bound")
    try:
        faulty = count_by_listing(g, spec).count
    finally:
        inject_fault(None)
    assert faulty < clean
    assert count_by_listing(g, spec).count == clean


def test_each_worker_gets_one_strided_chunk(monkeypatch):
    """Chunk k of n = min(threads, roots) is roots[k::n] over the roots the
    run visits, submitted in index order: every visited root once and no
    chunk empty, also with fewer roots than threads. Fewer than 4 visited
    roots run inline. A pruned clique(0,3) run visits the roots in the
    2-core, in degeneracy order (the path of `tail` and all of `five_roots`
    have core number 1); with pruning off it visits every root."""
    tail = from_edges([(i, i + 1) for i in range(30)]
                      + [(u, v) for u in range(30, 42) for v in range(u + 1, 42)])
    dense = random_gnp(30, 0.5, seed=5)
    five_roots = from_edges([(i, i + 1) for i in range(4)])
    three_roots = from_edges([(0, 1), (1, 2)])
    cases = [(tail, 2), (tail, 3), (dense, 2), (dense, 3), (five_roots, 8), (three_roots, 2)]
    for g, threads in cases:
        order = degeneracy_order(g)
        for prune in (True, False):
            roots = order.order.tolist()
            if prune:
                roots = [r for r in roots if order.core_numbers[r] >= 2]
            pool = _InlinePool()
            monkeypatch.setattr(runner, "_shared_pool", lambda threads: pool)
            runner.run_over_roots(_skip_search, g, MotifSpec.single("clique", 0, 3), prune=prune,
                                  threads=threads)
            if len(roots) < 4:
                assert pool.submitted == []
                continue
            n = min(threads, len(roots))
            assert pool.submitted == [roots[k::n] for k in range(n)]
            assert sorted(r for part in pool.submitted for r in part) == sorted(roots)
            assert all(pool.submitted)


def test_pool_starts_at_most_one_worker_per_cpu(monkeypatch):
    """A thread count far above the CPU count starts one worker per usable
    CPU, and still deals min(threads, #roots) chunks; the pool stays keyed
    by the requested count."""
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(runner, "_pool", None)
    monkeypatch.setattr(runner, "_pool_threads", 0)
    cpus = len(os.sched_getaffinity(0))
    g = random_gnp(30, 0.5, seed=5)
    spec = MotifSpec.single("dclique", 1, 5)
    want = count_by_pivot(g, spec).counts
    roots = pruning.visited_roots(degeneracy_order(g), spec, True)
    pools = []
    for threads in (10_000, 10_000, 2):
        assert count_by_pivot(g, spec, threads=threads).counts == want
        assert runner._pool_threads == threads
        pools.append(runner._pool)
    assert pools[0] is pools[1] is not pools[2]
    assert pools[0].max_workers == min(10_000, cpus) and pools[2].max_workers == min(2, cpus)
    # two calls dealt min(threads, #roots) chunks each on the first pool
    assert len(pools[0].submitted) == 2 * len(roots) and len(pools[2].submitted) == 2


def test_broken_pool_is_replaced():
    g = random_gnp(20, 0.4, seed=3)
    spec = MotifSpec.single("dclique", 1, 4)
    with pytest.raises(BrokenProcessPool):
        runner.run_over_roots(_exit_search, g, spec, prune=True, threads=2)
    assert runner._pool is None
    assert count_by_pivot(g, spec, threads=2).counts == count_by_pivot(g, spec).counts


def test_pool_reuse_keeps_no_state_between_calls():
    graphs = [(random_gnp(22, 0.45, seed=47), MotifSpec("plex", 1, 3, 5)),
              (random_gnp(26, 0.35, seed=11), MotifSpec("dclique", 1, 3, 5))]
    want = {i: (_pivot_answer(g, spec, 1),
                count_by_listing(g, MotifSpec.single(spec.family, spec.s, 4)).count)
            for i, (g, spec) in enumerate(graphs)}
    pools = []
    for threads in (2, 3, 2):
        for i, (g, spec) in enumerate(graphs):
            assert _pivot_answer(g, spec, threads) == want[i][0], (threads, i)
            single = MotifSpec.single(spec.family, spec.s, 4)
            assert count_by_listing(g, single, threads=threads).count == want[i][1]
            pools.append(runner._pool)
    assert pools[0] is pools[1] and pools[2] is pools[3] and pools[4] is pools[5]
    assert pools[1] is not pools[2] and pools[3] is not pools[4]


_START_METHOD_SCRIPT = """
import json, multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from hcscount import MotifSpec, count_by_pivot, random_gnp
from hcscount.verify import inject_fault
n, p, seed = {graph}
g = random_gnp(n, p, seed=seed)
spec = MotifSpec.single(*{spec})
q = spec.q_low
clean = count_by_pivot(g, spec, threads=2).total(q)
inject_fault("prune-bound")
print(json.dumps({{"clean": clean,
                  "serial": count_by_pivot(g, spec, threads=1).total(q),
                  "parallel": count_by_pivot(g, spec, threads=2).total(q)}}))
"""


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_fault_knobs_reach_workers_under_every_start_method(method):
    """The knob is set after a threads=2 call has started the pool."""
    script = _START_METHOD_SCRIPT.format(graph=FAULT_GRAPH, spec=FAULT_SPEC)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, method], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["parallel"] == got["serial"] != got["clean"], got
