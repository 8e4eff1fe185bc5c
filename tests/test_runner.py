"""The shared process pool of run_over_roots: reuse, faults and failures."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from hcscount import (CounterOverflowError, MotifSpec, count_by_listing, count_by_pivot,
                      random_gnp, runner)
from hcscount.verify import inject_fault

SRC = Path(__file__).resolve().parent.parent / "src"

# A verify-corpus graph (seed 90_001) on which prune-bound changes plex(1, 5).
FAULT_GRAPH = (19, 0.4, 90_001)
FAULT_SPEC = ("plex", 1, 5)


def _exit_worker(g, order, spec, prune, roots):
    os._exit(1)


def _pivot_answer(g, spec, threads):
    run = count_by_pivot(g, spec, local="both", threads=threads)
    return run.counts, run.local.per_vertex, run.local.per_edge


def test_counter_overflow_leaves_the_pool_usable():
    g = random_gnp(*FAULT_GRAPH[:2], seed=FAULT_GRAPH[2])
    spec = MotifSpec.single(*FAULT_SPEC)
    runner.COUNTER_LIMIT = 10
    try:
        with pytest.raises(CounterOverflowError):
            count_by_pivot(g, spec, threads=2)
    finally:
        inject_fault(None)
    assert count_by_pivot(g, spec, threads=2).counts == count_by_pivot(g, spec).counts


def test_broken_pool_is_replaced():
    g = random_gnp(20, 0.4, seed=3)
    spec = MotifSpec.single("dclique", 1, 4)
    with pytest.raises(BrokenProcessPool):
        list(runner.run_over_roots(_exit_worker, g, spec, prune=True, threads=2))
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
