"""Pruned runs visit only the roots in the (q_low - 1 - s)-core.

Every member of a result misses at most s of the other members, so the
whole result lies in the k-core with k = q_low - 1 - s, and its lowest-rank
member is a root with core number at least k. pruning.visited_roots drops
every other root when pruning is on, and run_over_roots prepares only the
roots it keeps; with pruning off it keeps them all.
"""

from __future__ import annotations

import numpy as np
import pytest

from hcscount import (MotifSpec, count_by_listing, count_by_pivot, degeneracy_order,
                      from_edges, pruning, random_gnp, runner, sweep)


def planted_on_periphery(seed: int):
    """A 12-vertex block at p = 0.85 (ids 0..11) with a random tree of 40
    vertices hung off it and a path of 10 off the tree. Every vertex outside
    the block has core number 1."""
    rng = np.random.default_rng(seed)
    block = 12
    pairs = [(u, v) for u in range(block) for v in range(u + 1, block)
             if rng.random() < 0.85]
    n = block + 40
    pairs += [(v, int(rng.integers(0, v))) for v in range(block, n)]
    pairs += [(v, v + 1) for v in range(n - 1, n + 9)]
    return from_edges(pairs)


def _specs():
    """Every family and s in 0..2: one single size and one range."""
    out = [MotifSpec.single("clique", 0, 6), MotifSpec("clique", 0, 4, 8)]
    for s in (0, 1, 2):
        out += [MotifSpec.single("dclique", s, s + 6), MotifSpec("dclique", s, s + 4, s + 7),
                MotifSpec.single("plex", s, 2 * s + 5), MotifSpec("plex", s, 2 * s + 3, 2 * s + 6)]
    return out


def _record_prepared(monkeypatch):
    """Make run_over_roots record each root it prepares; returns the list."""
    prepared = []
    prepare_root = runner.prepare_root

    def record(g, order, root, *args):
        prepared.append(root)
        return prepare_root(g, order, root, *args)

    monkeypatch.setattr(runner, "prepare_root", record)
    return prepared


def _skip_search(rn, spec, prune, run):
    pass


@pytest.mark.parametrize("spec", [MotifSpec.single("clique", 0, 4),
                                  MotifSpec("dclique", 1, 5, 7),
                                  MotifSpec.single("plex", 2, 6),
                                  MotifSpec("clique", 0, 1, 4),
                                  MotifSpec.single("plex", 0, 1)],
                         ids=lambda spec: spec.describe())
def test_pruned_runs_visit_the_core_roots_in_order(spec):
    """With pruning on and k > 0 the roots are those with core number >= k,
    in degeneracy order; with pruning off, or with k <= 0, every root."""
    k = spec.q_low - 1 - spec.s
    planted = planted_on_periphery(3)
    for g in (planted, random_gnp(40, 0.15, seed=8)):
        order = degeneracy_order(g)
        every = order.order.tolist()
        core = order.core_numbers
        seen = {prune: pruning.visited_roots(order, spec, prune) for prune in (True, False)}
        assert seen[False] == every
        if k > 0:
            assert seen[True] == [v for v in every if core[v] >= k]
        else:
            assert seen[True] == every
        if g is planted and k >= 2:
            assert len(seen[True]) <= 12  # the periphery has core number 1


def test_the_driver_prepares_exactly_the_visited_roots(monkeypatch):
    """run_over_roots hands prepare_root the visited roots, in order, and no
    other root."""
    g = planted_on_periphery(3)
    order = degeneracy_order(g)
    spec = MotifSpec("dclique", 1, 5, 7)
    prepared = _record_prepared(monkeypatch)
    for prune in (True, False):
        prepared.clear()
        runner.run_over_roots(_skip_search, g, spec, prune=prune, threads=1, order=order)
        assert prepared == pruning.visited_roots(order, spec, prune)
    assert len(prepared) == g.n > len(pruning.visited_roots(order, spec, True))


@pytest.mark.parametrize("spec", _specs(), ids=lambda spec: spec.describe())
def test_core_filter_keeps_every_answer(spec):
    """On a dense block with a tree and path periphery, where the filter
    removes most roots: pruned pivot with locals = unpruned pivot = listing
    = the oracle's sweep, at threads 1 and 2."""
    g = planted_on_periphery(1)
    order = degeneracy_order(g)
    k = spec.q_low - 1 - spec.s
    assert np.count_nonzero(order.core_numbers >= k) * 3 < g.n
    tally = sweep(g, 2, spec.q_high)
    want = tally.result_for(spec, g.n)
    assert any(want.total(q) for q in spec.sizes)
    for threads in (1, 2):
        pruned = count_by_pivot(g, spec, local="both", threads=threads, order=order)
        full = count_by_pivot(g, spec, prune=False, local="both", threads=threads, order=order)
        for q in spec.sizes:
            single = MotifSpec.single(spec.family, spec.s, q)
            listed = count_by_listing(g, single, threads=threads, order=order).count
            assert pruned.total(q) == full.total(q) == listed == want.total(q), (threads, q)
        assert pruned.local.per_vertex == full.local.per_vertex == want.per_vertex
        assert pruned.local.per_edge == full.local.per_edge == want.per_edge


@pytest.mark.parametrize("spec", [MotifSpec.single("clique", 0, 5), MotifSpec("dclique", 1, 6, 8),
                                  MotifSpec.single("plex", 1, 6)],
                         ids=lambda spec: spec.describe())
def test_graph_below_the_core_visits_no_root(spec, monkeypatch):
    """A graph whose degeneracy is below k: a pruned run searches nothing
    and counts nothing; with pruning off every root is prepared."""
    g = from_edges([(i, (i + 1) % 30) for i in range(30)] + [(0, 15), (7, 22)])
    order = degeneracy_order(g)
    assert order.degeneracy < spec.q_low - 1 - spec.s
    for threads in (1, 2):
        run = count_by_pivot(g, spec, local="both", threads=threads, order=order)
        assert run.counts == dict.fromkeys(spec.sizes, 0)
        assert run.stats.nodes == 0 and run.stats.cand_now == 0
        assert run.stats.cand_pre > 0
        assert run.local.per_vertex == [0] * g.n and run.local.per_edge == {}
        single = MotifSpec.single(spec.family, spec.s, spec.q_low)
        listed = count_by_listing(g, single, threads=threads, order=order)
        assert listed.count == 0 and listed.stats.nodes == 0 and listed.stats.cand_now == 0
    prepared = _record_prepared(monkeypatch)
    count_by_pivot(g, spec, prune=False, order=order)
    assert prepared == order.order.tolist()


@pytest.mark.parametrize("spec", [MotifSpec.single("clique", 0, 4),
                                  MotifSpec.single("dclique", 1, 6),
                                  MotifSpec.single("plex", 1, 6)],
                         ids=lambda spec: spec.describe())
def test_roots_cut_by_the_size_check_add_no_node(spec):
    """On a cycle with pruning off, every root is prepared and none has
    enough candidates to reach q: both engines count 0 search nodes."""
    g = from_edges([(i, (i + 1) % 30) for i in range(30)])
    for run in (count_by_pivot(g, spec, prune=False), count_by_listing(g, spec, prune=False)):
        assert run.count == 0
        assert run.stats.cand_now > 0
        assert run.stats.nodes == 0
