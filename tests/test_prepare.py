"""Per-root preparation against a naive set-based reference.

The reference rebuilds each root's search universe from ``g.edge_list()``
with plain Python sets: raw 1-hop/2-hop candidates, the induced core peel,
the 2-hop common-neighbor threshold and the local bitmask adjacency.
"""

import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from hcscount import (DegeneracyOrder, MotifSpec, build_root_neighborhood,  # noqa: E402
                      collect_candidates, count_by_pivot, degeneracy_order, from_edges,
                      load_edge_list, random_gnp)
from hcscount.pruning import reduce_candidates  # noqa: E402
from hcscount.runner import RunStats, prepare_root  # noqa: E402


def planted_graph(seed: int):
    """Sparse G(70, 0.04) background with three planted blocks at p = 0.8."""
    rng = np.random.default_rng(seed)
    n = 70
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.04]
    members = rng.permutation(n)
    start = 0
    for size in (9, 11, 13):
        block = sorted(members[start:start + size].tolist())
        start += size
        pairs += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]
                  if rng.random() < 0.8]
    return from_edges(pairs, vertex_universe=np.arange(n))


def social_graph(n: int):
    """The benchmark generator's social graph (Chung-Lu plus planted
    communities). It is sparse: for most roots the reduced 1-hop core is
    empty or smaller than the 2-hop threshold."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_edge_list(gen.social(1, Path(tmp), n)[0])


GRAPHS = [random_gnp(30, 0.15, seed=11), random_gnp(24, 0.4, seed=12),
          random_gnp(18, 0.6, seed=13), planted_graph(14), social_graph(160)]


def specs():
    """Every family and s in 0..2, q at the admissibility floor and above,
    plus one range (reduced with its q_low)."""
    out = [MotifSpec.single("clique", 0, q) for q in (2, 3, 4, 5)]
    for family, floor in (("dclique", lambda s: s + 2), ("plex", lambda s: 2 * s + 1)):
        for s in (0, 1, 2):
            out += [MotifSpec.single(family, s, floor(s) + d) for d in (0, 1, 3)]
    out.append(MotifSpec("plex", 1, 4, 8))
    return out


def naive_neighbors(edges):
    nb = {}
    for u, v in edges:
        nb.setdefault(u, set()).add(v)
        nb.setdefault(v, set()).add(u)
    return nb


def naive_prepare(nb, rank, root, spec, prune):
    """(verts, adj, cand_now) of one root, from sets only."""
    near = nb.get(root, set())
    one = {v for v in near if rank[v] > rank[root]}
    two = set()
    if spec.s >= 1:
        for v in near:
            two |= {w for w in nb[v] if w != root and w not in near and rank[w] > rank[root]}
    if prune:
        s, q = spec.s, spec.q_low
        core_k = q - 2 * s - 2 if spec.family == "plex" else q - s - 2
        while True:
            weak = {u for u in one if len(nb[u] & one) < core_k}
            if not weak:
                break
            one -= weak
        need = q - 2 * s if spec.family == "plex" else q - s - 1
        if spec.family == "clique":
            two = set()
        elif need > 0:
            two = {w for w in two if len(nb[w] & one) >= need}
    verts = sorted(one | two)
    ids = verts + [root]
    adj = [sum(1 << j for j, x in enumerate(ids) if x in nb.get(u, ()))
           for u in ids]
    return verts, adj, len(verts)


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_prepare_root_matches_naive_reference(gi):
    g = GRAPHS[gi]
    order = degeneracy_order(g)
    nb = naive_neighbors(g.edge_list())
    rank = order.rank.tolist()
    for spec in specs():
        for prune in (True, False):
            for root in order.order.tolist():
                stats = RunStats()
                rn = prepare_root(g, order, root, spec, prune, stats)
                want = naive_prepare(nb, rank, root, spec, prune)
                assert stats.cand_now == want[2], (gi, spec, prune, root)
                if 1 + want[2] < spec.q_low:
                    # no result can reach q_low: no universe is built
                    assert rn is None, (gi, spec, prune, root)
                    continue
                got = ([int(v) for v in rn.verts], rn.adj, rn.cand_now)
                assert got == want, (gi, spec, prune, root)


def test_planted_graph_reduction_removes_candidates():
    g = GRAPHS[3]
    stats = RunStats()
    order = degeneracy_order(g)
    for root in order.order.tolist():
        prepare_root(g, order, root, MotifSpec.single("dclique", 1, 6), True, stats)
    assert stats.cand_now < g.pairs_within_two / 2


def test_social_graph_mostly_ends_below_the_two_hop_threshold():
    """The reference check above covers both ways a reduced core can fall
    short of the 2-hop threshold: empty (most roots) or small but not empty."""
    g = GRAPHS[4]
    order = degeneracy_order(g)
    spec = MotifSpec.single("plex", 1, 6)
    need = spec.q_low - 2 * spec.s
    empty = small = with_two = 0
    for root in order.order.tolist():
        one, two = collect_candidates(g, order, root)
        if two:
            with_two += 1
            core, kept = reduce_candidates(g, one, two, spec.family, spec.q_low, spec.s)
            empty += not core
            small += 0 < len(core) < need
            assert len(core) >= need or not kept
    assert 2 * empty > with_two > 0 and small > 0


@pytest.mark.parametrize("gi", [3, 4])
def test_arrays_and_lists_prepare_alike(gi):
    g = GRAPHS[gi]
    order = degeneracy_order(g)
    as_array = lambda xs: np.array(xs, dtype=np.int64)  # noqa: E731
    for family, s, q in (("clique", 0, 4), ("dclique", 1, 5), ("plex", 1, 4), ("plex", 2, 6)):
        for root in order.order.tolist():
            one, two = collect_candidates(g, order, root, s >= 1)
            lists = reduce_candidates(g, one, two, family, q, s)
            arrays = reduce_candidates(g, as_array(one), as_array(two), family, q, s)
            assert [list(map(int, xs)) for xs in arrays] == list(lists)
            a = build_root_neighborhood(g, root, *map(as_array, lists), cand_pre=7)
            b = build_root_neighborhood(g, root, *lists, cand_pre=7)
            assert (a.verts, a.adj, a.cand_pre) == (b.verts, b.adj, b.cand_pre)
            assert all(type(v) is int for v in a.verts)


def test_pickled_graph_stays_csr_only():
    g = random_gnp(30, 0.3, seed=5)
    before = len(pickle.dumps(g))
    count_by_pivot(g, MotifSpec.single("plex", 1, 4), threads=1)
    assert len(pickle.dumps(g)) == before
    copy = pickle.loads(pickle.dumps(g))
    assert copy.nbrs == g.nbrs


def pairs_within_two(nb) -> int:
    """Unordered vertex pairs at distance 1 or 2, from adjacency sets."""
    total = 0
    for u, near in nb.items():
        ball = set(near).union(*(nb[v] for v in near))
        ball.discard(u)
        total += len(ball)
    return total // 2


def permuted_order(g, seed: int) -> DegeneracyOrder:
    """A valid root order that is not the degeneracy order. The degeneracy
    and the core numbers belong to the graph, not to the order."""
    perm = np.random.default_rng(seed).permutation(g.n)
    rank = np.empty(g.n, dtype=np.int64)
    rank[perm] = np.arange(g.n)
    full = degeneracy_order(g)
    return DegeneracyOrder(perm, rank, full.degeneracy, full.core_numbers)


@pytest.mark.parametrize("gi", range(len(GRAPHS) + 1))
def test_cand_pre_counts_pairs_within_two(gi):
    """Every pair at distance <= 2 is a raw candidate of its lower-rank end
    exactly once, so a run's cand_pre is m for s = 0 and the number of such
    pairs for s >= 1, whatever the order, the prune flag or the threads.
    The last input has no edges."""
    g = (GRAPHS + [from_edges([], vertex_universe=np.arange(6))])[gi]
    want = {0: g.m, 1: pairs_within_two(naive_neighbors(g.edge_list()))}
    for make in (degeneracy_order, lambda g: permuted_order(g, seed=gi)):
        for spec in (MotifSpec.single("clique", 0, 4), MotifSpec.single("dclique", 1, 5),
                     MotifSpec.single("plex", 2, 6)):
            for prune in (True, False):
                for threads in (1, 2):
                    run = count_by_pivot(g, spec, prune=prune, threads=threads, order=make(g))
                    assert run.stats.cand_pre == want[min(spec.s, 1)], (spec, prune, threads)


def test_pickled_order_stays_arrays_only():
    g = GRAPHS[3]
    order = degeneracy_order(g)
    before = len(pickle.dumps(order))
    count_by_pivot(g, MotifSpec.single("plex", 1, 4), order=order, threads=1)
    assert "rank_list" in order.__dict__
    assert len(pickle.dumps(order)) == before
    copy = pickle.loads(pickle.dumps(order))
    assert "rank_list" not in copy.__dict__
    assert copy.rank_list == order.rank_list


@pytest.mark.parametrize("gi", [3, 4])
def test_sub_orders_count_each_root_as_the_full_order(gi):
    """Sub-orders over consecutive chunks of the roots (the full rank, a
    slice of the order) count and reduce each root as the full order does:
    their counts and cand_now add up to the full run's. Each sub-order run
    reports the whole graph's cand_pre."""
    g = GRAPHS[gi]
    order = degeneracy_order(g)
    spec = MotifSpec("dclique", 1, 4, 6)
    full = count_by_pivot(g, spec, order=order, threads=1)
    counts = dict.fromkeys(spec.sizes, 0)
    cand_now = 0
    roots = order.order
    for start in range(0, len(roots), 9):
        sub = DegeneracyOrder(roots[start:start + 9], order.rank, order.degeneracy,
                              order.core_numbers)
        run = count_by_pivot(g, spec, order=sub, threads=1)
        for q, c in run.counts.items():
            counts[q] += c
        cand_now += run.stats.cand_now
        assert run.stats.cand_pre == full.stats.cand_pre
    assert counts == full.counts
    assert cand_now == full.stats.cand_now
