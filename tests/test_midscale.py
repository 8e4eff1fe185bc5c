"""Agreement at a scale where candidate reduction removes almost everything.

The acceptance gate's graphs stop at 35 vertices, where few roots end with
an empty or undersized core. Here the benchmark generator's social graph
(Chung-Lu power law plus planted communities) is drawn at about 3k
vertices, where reduction removes over 95% of every spec's raw candidates
and most roots keep no 2-hop candidate. The engines must agree with each
other, with the committed counts, across thread counts and across a range
and its single sizes; pruning must not change a count on the 500-vertex
draw. The generator fixes the structure, so the counts hold for any seed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from hcscount import (MotifSpec, build_root_neighborhood, collect_candidates,  # noqa: E402
                      count_by_listing, count_by_pivot, degeneracy_order, load_edge_list)
from hcscount.pruning import reduce_candidates  # noqa: E402
from hcscount.runner import RunStats, prepare_root  # noqa: E402

# (family, s, q) -> count on gen.social(seed, out, 3000): 2938 vertices, 9985 edges
MID_COUNTS = {("dclique", 1, 8): 876, ("plex", 1, 8): 5140, ("clique", 0, 8): 65}
MID_RANGE = MotifSpec("plex", 1, 6, 9)
MID_RANGE_COUNTS = {6: 19247, 7: 12565, 8: 5140, 9: 1247}
# (family, s, q) -> count on gen.social(seed, out, 500): 492 vertices, 1728 edges
# and 14,839 vertex pairs within distance 2
SMALL_COUNTS = {("dclique", 1, 8): 28, ("plex", 1, 8): 600, ("clique", 0, 8): 1}


@pytest.fixture(scope="module")
def mid(tmp_path_factory):
    g = load_edge_list(gen.social(3, tmp_path_factory.mktemp("mid"), 3000)[0])
    assert (g.n, g.m) == (2938, 9985)
    return g, degeneracy_order(g)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    g = load_edge_list(gen.social(3, tmp_path_factory.mktemp("small"), 500)[0])
    assert (g.n, g.m) == (492, 1728)
    return g, degeneracy_order(g)


@pytest.mark.parametrize("key", sorted(MID_COUNTS))
def test_listing_equals_pivot_and_golden(mid, key):
    g, order = mid
    spec = MotifSpec.single(*key)
    piv = count_by_pivot(g, spec, order=order, local="vertex")
    lst = count_by_listing(g, spec, order=order)
    assert piv.total(key[2]) == lst.count == MID_COUNTS[key]
    assert piv.stats.reduction_rate >= 0.95
    assert (piv.stats.cand_pre, piv.stats.cand_now) == (lst.stats.cand_pre,
                                                        lst.stats.cand_now)
    # every result of size q credits each of its q members once
    assert sum(piv.local.per_vertex) == key[2] * MID_COUNTS[key]


def test_range_equals_its_single_sizes(mid):
    g, order = mid
    run = count_by_pivot(g, MID_RANGE, order=order)
    assert run.stats.reduction_rate >= 0.95
    assert dict(run.counts) == MID_RANGE_COUNTS
    for q in MID_RANGE.sizes:
        single = MotifSpec.single(MID_RANGE.family, MID_RANGE.s, q)
        assert count_by_pivot(g, single, order=order).total(q) == MID_RANGE_COUNTS[q]


def test_two_threads_equal_one(mid):
    g, order = mid
    spec = MotifSpec.single("dclique", 1, 8)
    one = count_by_pivot(g, spec, order=order, local="vertex", threads=1)
    two = count_by_pivot(g, spec, order=order, local="vertex", threads=2)
    assert dict(two.counts) == dict(one.counts)
    assert two.local.per_vertex == one.local.per_vertex
    assert ((two.stats.nodes, two.stats.cand_pre, two.stats.cand_now)
            == (one.stats.nodes, one.stats.cand_pre, one.stats.cand_now))
    assert count_by_listing(g, spec, order=order, threads=2).count == MID_COUNTS[
        ("dclique", 1, 8)]


@pytest.mark.parametrize("key", sorted(SMALL_COUNTS))
def test_prune_on_equals_off(small, key):
    g, order = small
    spec = MotifSpec.single(*key)
    on = count_by_pivot(g, spec, order=order, prune=True)
    off = count_by_pivot(g, spec, order=order, prune=False)
    assert on.total(key[2]) == off.total(key[2]) == SMALL_COUNTS[key]
    assert on.stats.reduction_rate >= 0.95 and off.stats.reduction_rate == 0


@pytest.mark.parametrize("spec", [MotifSpec.single("dclique", 1, 8), MotifSpec.single("plex", 1, 8),
                                  MotifSpec("plex", 1, 5, 12), MotifSpec.single("clique", 0, 8)],
                         ids=MotifSpec.describe)
def test_prepare_root_equals_collect_then_reduce(mid, spec):
    """With pruning on, prepare_root builds the 2-hop survivors from the
    reduced core; collect_candidates then reduce_candidates is the reference."""
    g, order = mid
    for root in order.order.tolist():
        stats = RunStats()
        rn = prepare_root(g, order, root, spec, True, stats)
        one, two = collect_candidates(g, order, root, spec.s >= 1)
        one, two = reduce_candidates(g, one, two, spec.family, spec.q_low, spec.s)
        assert stats.cand_now == len(one) + len(two), root
        if 1 + len(one) + len(two) < spec.q_low:
            assert rn is None, root
            continue
        want = build_root_neighborhood(g, root, one, two)
        assert ((rn.verts, rn.adj, rn.cand_now)
                == (want.verts, want.adj, want.cand_now)), root


def test_cand_pre_counts_pairs_within_two(small):
    g, order = small
    for key, want in ((("clique", 0, 8), 1728), (("plex", 1, 8), 14839)):
        for prune in (True, False):
            run = count_by_pivot(g, MotifSpec.single(*key), order=order, prune=prune)
            assert run.stats.cand_pre == want, (key, prune)
