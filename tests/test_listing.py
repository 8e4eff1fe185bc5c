"""Listing engine: exact counts, exactly-once emission, degenerate cases."""

import itertools

import pytest

from hcscount import (MotifSpec, brute_force_count, complete_graph, count_by_listing,
                      count_by_pivot, cycle_graph, degeneracy_order,
                      SpecError, enumerate_by_listing, from_edges, is_hcs, random_gnp)
from conftest import REF7_COUNTS, reference_graph


class TestCountByListing:
    def test_k5_triangles(self):
        assert count_by_listing(complete_graph(5),
                                MotifSpec.single("clique", 0, 3)).count == 10

    def test_cycle5_plex_triples(self):
        # independent oracle: all 10 triples checked definitionally
        g = cycle_graph(5)
        spec = MotifSpec.single("plex", 1, 3)
        expected = sum(is_hcs(spec, g, t) for t in itertools.combinations(range(5), 3))
        assert expected == 5  # exactly the consecutive triples
        assert count_by_listing(g, spec).count == 5

    def test_reference_graph_counts(self):
        g = reference_graph()
        for (fam, s, q), want in REF7_COUNTS.items():
            assert count_by_listing(g, MotifSpec.single(fam, s, q)).count == want

    def test_q1_counts_vertices(self):
        g = random_gnp(9, 0.3, seed=2)
        assert count_by_listing(g, MotifSpec.single("plex", 0, 1)).count == 9
        got = []
        enumerate_by_listing(g, MotifSpec.single("clique", 0, 1), got.append)
        assert sorted(got) == [(u,) for u in range(9)]

    def test_q2_clique_counts_edges(self):
        g = random_gnp(15, 0.4, seed=3)
        assert count_by_listing(g, MotifSpec.single("clique", 0, 2)).count == g.m

    def test_rejects_range_spec(self):
        spec = MotifSpec("clique", 0, 2, 3)
        with pytest.raises(SpecError):
            count_by_listing(complete_graph(4), spec)
        with pytest.raises(SpecError):
            enumerate_by_listing(complete_graph(4), spec, [].append)

    def test_s0_families_agree_with_clique(self):
        for seed in range(6):
            g = random_gnp(16, 0.45, seed=600 + seed)
            for q in (3, 4, 5):
                c = count_by_listing(g, MotifSpec.single("clique", 0, q)).count
                d = count_by_listing(g, MotifSpec.single("dclique", 0, q)).count
                p = count_by_listing(g, MotifSpec.single("plex", 0, q)).count
                assert c == d == p

    def test_parallel_equals_serial(self):
        g = random_gnp(24, 0.45, seed=8)
        spec = MotifSpec.single("plex", 1, 4)
        assert (count_by_listing(g, spec, threads=2).count
                == count_by_listing(g, spec, threads=1).count)

    def test_stats_consistent(self):
        g = random_gnp(18, 0.5, seed=4)
        run = count_by_listing(g, MotifSpec.single("dclique", 1, 5))
        assert run.stats.bound_pruned <= run.stats.branch_iters
        assert run.stats.cand_now <= run.stats.cand_pre
        assert run.stats.nodes > 0

    def test_empty_graph(self):
        g = from_edges([])
        assert count_by_listing(g, MotifSpec.single("clique", 0, 3)).count == 0


class TestEnumerateByListing:
    def test_k4_triangles_no_duplicates(self):
        got = []
        enumerate_by_listing(complete_graph(4), MotifSpec.single("clique", 0, 3),
                             got.append)
        assert sorted(got) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_reference_graph_dclique_sets(self):
        got = []
        enumerate_by_listing(reference_graph(), MotifSpec.single("dclique", 1, 4),
                             got.append)
        assert len(got) == 20
        assert len(set(got)) == 20

    def test_matches_oracle_sets_and_min_rank_root(self):
        for seed in range(6):
            g = random_gnp(15, 0.4, seed=900 + seed)
            order = degeneracy_order(g)
            for fam, s, q in (("dclique", 1, 4), ("plex", 1, 4), ("plex", 2, 5)):
                spec = MotifSpec.single(fam, s, q)
                oracle = brute_force_count(g, spec, collect_sets=True)
                for prune in (True, False):
                    got = []
                    enumerate_by_listing(g, spec, got.append, prune=prune)
                    assert len(got) == len(set(got)), "duplicate emission"
                    assert sorted(got) == sorted(oracle.sets), (seed, fam, s, q, prune)
                    for S in got:
                        root = min(S, key=lambda v: order.rank[v])
                        # every other member sits within the root's 2-hop out-universe
                        assert all(order.rank[v] > order.rank[root]
                                   for v in S if v != root)

    def test_every_emitted_set_is_valid(self):
        g = random_gnp(14, 0.5, seed=31)
        spec = MotifSpec.single("plex", 2, 5)
        got = []
        enumerate_by_listing(g, spec, got.append)
        assert got and all(is_hcs(spec, g, S) for S in got)

    def test_count_equals_enumeration_length(self):
        for seed in range(4):
            g = random_gnp(13, 0.5, seed=1200 + seed)
            for fam, s, q in (("clique", 0, 4), ("dclique", 2, 5), ("plex", 1, 5)):
                spec = MotifSpec.single(fam, s, q)
                got = []
                enumerate_by_listing(g, spec, got.append)
                assert count_by_listing(g, spec).count == len(got)

    @pytest.mark.parametrize("fam,s,q", [
        ("clique", 0, 2), ("dclique", 0, 2), ("plex", 0, 2), ("clique", 0, 3),
        ("dclique", 0, 3), ("dclique", 1, 3), ("plex", 0, 3), ("plex", 1, 3)])
    def test_closing_root_emits_oracle_sets(self, fam, s, q):
        # q = 2: the root closes each candidate; q = 3: the root is the node
        # that closes pairs, with no branch below it
        spec = MotifSpec.single(fam, s, q)
        for seed in range(4):
            g = random_gnp(14, 0.45, seed=1400 + seed)
            oracle = brute_force_count(g, spec, collect_sets=True)
            assert oracle.sets
            for prune in (True, False):
                got = []
                enumerate_by_listing(g, spec, got.append, prune=prune)
                assert len(got) == len(set(got)), "duplicate emission"
                assert sorted(got) == sorted(oracle.sets), (seed, prune)


class TestCrossEngine:
    def test_listing_equals_pivot_on_reference(self):
        g = reference_graph()
        for (fam, s, q), want in REF7_COUNTS.items():
            spec = MotifSpec.single(fam, s, q)
            assert count_by_pivot(g, spec).total(q) == want
