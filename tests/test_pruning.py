"""Candidate reduction and branch upper bounds: examples plus soundness."""

import numpy as np
import pytest

from hcscount import (DcliqueState, MotifSpec, PlexState, collect_candidates,
                      count_by_listing, count_by_pivot, degeneracy_order, from_edges,
                      random_gnp)
from hcscount.pruning import reduce_candidates, upper_bound_dclique, upper_bound_plex


def arr(xs):
    return np.array(xs, dtype=np.int64)


class TestReduceCandidates:
    def test_vacuous_core_when_q_is_s_plus_2(self):
        g = random_gnp(15, 0.3, seed=1)
        o = degeneracy_order(g)
        one, two = collect_candidates(g, o, int(o.order[0]), True)
        r1, r2 = reduce_candidates(g, one, two, "dclique", q=3, s=1)
        assert list(r1) == list(one)  # (q-s-2)=0-core removes nothing

    def test_two_hop_needs_enough_core_neighbors(self):
        # K4 on 0..3 plus vertex 4 attached only to 1: as a 2-hop candidate of
        # a root adjacent to 0..3, vertex 4 lacks the q-s-1 = 3 core neighbors
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (1, 4)])
        one, two = arr([1, 2, 3]), arr([4])
        r1, r2 = reduce_candidates(g, one, two, "dclique", q=4, s=0)
        assert list(r1) == [1, 2, 3]
        assert list(r2) == []

    def test_one_hop_core_peels_to_fixed_point(self):
        # path 1-2-3 among candidates: 2-core is empty only after iterating
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        one, two = arr([1, 2, 3]), arr([])
        r1, _ = reduce_candidates(g, one, two, "dclique", q=4, s=0)
        assert list(r1) == []

    def test_plex_threshold_weaker_than_dclique(self):
        # q=5, s=1: a plex member of the root's neighborhood may have just
        # q-2s-2 = 1 neighbor there, while a dclique member needs q-s-2 = 2
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        one, two = arr([1, 2, 3]), arr([])
        d1, _ = reduce_candidates(g, one, two, "dclique", q=5, s=1)
        p1, _ = reduce_candidates(g, one, two, "plex", q=5, s=1)
        assert list(d1) == []
        assert list(p1) == [1, 2, 3]

    def test_plex_s0_matches_dclique_s0(self):
        for seed in range(6):
            g = random_gnp(20, 0.35, seed=40 + seed)
            o = degeneracy_order(g)
            for root in range(g.n):
                one, two = collect_candidates(g, o, root, two_hop=False)
                d = reduce_candidates(g, one, two, "dclique", q=5, s=0)
                p = reduce_candidates(g, one, two, "plex", q=5, s=0)
                assert list(d[0]) == list(p[0]) and list(d[1]) == list(p[1])

    def test_isolated_two_hop_dropped_at_q_2s_plus_1(self):
        # q = 2s+1 makes the plex 2-hop threshold q-2s = 1
        g = from_edges([(0, 1), (1, 2), (0, 3), (3, 4)])
        one, two = arr([1, 3]), arr([2, 4])
        r1, r2 = reduce_candidates(g, one, two, "plex", q=3, s=1)
        assert set(map(int, r2)) <= {2, 4}
        for w in r2:
            assert any(g.has_edge(int(w), int(v)) for v in r1)

    def test_reduction_is_monotone_subset(self):
        g = random_gnp(25, 0.4, seed=9)
        o = degeneracy_order(g)
        for root in range(g.n):
            one, two = collect_candidates(g, o, root, True)
            for fam, s, q in (("dclique", 1, 5), ("plex", 1, 5), ("plex", 2, 6)):
                r1, r2 = reduce_candidates(g, one, two, fam, q, s)
                assert set(map(int, r1)) <= set(map(int, one))
                assert set(map(int, r2)) <= set(map(int, two))

    def test_reduction_never_changes_counts(self):
        for seed in range(25):
            g = random_gnp(14 + seed % 8, (0.25, 0.45, 0.6)[seed % 3], seed=7000 + seed)
            for fam, s in (("clique", 0), ("dclique", 1), ("plex", 1), ("dclique", 2),
                           ("plex", 2)):
                q = max(s + 2, 2 * s + 1) + seed % 2
                spec = MotifSpec.single(fam, s, q)
                a = count_by_listing(g, spec, prune=True).count
                b = count_by_listing(g, spec, prune=False).count
                c = count_by_pivot(g, spec, prune=True).total(q)
                d = count_by_pivot(g, spec, prune=False).total(q)
                assert a == b == c == d, (seed, fam, s, q)


def _state_on(g, family, s, pushes):
    adj = g.adjacency_masks()
    state = (DcliqueState if family == "dclique" else PlexState)(adj, s)
    for u in pushes:
        state.push(u)
    return state


class TestUpperBounds:
    def test_dclique_s0_counts_common_neighbors(self):
        g = random_gnp(12, 0.5, seed=3)
        state = _state_on(g, "dclique", 0, [0])
        C = state.adj[0] & ~1
        for u in range(1, 12):
            if not (C >> u) & 1:
                continue
            Cu = C & ~(1 << u)
            got = upper_bound_dclique(state, u, Cu)
            assert got == 2 + (state.adj[u] & Cu).bit_count()

    def test_empty_candidates(self):
        g = random_gnp(8, 0.5, seed=4)
        state = _state_on(g, "dclique", 2, [0])
        assert upper_bound_dclique(state, 1, 0) == 2

    def test_plex_empty_R_budget_is_zero(self):
        g = random_gnp(10, 0.5, seed=5)
        adj = g.adjacency_masks()
        state = PlexState(adj, 2)
        C = ((1 << 10) - 1) & ~1
        got = upper_bound_plex(state, 0, C)
        nbr = (adj[0] & C).bit_count()
        assert got == 1 + nbr + min(2, C.bit_count() - nbr)

    def test_plex_exhausted_own_budget_drops_third_term(self):
        # R = two non-neighbors of u, s = 2: no budget left for more misses
        g = from_edges([(0, 1), (0, 2), (1, 2), (3, 0)])
        state = _state_on(g, "plex", 2, [1, 2])
        for u in (3,):
            got = upper_bound_plex(state, u, 1)  # C = {0}, a neighbor of 3
            assert got == 3 + 1 + 0

    def _max_reachable(self, state, family, C):
        """Exhaustive deepest extension below the current state (no bounds)."""
        best = len(state.R)
        w = C
        while w:
            b = w & -w
            u = b.bit_length() - 1
            w ^= b
            C &= ~b
            state.push(u)
            C2 = (state.filter_candidates(C) if family == "dclique"
                  else state.filter_candidates(C, u))
            best = max(best, self._max_reachable(state, family, C2))
            state.pop()
        return best

    @pytest.mark.parametrize("family", ["dclique", "plex"])
    def test_bound_dominates_exhaustive_search(self, family):
        ub = upper_bound_dclique if family == "dclique" else upper_bound_plex
        for seed in range(10):
            g = random_gnp(11, 0.5, seed=6000 + seed)
            for s in (1, 2):
                state = _state_on(g, family, s, [0])
                C = ((1 << 11) - 1) & ~1
                w = C
                while w:
                    b = w & -w
                    u = b.bit_length() - 1
                    w ^= b
                    C &= ~b
                    gamma = ub(state, u, C)
                    state.push(u)
                    C2 = (state.filter_candidates(C) if family == "dclique"
                          else state.filter_candidates(C, u))
                    deepest = self._max_reachable(state, family, C2)
                    state.pop()
                    assert deepest <= gamma, (seed, family, s, u)
