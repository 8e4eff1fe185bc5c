"""Motif validation, definitional membership, and incremental state."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcscount import (DcliqueState, MotifSpec, PlexState, SpecError, from_edges,
                      is_hcs, missing_edges, random_gnp, vertex_deficiency)
from hcscount.motifs import CliqueState, iter_bits
from conftest import reference_graph


class TestSpecValidation:
    def test_dclique_needs_q_minus_2_at_least_s(self):
        with pytest.raises(SpecError):
            MotifSpec.single("dclique", 1, 2).validate()
        MotifSpec.single("dclique", 1, 3).validate()

    def test_plex_needs_q_at_least_2s_plus_1(self):
        MotifSpec.single("plex", 1, 3).validate()
        with pytest.raises(SpecError):
            MotifSpec.single("plex", 2, 4).validate()

    def test_clique_requires_s_zero(self):
        with pytest.raises(SpecError):
            MotifSpec.single("clique", 1, 3).validate()

    def test_range_order(self):
        with pytest.raises(SpecError):
            MotifSpec("plex", 1, 5, 4).validate()

    def test_unknown_family(self):
        with pytest.raises(SpecError):
            MotifSpec.single("kcore", 1, 3).validate()


class TestIsHcs:
    def test_k5_minus_one_edge_is_1_dclique(self):
        g = from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)
                        if (u, v) != (0, 1)])
        assert is_hcs(MotifSpec.single("dclique", 1, 5), g, range(5))
        assert not is_hcs(MotifSpec.single("clique", 0, 5), g, range(5))

    def test_k5_minus_two_edges_at_one_vertex_not_1_plex(self):
        g = from_edges([(u, v) for u in range(5) for v in range(u + 1, 5)
                        if (u, v) not in {(0, 1), (0, 2)}])
        assert not is_hcs(MotifSpec.single("plex", 1, 5), g, range(5))
        assert is_hcs(MotifSpec.single("plex", 2, 5), g, range(5))

    def test_reference_graph_is_a_2_plex(self):
        g = reference_graph()
        assert is_hcs(MotifSpec.single("plex", 2, 7), g, range(7))

    def test_deficiency_counts_both_membership_branches(self):
        # u inside Q excludes itself; u outside counts against all of Q
        g = from_edges([(0, 1), (1, 2)])
        assert vertex_deficiency(g, 1, [0, 1, 2]) == 0
        assert vertex_deficiency(g, 0, [0, 1, 2]) == 1
        assert vertex_deficiency(g, 0, [1, 2]) == 1
        assert vertex_deficiency(g, 2, [0, 1]) == 1
        assert missing_edges(g, [0, 1, 2]) == 1


def local_masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def levels(state) -> list[int]:
    """Each vertex's level read off the threshold masks: the largest k with
    v in ge[k]."""
    return [max(k for k, g in enumerate(state.ge) if g >> v & 1)
            for v in range(len(state.adj))]


def capped_counts(state) -> list[int]:
    """Each vertex's definitional count of non-neighbors in R, capped at s + 1."""
    return [min(a, state.s + 1) for a in state.recompute()[1]]


graphs = st.integers(4, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]))))


class TestDcliqueState:
    def test_first_push_sets_nonneighbor_indicator(self):
        adj = local_masks(4, [(0, 1), (0, 2)])
        state = DcliqueState(adj, s=2)
        state.push(0)
        assert state.total_missing == 0
        assert state.ge == [0b1111, 0b1000, 0, 0]
        assert levels(state) == [0, 0, 0, 1]

    @given(graphs, st.integers(0, 3), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_push_pop_is_identity_and_A_matches_recompute(self, g, s, rnd):
        # every vertex is pushed, so counts can pass s + 1 and saturate there
        n, edges = g
        adj = local_masks(n, edges)
        state = DcliqueState(adj, s=s)
        before = (state.total_missing, list(state.ge), list(state.R))
        order = list(range(n))
        rnd.shuffle(order)
        for u in order:
            state.push(u)
            total, A = state.recompute()
            assert total == state.total_missing
            assert levels(state) == [min(a, s + 1) for a in A]
        for _ in order:
            state.pop()
        assert (state.total_missing, list(state.ge), list(state.R)) == before

    def test_filter_matches_definitional_oracle(self):
        # the filter is incremental: C must be threaded through every push,
        # exactly as the search engines do
        for seed in range(20):
            g = random_gnp(12, 0.5, seed=seed)
            adj = g.adjacency_masks()
            for s in (0, 1, 2):
                spec = MotifSpec("dclique", s, max(2, s + 2), 12)
                state = DcliqueState(adj, s)
                state.push(0)
                C = (adj[0] if s == 0 else ((1 << 12) - 1)) & ~1
                while C and len(state.R) < 5:
                    u = (C & -C).bit_length() - 1
                    C &= ~(1 << u)
                    state.push(u)
                    kept = state.filter_candidates(C)
                    for v in range(12):
                        if (C >> v) & 1:
                            expect = is_hcs(spec, g, state.R + [v])
                            assert bool((kept >> v) & 1) == expect, (seed, s, v)
                    C = kept

    def test_s0_filter_is_common_neighborhood(self):
        g = random_gnp(10, 0.5, seed=5)
        adj = g.adjacency_masks()
        state = DcliqueState(adj, 0)
        state.push(0)
        C = ((1 << 10) - 1) & ~1
        assert state.filter_candidates(C) == adj[0] & C


class TestCliqueState:
    def test_push_is_the_bound_append(self):
        # a clique keeps no counts: engines push u alone, with no Python frame
        state = CliqueState([0, 0])
        assert state.push.__self__ is state.R and state.pop.__self__ is state.R
        state.push(1)
        assert state.R == [1]

    def test_filters_match_definitional_oracle(self):
        spec = MotifSpec("clique", 0, 2, 12)
        for seed in range(10):
            g = random_gnp(12, 0.6, seed=200 + seed)
            adj = g.adjacency_masks()
            state = CliqueState(adj)
            state.push(0)
            C = adj[0]
            while C:
                u = (C & -C).bit_length() - 1
                C &= ~(1 << u)
                state.push(u)
                kept = state.filter_candidates(C, u)
                assert state.filter_pivots(C, u) == kept
                for v in range(12):
                    if (C >> v) & 1:
                        assert bool((kept >> v) & 1) == is_hcs(spec, g, state.R + [v])
                C = kept
            nD = adj[0].bit_count()
            assert state.leaf_classes(adj[0], nD) == ((adj[0],), (nD,), 0)
            while state.R:
                state.pop()


class TestPlexState:
    def test_push_into_empty_marks_nonneighbors(self):
        adj = local_masks(4, [(0, 1), (0, 2)])
        state = PlexState(adj, s=2)
        state.push(0)
        assert state.total_missing == 0
        assert levels(state) == [0, 0, 0, 1]

    @given(graphs, st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_push_pop_identity_and_A_matches_recompute(self, g, rnd):
        n, edges = g
        adj = local_masks(n, edges)
        # s = n: no vertex misses n others, so every push is admitted and no
        # count saturates
        state = PlexState(adj, s=n)
        before = list(state.ge)
        order = list(range(n))
        rnd.shuffle(order)
        pushed = 0
        for u in order[:6]:
            state.push(u)
            pushed += 1
            total, A = state.recompute()
            assert levels(state) == A
            assert total == state.total_missing == sum(
                1 for a, b in itertools.combinations(state.R, 2) if not (adj[a] >> b) & 1)
        for _ in range(pushed):
            state.pop()
        assert state.ge == before
        assert state.total_missing == 0

    def test_filter_matches_definitional_oracle(self):
        # C threads through every push, matching the engines' usage; the
        # saturation rule relies on that incremental invariant
        for seed in range(20):
            g = random_gnp(12, 0.5, seed=100 + seed)
            adj = g.adjacency_masks()
            for s in (1, 2):
                spec = MotifSpec("plex", s, 2 * s + 1, 12)
                state = PlexState(adj, s)
                state.push(0)
                C = ((1 << 12) - 1) & ~1
                while C and len(state.R) < 5:
                    u = (C & -C).bit_length() - 1
                    C &= ~(1 << u)
                    state.push(u)
                    kept = state.filter_candidates(C, u)
                    for v in range(12):
                        if (C >> v) & 1:
                            expect = is_hcs(spec, g, state.R + [v])
                            assert bool((kept >> v) & 1) == expect, (seed, s, v)
                    C = kept

    def test_s0_filter_prunes_to_common_neighborhood(self):
        g = random_gnp(10, 0.6, seed=9)
        adj = g.adjacency_masks()
        state = PlexState(adj, 0)
        state.push(0)
        C = adj[0]
        kept = state.filter_candidates(C, 0)
        assert kept == adj[0] & C


@pytest.mark.parametrize("cls", [DcliqueState, PlexState])
@given(graphs, st.integers(0, 3), st.randoms())
@settings(max_examples=80, deadline=None)
def test_levels_match_capped_counts_and_pops_restore(cls, g, s, rnd):
    # random pushes and pops, with no budget check, so that counts pass s + 1
    # (s <= 3 < n, as on every universe the engines build a state for):
    # every vertex's level is its count capped at s + 1, and each pop
    # restores the masks and the total to what they were before its push
    n, edges = g
    adj = local_masks(n, edges)
    state = cls(adj, s=s)
    snapshots = []
    for _ in range(24):
        if state.R and (len(state.R) == n or rnd.random() < 0.3):
            state.pop()
            assert (list(state.ge), state.total_missing) == snapshots.pop()
        else:
            snapshots.append((list(state.ge), state.total_missing))
            state.push(rnd.choice([v for v in range(n) if v not in state.R]))
        assert levels(state) == capped_counts(state)
        state.check_counts()
    while state.R:
        state.pop()
        assert (list(state.ge), state.total_missing) == snapshots.pop()
    assert state.ge == [(1 << n) - 1] + [0] * (s + 1)
    assert state.total_missing == 0 and state.rmask == 0 and state.saved == []


def test_random_pushes_reach_saturation():
    # the property above is exercised past s + 1: on an empty graph every
    # vertex misses all of R, so four pushes drive the rest to level s + 1
    state = DcliqueState([0] * 6, s=2)
    for u in range(4):
        state.push(u)
    assert levels(state) == capped_counts(state) == [3, 3, 3, 3, 3, 3]
    assert state.total_missing == 6


def _snapshot(state):
    return (list(state.R), getattr(state, "rmask", None),
            getattr(state, "total_missing", None), list(getattr(state, "ge", ())))


@pytest.mark.parametrize("cls", [CliqueState, DcliqueState, PlexState])
@given(graphs, st.integers(0, 3), st.randoms())
@settings(max_examples=80, deadline=None)
def test_push_accepted_exactly_when_result_stays_hcs(cls, g, s, rnd):
    # the family's budget check against the definition: admits(u) holds
    # exactly when R + [u] is an s-dclique / s-plex, and asking leaves the
    # state untouched; only admitted vertices are pushed
    n, edges = g
    graph = from_edges(sorted(edges), vertex_universe=list(range(n)))
    family = {CliqueState: "clique", DcliqueState: "dclique", PlexState: "plex"}[cls]
    s = 0 if cls is CliqueState else s
    spec = MotifSpec(family, s, 1, n)
    state = cls(graph.adjacency_masks(), s)
    order = list(range(n))
    rnd.shuffle(order)
    for u in order:
        before = _snapshot(state)
        ok = state.admits(u)
        assert _snapshot(state) == before
        assert ok == is_hcs(spec, graph, state.R + [u]), (state.R, u)
        if ok:
            state.push(u)
    assert is_hcs(spec, graph, state.R)


CLOSER_CASES = [(CliqueState, "clique", 0)] + [
    (cls, fam, s) for cls, fam in ((DcliqueState, "dclique"), (PlexState, "plex"))
    for s in range(4)]


@pytest.mark.parametrize("cls,family,s", CLOSER_CASES)
def test_closer_equals_push_filter_pop_and_definition(cls, family, s):
    # the listing engine's last branching level: close(u, rest) gives without
    # a push what push(u), filter_candidates(rest, u), pop() give, and that is
    # every v in rest completing R + {u, v}; C holds exactly the vertices that
    # extend R, as at every listing node, and R is reached by random pushes
    spec = MotifSpec(family, s, 1, 11)
    rnd = random.Random(8000 + s)
    closed = 0
    for seed in range(12):
        g = random_gnp(11, (0.4, 0.6, 0.8)[seed % 3], seed=8000 + seed)
        state = cls(g.adjacency_masks(), s)
        while True:
            C = sum(1 << v for v in range(g.n)
                    if v not in state.R and is_hcs(spec, g, state.R + [v]))
            if not C or len(state.R) == 5:
                break
            before = _snapshot(state)
            close = state.closer(C)
            for u in iter_bits(C):
                later = C & ~((2 << u) - 1)
                completes = sum(1 << v for v in iter_bits(later)
                                if is_hcs(spec, g, state.R + [u, v]))
                for t in list(iter_bits(later)) + [g.n]:
                    rest = later & ~((1 << t) - 1)
                    got = close(u, rest)
                    assert _snapshot(state) == before
                    state.push(u)
                    assert got == state.filter_candidates(rest, u), (seed, state.R, u, rest)
                    state.pop()
                    assert got == completes & rest, (seed, state.R, u, rest)
                    closed += got.bit_count()
            state.push(rnd.choice(list(iter_bits(C))))
    assert closed > 0


class TestHereditariness:
    def test_all_subsets_of_results_are_results(self):
        g = reference_graph()
        spec = MotifSpec.single("plex", 2, 7)
        assert is_hcs(spec, g, range(7))
        for size in range(1, 7):
            for sub in itertools.combinations(range(7), size):
                assert is_hcs(MotifSpec("plex", 2, 1, 7), g, sub)

    def test_dclique_subsets(self):
        g = reference_graph()
        Q = (2, 3, 4, 5, 6)
        spec = MotifSpec("dclique", 1, 2, 5)
        assert is_hcs(spec, g, Q)
        for size in (2, 3, 4):
            for sub in itertools.combinations(Q, size):
                assert is_hcs(spec, g, sub)

    def test_every_dclique_is_a_plex(self):
        from hcscount import brute_force_count
        for seed in range(5):
            g = random_gnp(14, 0.45, seed=500 + seed)
            for s in (1, 2):
                for q in range(max(s + 2, 2 * s + 1), 7):
                    d = brute_force_count(g, MotifSpec.single("dclique", s, q))
                    p = brute_force_count(g, MotifSpec.single("plex", s, q))
                    assert d.total(q) <= p.total(q)
