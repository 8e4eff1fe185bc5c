"""Pivot engine: selection rules, leaf mathematics, ranges, local counts."""

import itertools
import math
import random

import pytest

from hcscount import (DcliqueState, MotifSpec, PlexState, binom, brute_force_count,
                      brute_force_pivot_check, complete_graph, count_by_listing,
                      count_by_pivot, degeneracy_order, from_edges, knapsack_counts,
                      random_gnp, select_pivot_dclique, select_pivot_plex)
import hcscount.pruning as pruning
from hcscount.motifs import iter_bits
from hcscount.pivot import FAMILY_RULES, PivotDecision, _leaf
from hcscount.runner import prepare_root, RunStats
from conftest import REF7_COUNTS, reference_graph


def root_state(g, family, s, root=None, prune=False):
    """State and candidate mask at a root node, mirroring the engines."""
    order = degeneracy_order(g)
    root = int(order.order[0]) if root is None else root
    spec = MotifSpec("clique", 0, 2, 2) if s == 0 else MotifSpec(family, s,
                                                                 max(s + 2, 2 * s + 1), 9)
    rn = prepare_root(g, order, root, spec, prune, RunStats())
    state = (DcliqueState if family == "dclique" else PlexState)(rn.adj, s)
    state.push(rn.root_local)
    return rn, state


def plex_pivot_qualifiers(state, C):
    """Reference rule: u qualifies when every member v of R that u misses
    keeps room for u and for its own non-neighbors in u's hold-out side
    C1 = N(u) ∩ C: m̄(v, R) + 1 + |C1 \\ N(v)| <= s."""
    A, adj, s = state.A, state.adj, state.s

    def qualifies(u):
        C1 = adj[u] & C
        return all(A[v] + 1 + (C1 & ~adj[v]).bit_count() <= s
                   for v in state.R if not adj[u] >> v & 1)

    return [u for u in iter_bits(C) if qualifies(u)]


def slack_rule_admits(adj, R, C, u, s):
    """The stricter rule the hold-out charge replaced: every member v of R
    that u misses keeps slack against all of C, m̄(v, R + C) <= s - 1."""
    rmask = sum(1 << r for r in R)
    return all((rmask & ~adj[v] & ~(1 << v)).bit_count() + (C & ~adj[v]).bit_count() <= s - 1
               for v in R if not adj[u] >> v & 1)


def two_pass_plex_pivot(state, C):
    """Reference selection: the maximum-degree qualifier, else a split on the
    maximum-degree vertex that admits nothing (ties to the smallest id)."""
    def degree(u):
        return (state.adj[u] & C).bit_count()

    qual = plex_pivot_qualifiers(state, C)
    u = max(qual or iter_bits(C), key=degree)  # max keeps the first maximum
    C1 = state.adj[u] & C
    if qual:
        return PivotDecision(u, C1, C & ~C1 & ~(1 << u))
    return PivotDecision(None, C1, C & ~C1)


# (seed, family, s, q, prune) -> ((nodes, branch_iters, bound_pruned) of the
# pivot engine, the same of the listing engine) on random_gnp graphs; nodes
# counts search nodes only, none for a root cut by the size check
SEARCH_STATS = {
    (11, 'dclique', 1, 5, True): ((1202, 604, 78), (974, 2393, 725)),
    (11, 'dclique', 1, 5, False): ((1346, 648, 0), (992, 2490, 0)),
    (11, 'dclique', 2, 6, True): ((3105, 1585, 211), (2056, 6916, 3057)),
    (11, 'dclique', 2, 6, False): ((3630, 1771, 0), (2272, 7873, 0)),
    (11, 'plex', 1, 5, True): ((1828, 957, 51), (1744, 3081, 459)),
    (11, 'plex', 1, 5, False): ((1909, 977, 0), (1764, 3150, 0)),
    (11, 'plex', 2, 6, True): ((12744, 6964, 297), (10849, 19643, 3056)),
    (11, 'plex', 2, 6, False): ((13210, 7088, 0), (10981, 20183, 0)),
    (12, 'dclique', 1, 5, True): ((718, 395, 117), (482, 1376, 592)),
    (12, 'dclique', 1, 5, False): ((1378, 763, 0), (564, 1974, 0)),
    (12, 'dclique', 2, 6, True): ((1658, 981, 299), (740, 3104, 1967)),
    (12, 'dclique', 2, 6, False): ((4303, 2413, 0), (1203, 6214, 0)),
    (12, 'plex', 1, 5, True): ((1243, 690, 90), (926, 2026, 529)),
    (12, 'plex', 1, 5, False): ((1718, 979, 0), (1019, 2491, 0)),
    (12, 'plex', 2, 6, True): ((13125, 8980, 1826), (6886, 18702, 5158)),
    (12, 'plex', 2, 6, False): ((16996, 10516, 0), (7345, 21088, 0)),
    (13, 'dclique', 1, 5, True): ((959, 400, 30), (1187, 2139, 398)),
    (13, 'dclique', 1, 5, False): ((989, 400, 0), (1200, 2171, 0)),
    (13, 'dclique', 2, 6, True): ((2365, 1013, 68), (2630, 6087, 1953)),
    (13, 'dclique', 2, 6, False): ((2433, 1013, 0), (2747, 6421, 0)),
    (13, 'plex', 1, 5, True): ((1220, 532, 2), (1587, 2478, 318)),
    (13, 'plex', 1, 5, False): ((1226, 534, 0), (1591, 2488, 0)),
    (13, 'plex', 2, 6, True): ((6238, 2845, 10), (7736, 12412, 1740)),
    (13, 'plex', 2, 6, False): ((6248, 2845, 0), (7741, 12426, 0)),
}


class TestSelectPivotDclique:
    def test_reference_root_picks_u3(self):
        g = reference_graph()
        rn, state = root_state(g, "dclique", 1)
        assert rn.root == 0
        dec = select_pivot_dclique(state, rn.cand_mask)
        glob = [int(v) for v in rn.verts]
        assert glob[dec.pivot] == 3
        # the candidate pool minus the pivot is {1,2,4,5,6}
        rest = {glob[i] for i in range(len(glob))
                if (rn.cand_mask >> i) & 1 and i != dec.pivot}
        assert rest == {1, 2, 4, 5, 6}

    def test_split_disjoint_and_covering(self):
        for seed in range(8):
            g = random_gnp(14, 0.5, seed=50 + seed)
            rn, state = root_state(g, "dclique", 1)
            C = rn.cand_mask
            if not C:
                continue
            dec = select_pivot_dclique(state, C)
            assert dec.C1 & dec.C2 == 0
            assert dec.C1 | dec.C2 | (1 << dec.pivot) == C
            assert dec.C1 == state.adj[dec.pivot] & C

    def test_clique_candidates_resolve_without_branches(self):
        g = complete_graph(6)
        rn, state = root_state(g, "dclique", 1)
        dec = select_pivot_dclique(state, rn.cand_mask)
        assert dec.C2 == 0
        assert dec.C1 == rn.cand_mask & ~(1 << dec.pivot)


class TestKnapsackLeaf:
    def test_worked_instance(self):
        assert knapsack_counts([0, 0, 1, 1], budget=1, k=3) == 2

    def test_zero_weights_reduce_to_binomial(self):
        for nd in range(1, 9):
            for k in range(nd + 1):
                assert knapsack_counts([0] * nd, 5, k) == math.comb(nd, k)

    def test_against_subset_enumeration(self):
        import random
        rng = random.Random(1234)
        for _ in range(300):
            nd = rng.randint(1, 12)
            weights = [rng.randint(0, 3) for _ in range(nd)]
            budget = rng.randint(0, 4)
            k = rng.randint(0, nd)
            expect = sum(1 for H in itertools.combinations(range(nd), k)
                         if sum(weights[i] for i in H) <= budget)
            assert knapsack_counts(weights, budget, k) == expect

    def test_leaf_against_subset_enumeration(self):
        # credits, and the results holding a given member of class w or a
        # given pair of members of classes w <= x, over mixed weights 0..3
        rng = random.Random(4321)
        for _ in range(200):
            sizes = tuple(rng.randint(0, 3) for _ in range(4))
            budget = rng.randint(0, 4)
            nR = rng.randint(0, 3)
            q_lo = rng.randint(max(1, nR), nR + sum(sizes) + 1)
            q_hi = rng.randint(q_lo, q_lo + 3)
            weights = [w for w, c in enumerate(sizes) for _ in range(c)]
            found = [H for k in range(len(weights) + 1)
                     for H in itertools.combinations(range(len(weights)), k)
                     if q_lo <= nR + k <= q_hi and sum(weights[i] for i in H) <= budget]
            credits, tot, ones, two = _leaf(nR, sizes, budget, q_lo, q_hi)
            per_size = {}
            for H in found:
                per_size[nR + len(H)] = per_size.get(nR + len(H), 0) + 1
            assert dict(credits) == per_size and tot == len(found)
            first = [weights.index(w) if c else None for w, c in enumerate(sizes)]
            for w, a in enumerate(first):
                assert ones[w] == (0 if a is None else sum(a in H for H in found))
                for x in range(w, len(sizes)):
                    b = first[x] if x > w else (a + 1 if sizes[w] > 1 else None)
                    want = 0 if a is None or b is None else sum({a, b} <= set(H)
                                                               for H in found)
                    assert two[w][x] == want, (sizes, budget, w, x)


class TestSelectPivotPlex:
    def test_empty_R_every_candidate_qualifies(self):
        g = random_gnp(10, 0.4, seed=77)
        state = PlexState(g.adjacency_masks(), 1)
        C = (1 << 10) - 1
        assert len(plex_pivot_qualifiers(state, C)) == 10
        dec = select_pivot_plex(state, C)
        assert dec.pivot is not None

    def test_reference_root_qualifiers(self):
        # implemented rule: a candidate qualifies iff every member it misses
        # has room for it and for that member's misses in the candidate's
        # hold-out side; at the root the only member is vertex 0, which misses
        # 3 and 4, and each of 3 and 4 holds out the other, so exactly 0's
        # neighbors {1,2,5,6} qualify. Vertex 2 is the maximum-degree
        # qualifier (ties to smaller id), certified as a true pivot by the
        # definitional check below.
        g = reference_graph()
        rn, state = root_state(g, "plex", 1)
        glob = [int(v) for v in rn.verts]
        quals = {glob[u] for u in plex_pivot_qualifiers(state, rn.cand_mask)}
        assert quals == {1, 2, 5, 6}
        dec = select_pivot_plex(state, rn.cand_mask)
        assert glob[dec.pivot] == 2
        assert {glob[i] for i in range(len(glob)) if (dec.C1 >> i) & 1} == {3, 4, 5, 6}

    def test_no_qualifier_falls_back_to_split(self):
        # member 0 misses both candidates 1 and 2 (reached through middle
        # vertex 3), so its slack in R+C is spent and nothing qualifies;
        # the split still holds out the max-degree vertex's neighborhood
        g = from_edges([(0, 3), (1, 3), (2, 3), (1, 2)])
        state = PlexState(g.adjacency_masks(), 1)
        state.push(0)
        C = 0b110  # candidates {1, 2}
        assert plex_pivot_qualifiers(state, C) == []
        dec = select_pivot_plex(state, C)
        assert dec.pivot is None
        assert dec.C1 == 0b100 and dec.C2 == 0b010  # C1 = N(1) & C, 1 stays in C2

    def test_miss_in_the_branching_side_is_not_charged(self):
        # member 0 misses candidate 1 and, besides it, only candidate 2; 2 is
        # not a neighbor of 1, so it lies in 1's branching side and never
        # joins a result credited below 1's hold-out call. 1 qualifies,
        # although 0 has no slack against all of C (the stricter rule
        # admitted nothing here)
        g = from_edges([(0, 3), (1, 3), (2, 3)])
        state = PlexState(g.adjacency_masks(), 1)
        state.push(0)
        C = 0b110  # candidates {1, 2}
        assert not any(slack_rule_admits(state.adj, state.R, C, u, 1) for u in (1, 2))
        assert plex_pivot_qualifiers(state, C) == [1, 2]
        dec = select_pivot_plex(state, C)
        assert dec == PivotDecision(1, 0, 0b100)
        assert brute_force_pivot_check(g, MotifSpec.single("plex", 1, 3), [0], [], 1)

    def test_one_pass_equals_two_pass_on_random_states(self):
        rng = random.Random(2024)
        admitted = unadmitted = 0
        for trial in range(400):
            n = rng.randint(2, 14)
            g = random_gnp(n, rng.choice((0.3, 0.5, 0.7)), seed=9000 + trial)
            state = PlexState(g.adjacency_masks(), rng.randint(0, 3))
            for u in rng.sample(range(g.n), rng.randint(0, g.n - 1)):
                if state.admits(u):
                    state.push(u)
            rest = [v for v in range(g.n) if v not in state.R]
            C = sum(1 << v for v in rest if rng.random() < 0.7) or 1 << rest[0]
            want = two_pass_plex_pivot(state, C)
            assert select_pivot_plex(state, C) == want, (trial, state.R, C)
            # every candidate the slack rule admitted still qualifies
            qual = plex_pivot_qualifiers(state, C)
            assert all(u in qual for u in iter_bits(C)
                       if slack_rule_admits(state.adj, state.R, C, u, state.s)), trial
            admitted += want.pivot is not None
            unadmitted += want.pivot is None
        assert admitted > 50 and unadmitted > 50

    def test_definitional_certification_on_sampled_nodes(self):
        # every admitted plex pivot with |C1| <= 16, and the first 25 clique
        # pivots of each graph
        samples = {}

        def probe(rn, R, C, dec):
            if dec.pivot is not None and dec.C1.bit_count() <= 16:
                glob = [int(v) for v in rn.verts] + [int(rn.root)]
                key = (tuple(glob[r] for r in R), tuple(glob[i] for i in iter_bits(dec.C1)),
                       glob[dec.pivot])
                samples.setdefault(key, slack_rule_admits(rn.adj, R, C, dec.pivot, spec.s))

        checked = beyond_slack = 0
        for seed in range(4):
            g = random_gnp(13, 0.5, seed=300 + seed)
            specs = [MotifSpec.single("plex", s, q) for s in (1, 2, 3)
                     for q in range(2 * s + 1, 2 * s + 5)]
            for spec in specs + [MotifSpec.single("clique", 0, 3)]:
                samples.clear()
                count_by_pivot(g, spec, probe=probe)
                keys = list(samples)
                for R, C1, u in keys if spec.family == "plex" else keys[:25]:
                    assert brute_force_pivot_check(g, spec, list(R), list(C1), u), \
                        (seed, spec, R, C1, u)
                    checked += 1
                    beyond_slack += not samples[R, C1, u]
        # the hold-out charge admits pivots that the slack rule refused
        assert checked > 2000 and beyond_slack > 1000, (checked, beyond_slack)

    def test_reference_pivot_check_examples(self):
        g = reference_graph()
        spec = MotifSpec.single("plex", 1, 4)
        R = [0]
        C = [1, 2, 3, 4, 5, 6]
        for u, want in ((2, True), (3, False)):
            C1 = [v for v in C if v != u and g.has_edge(u, v)]
            assert brute_force_pivot_check(g, spec, R, C1, u) is want


class TestCountByPivot:
    def test_k6_range_binomials(self):
        run = count_by_pivot(complete_graph(6), MotifSpec("clique", 0, 3, 6))
        assert run.counts == {3: 20, 4: 15, 5: 6, 6: 1}

    def test_reference_counts(self):
        g = reference_graph()
        for (fam, s, q), want in REF7_COUNTS.items():
            assert count_by_pivot(g, MotifSpec.single(fam, s, q)).total(q) == want

    def test_range_equals_singles(self):
        for seed in range(5):
            g = random_gnp(16, 0.5, seed=1500 + seed)
            for fam, s in (("dclique", 1), ("plex", 1), ("clique", 0), ("plex", 2)):
                lo = 2 if fam == "clique" else max(s + 2, 2 * s + 1)
                run = count_by_pivot(g, MotifSpec(fam, s, lo, 8))
                for q in range(lo, 9):
                    single = count_by_pivot(g, MotifSpec.single(fam, s, q)).total(q)
                    assert run.total(q) == single, (seed, fam, s, q)

    def test_q1_range_counts_vertices_and_edges(self):
        g = random_gnp(12, 0.4, seed=4)
        run = count_by_pivot(g, MotifSpec("clique", 0, 1, 3))
        assert run.total(1) == g.n
        assert run.total(2) == g.m

    def test_pivot_always_exists_for_dclique(self):
        decs = []

        def probe(rn, R, C, dec):
            decs.append(dec.pivot)

        g = random_gnp(15, 0.5, seed=21)
        count_by_pivot(g, MotifSpec.single("dclique", 1, 4), probe=probe)
        assert decs and all(p is not None for p in decs)

    def test_debug_checks_pivot_set_clique_invariant(self):
        for seed in range(5):
            g = random_gnp(15, 0.55, seed=2500 + seed)
            for spec in (MotifSpec.single("dclique", 2, 5), MotifSpec.single("plex", 1, 4),
                         MotifSpec("plex", 2, 5, 8), MotifSpec("clique", 0, 3, 6)):
                run = count_by_pivot(g, spec, debug_checks=True)
                assert run.counts == count_by_pivot(g, spec).counts

    @pytest.mark.parametrize("fault", [0, 1])
    def test_debug_checks_guard_skipped_bounds(self, monkeypatch, fault):
        # a branch bound is skipped where it cannot prune; debug runs still
        # evaluate it there, and must not change the search
        monkeypatch.setattr(pruning, "BOUND_FAULT", fault)
        for seed in range(5):
            g = random_gnp(15, 0.55, seed=2500 + seed)
            for spec in (MotifSpec.single("dclique", 2, 5), MotifSpec.single("plex", 1, 4),
                         MotifSpec("plex", 2, 5, 8)):
                a = count_by_pivot(g, spec, debug_checks=True)
                b = count_by_pivot(g, spec)
                assert (a.counts, a.stats.nodes, a.stats.bound_pruned) == \
                    (b.counts, b.stats.nodes, b.stats.bound_pruned), (seed, spec)

    def test_debug_checks_catch_a_bound_below_its_floor(self, monkeypatch):
        rules = FAMILY_RULES["plex"]
        monkeypatch.setitem(FAMILY_RULES, "plex",
                            rules._replace(bound=lambda *a: rules.bound(*a) - 9))
        g = random_gnp(15, 0.55, seed=2500)
        spec = MotifSpec.single("plex", 1, 4)
        with pytest.raises(AssertionError, match="skipped bound"):
            count_by_pivot(g, spec, debug_checks=True)

    def test_debug_checks_catch_a_push_over_budget(self, monkeypatch):
        # a filter that lets every candidate through: debug runs refuse the
        # first push past the budget (unpruned, so no bound check trips first)
        class Unfiltered(DcliqueState):
            __slots__ = ()

            def filter_candidates(self, C, u=None):
                return C

        monkeypatch.setitem(FAMILY_RULES, "dclique",
                            FAMILY_RULES["dclique"]._replace(state=Unfiltered))
        g = random_gnp(15, 0.55, seed=2500)
        with pytest.raises(AssertionError, match="exceed the family's budget"):
            count_by_pivot(g, MotifSpec.single("dclique", 1, 4), prune=False,
                           debug_checks=True)

    @pytest.mark.parametrize("seed,n,p", [(11, 24, 0.5), (12, 30, 0.35), (13, 20, 0.65)])
    def test_search_tree_stats_pinned(self, seed, n, p):
        # (nodes, branch_iters, bound_pruned) of pivot and of listing; the
        # state's bookkeeping must not change which branches are taken
        g = random_gnp(n, p, seed=seed)
        for (sd, fam, s, q, prune), (piv, lst) in SEARCH_STATS.items():
            if sd != seed:
                continue
            spec = MotifSpec.single(fam, s, q)
            a = count_by_pivot(g, spec, prune=prune).stats
            b = count_by_listing(g, spec, prune=prune).stats
            assert (a.nodes, a.branch_iters, a.bound_pruned) == piv, (fam, s, q, prune)
            assert (b.nodes, b.branch_iters, b.bound_pruned) == lst, (fam, s, q, prune)

    def test_parallel_equals_serial(self):
        g = random_gnp(26, 0.4, seed=12)
        spec = MotifSpec("plex", 1, 3, 6)
        a = count_by_pivot(g, spec, threads=1)
        b = count_by_pivot(g, spec, threads=2)
        assert a.counts == b.counts

    def test_combinatorial_fraction_reported(self):
        g = random_gnp(20, 0.5, seed=5)
        run = count_by_pivot(g, MotifSpec.single("plex", 1, 4))
        frac = run.stats.combinatorial_fraction
        assert frac is not None and 0.0 <= frac <= 1.0
        assert run.stats.closure_credits + run.stats.comb_credits == run.total(4)

    def test_matches_listing_on_big_clique_family_runs(self):
        for seed in range(4):
            g = random_gnp(18, 0.55, seed=3500 + seed)
            for q in (3, 5, 7):
                spec = MotifSpec.single("clique", 0, q)
                assert (count_by_pivot(g, spec).total(q)
                        == count_by_listing(g, spec).count)


class TestLocalCounts:
    def test_k4_triangle_locals(self):
        g = complete_graph(4)
        loc = count_by_pivot(g, MotifSpec.single("clique", 0, 3), local="both").local
        assert loc.per_vertex == [3, 3, 3, 3]
        assert set(loc.per_edge.values()) == {2} and len(loc.per_edge) == 6
        assert sum(loc.per_vertex) == 3 * 4

    def test_vertex_sum_identity(self):
        for seed in range(5):
            g = random_gnp(15, 0.5, seed=4500 + seed)
            for fam, s, q in (("dclique", 1, 4), ("plex", 2, 5), ("clique", 0, 4)):
                run = count_by_pivot(g, MotifSpec.single(fam, s, q), local="vertex")
                assert sum(run.local.per_vertex) == q * run.total(q)

    def test_edge_sum_bounds(self):
        for seed in range(5):
            g = random_gnp(15, 0.5, seed=5500 + seed)
            # cliques: every result contributes exactly C(q,2) edges;
            # dcliques: between C(q,2)-s and C(q,2)
            q = 4
            run = count_by_pivot(g, MotifSpec.single("clique", 0, q), local="edge")
            assert sum(run.local.per_edge.values()) == math.comb(q, 2) * run.total(q)
            for s in (1, 2):
                run = count_by_pivot(g, MotifSpec.single("dclique", s, q + s), local="edge")
                total = run.total(q + s)
                esum = sum(run.local.per_edge.values())
                assert (math.comb(q + s, 2) - s) * total <= esum <= math.comb(q + s, 2) * total

    def test_locals_match_oracle(self):
        for seed in range(4):
            g = random_gnp(14, 0.5, seed=6500 + seed)
            for fam, s in (("dclique", 1), ("plex", 1), ("dclique", 2), ("plex", 2)):
                q = max(s + 2, 2 * s + 1)
                oracle = brute_force_count(g, MotifSpec.single(fam, s, q))
                run = count_by_pivot(g, MotifSpec.single(fam, s, q), local="both")
                assert run.local.per_vertex == oracle.per_vertex
                assert run.local.per_edge == oracle.per_edge

    def test_range_locals_sum_over_sizes(self):
        g = random_gnp(13, 0.5, seed=41)
        run = count_by_pivot(g, MotifSpec("dclique", 1, 3, 6), local="vertex")
        per_q = [brute_force_count(g, MotifSpec.single("dclique", 1, q)).per_vertex
                 for q in range(3, 7)]
        want = [sum(col) for col in zip(*per_q)]
        assert run.local.per_vertex == want

    def test_parallel_locals_merge_exactly(self):
        g = random_gnp(22, 0.45, seed=47)
        spec = MotifSpec.single("plex", 1, 4)
        a = count_by_pivot(g, spec, local="both", threads=1)
        b = count_by_pivot(g, spec, local="both", threads=2)
        assert a.local.per_vertex == b.local.per_vertex
        assert a.local.per_edge == b.local.per_edge


    @pytest.mark.parametrize("fam,s", [("clique", 0), ("dclique", 1), ("plex", 1)])
    def test_range_locals_match_oracle(self, fam, s):
        # q_high - 1 >= q_low: closure leaves also credit R itself
        for seed in range(3):
            g = random_gnp(13, 0.55, seed=7100 + seed)
            spec = MotifSpec(fam, s, 3, 6)
            oracle = brute_force_count(g, spec)
            run = count_by_pivot(g, spec, local="both")
            assert run.counts == oracle.totals
            assert run.local.per_vertex == oracle.per_vertex
            assert run.local.per_edge == oracle.per_edge

    def test_dclique_mixed_weight_leaves_match_oracle(self, monkeypatch):
        import hcscount.pivot as pivot
        seen = set()
        leaf = pivot._leaf

        def recording(nR, sizes, *args):
            seen.add(sum(1 for c in sizes if c))
            return leaf(nR, sizes, *args)

        monkeypatch.setattr(pivot, "_leaf", recording)
        for seed in range(3):
            g = random_gnp(14, 0.7, seed=7200 + seed)
            for spec in (MotifSpec.single("dclique", 2, 7), MotifSpec("dclique", 2, 5, 8)):
                oracle = brute_force_count(g, spec)
                run = count_by_pivot(g, spec, local="both")
                assert run.local.per_vertex == oracle.per_vertex, (seed, spec)
                assert run.local.per_edge == oracle.per_edge, (seed, spec)
        # some leaf's D held deficiencies 0, 1 and 2 at once
        assert 3 in seen

    def test_prune_does_not_change_locals(self):
        g = random_gnp(24, 0.4, seed=7300)
        for spec in (MotifSpec("clique", 0, 3, 6), MotifSpec("dclique", 1, 4, 7),
                     MotifSpec("plex", 1, 3, 7), MotifSpec.single("dclique", 2, 6)):
            a = count_by_pivot(g, spec, local="both", prune=True)
            b = count_by_pivot(g, spec, local="both", prune=False)
            assert a.counts == b.counts, spec
            assert a.local.per_vertex == b.local.per_vertex, spec
            assert a.local.per_edge == b.local.per_edge, spec

    def test_held_credits_flushed_mid_root(self, monkeypatch):
        import hcscount.pivot as pivot
        g = random_gnp(22, 0.5, seed=7400)
        specs = (MotifSpec("plex", 1, 3, 7), MotifSpec("dclique", 2, 5, 8))
        want = [count_by_pivot(g, spec, local="both").local for spec in specs]
        monkeypatch.setattr(pivot, "HOLD_LEAVES", 1)
        for spec, loc in zip(specs, want):
            got = count_by_pivot(g, spec, local="both").local
            assert got.per_vertex == loc.per_vertex
            assert got.per_edge == loc.per_edge


class TestBinomialLeafMemo:
    def test_credits_equal_direct_binomial_sums(self):
        for nR in range(0, 6):
            for nD in range(0, 25):
                for q_lo in range(1, 10):
                    for q_hi in range(q_lo, 12):
                        ks = [k for k in range(nD + 1) if q_lo <= nR + k <= q_hi]
                        want = (tuple((nR + k, binom(nD, k)) for k in ks),
                                sum(binom(nD, k) for k in ks),
                                (sum(binom(nD - 1, k - 1) for k in ks),),
                                ((sum(binom(nD - 2, k - 2) for k in ks),),))
                        assert _leaf(nR, (nD,), 0, q_lo, q_hi) == want, (nR, nD, q_lo, q_hi)
        assert _leaf.cache_info().maxsize is not None

    def test_member_and_pair_credits_against_enumeration(self):
        # one/two: the results holding member 0, and members 0 and 1
        for nR in range(0, 4):
            for nD in range(0, 8):
                for q_lo, q_hi in ((1, 3), (2, 6), (4, 4), (3, 9)):
                    subsets = [H for k in range(nD + 1)
                               for H in itertools.combinations(range(nD), k)
                               if q_lo <= nR + k <= q_hi]
                    _, tot, (one,), ((two,),) = _leaf(nR, (nD,), 0, q_lo, q_hi)
                    assert tot == len(subsets)
                    assert one == sum(0 in H for H in subsets)
                    assert two == sum({0, 1} <= set(H) for H in subsets)


class TestBinomialTable:
    def test_pascal_recurrence_and_edges(self):
        for n in range(25):
            assert binom(n, 0) == binom(n, n) == 1
            for k in range(1, n):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)
                assert binom(n, k) == math.comb(n, k)

    def test_out_of_range_is_zero(self):
        assert binom(5, 7) == 0
        assert binom(3, -1) == 0
        assert binom(-2, 0) == 0
