"""Graph loading, degeneracy ordering, and root-universe construction."""

import io

import numpy as np
import pytest

from hcscount import (DegeneracyOrder, ParseError, build_root_neighborhood,
                      collect_candidates, complete_graph, degeneracy_order,
                      from_edges, load_edge_list, random_gnp)


def identity_order(n: int) -> DegeneracyOrder:
    ids = np.arange(n)
    return DegeneracyOrder(ids, ids.copy(), 0, np.zeros(n, dtype=np.int64))


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list(io.BytesIO(b"0 1\n1 2\n2 0\n"))
        assert (g.n, g.m) == (3, 3)

    def test_self_loop_and_duplicate_dropped(self):
        g = load_edge_list(io.BytesIO(b"0 1\n1 0\n0 0\n"))
        assert (g.n, g.m) == (2, 1)
        assert g.stats.self_loops_dropped == 1
        assert g.stats.duplicates_dropped == 1

    def test_comments_and_blank_lines(self):
        g = load_edge_list(io.BytesIO(b"# header\n\n10 20\n# mid\n20 30\n"))
        assert (g.n, g.m) == (3, 2)
        assert g.stats.comment_lines == 2
        # original labels preserved
        assert list(g.orig_ids) == [10, 20, 30]

    def test_empty_input(self):
        g = load_edge_list(io.BytesIO(b""))
        assert (g.n, g.m) == (0, 0)

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError) as ei:
            load_edge_list(io.BytesIO(b"0 1\n1 x\n"))
        assert ei.value.line_no == 2

    @pytest.mark.parametrize("line", ["1_0 2", "\uff13 4", "5 \u0663"],
                             ids=["underscore", "fullwidth", "arabic-indic"])
    def test_non_decimal_token_reports_line(self, line):
        with pytest.raises(ParseError) as ei:
            load_edge_list(io.BytesIO(f"0 1\n{line}\n".encode()))
        assert ei.value.line_no == 2

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ParseError) as ei:
            load_edge_list(io.BytesIO(b"0 1\n4\n"))
        assert ei.value.line_no == 2

    @pytest.mark.parametrize("vid", [2**63, -2**63 - 1], ids=["above", "below"])
    def test_from_edges_rejects_ids_outside_int64(self, vid):
        assert from_edges([(2**63 - 1, -2**63)]).n == 2
        with pytest.raises(ParseError, match="outside the int64 range"):
            from_edges([(0, 1), (1, vid)])

    def test_arcs_is_twice_edge_count(self):
        g = load_edge_list(io.BytesIO(b"0 1\n1 2\n"))
        assert g.stats.arcs == 2 * g.m == 4

    def test_symmetrized_adjacency(self):
        g = load_edge_list(io.BytesIO(b"3 7\n"))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    @pytest.mark.parametrize("make", [
        lambda: from_edges([], vertex_universe=np.arange(5)),
        lambda: from_edges([(4, 4)], vertex_universe=np.array([9])),
        lambda: random_gnp(6, 0.0, 1),
        lambda: from_edges([]),
    ], ids=["universe", "self-loop", "gnp", "empty"])
    def test_edge_free_inputs_report_load_stats(self, make):
        g = make()
        assert (g.stats.n, g.stats.m) == (g.n, g.m)
        assert g.m == 0 and list(g.indptr) == [0] * (g.n + 1)

    def test_masks_and_edge_list_match_csr(self):
        g = random_gnp(15, 0.4, seed=3)
        masks = g.adjacency_masks()
        assert all(((masks[u] >> v) & 1) == g.has_edge(u, v)
                   for u in range(g.n) for v in range(g.n))
        assert g.edge_list() == [(u, int(v)) for u in range(g.n) for v in g.neighbors(u)
                                 if u < v]


class TestDegeneracyOrder:
    def test_triangle_is_2_core(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        o = degeneracy_order(g)
        assert o.degeneracy == 2
        assert list(o.core_numbers) == [2, 2, 2]

    def test_path_degeneracy_one(self):
        g = from_edges([(0, 1), (1, 2)])
        assert degeneracy_order(g).degeneracy == 1

    def test_min_degree_property_and_tie_break(self):
        # all four start at degree 1: 0 peels first (smallest id), leaving 1
        # at degree 0, the new minimum; then the tie between 2 and 3 repeats
        g = from_edges([(0, 1), (2, 3)], vertex_universe=np.arange(4))
        o = degeneracy_order(g)
        assert list(o.order) == [0, 1, 2, 3]

    def test_against_iterative_deletion_oracle(self):
        g = random_gnp(50, 0.2, seed=424242)
        o = degeneracy_order(g)

        # independent oracle: delta = max k such that the k-core is nonempty,
        # by repeated deletion of minimum-degree vertices
        def k_core_nonempty(k: int) -> bool:
            alive = set(range(g.n))
            changed = True
            while changed:
                changed = False
                for u in list(alive):
                    if sum(1 for v in g.neighbors(u) if v in alive) < k:
                        alive.discard(u)
                        changed = True
            return bool(alive)

        delta_oracle = max(k for k in range(g.n + 1) if k_core_nonempty(k))
        assert o.degeneracy == delta_oracle

        # every vertex has at most delta higher-rank neighbors
        for u in range(g.n):
            out_deg = sum(1 for v in g.neighbors(u) if o.rank[v] > o.rank[u])
            assert out_deg <= o.degeneracy

        # order property: v_i has minimum degree in the suffix subgraph
        alive = set(range(g.n))
        for u in o.order:
            deg_u = sum(1 for v in g.neighbors(u) if v in alive)
            assert all(deg_u <= sum(1 for w in g.neighbors(x) if w in alive)
                       for x in alive)
            alive.discard(int(u))


class TestRootNeighborhood:
    def test_star_center_as_first_root(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)])
        one, two = collect_candidates(g, identity_order(4), 0, two_hop=True)
        assert sorted(one) == [1, 2, 3]
        assert len(two) == 0  # leaves meet only through the center, already 1-hop

    def test_path_two_hop(self):
        g = from_edges([(0, 1), (1, 2)])
        one, two = collect_candidates(g, identity_order(3), 0, two_hop=True)
        assert list(one) == [1]
        assert list(two) == [2]

    def test_two_hop_middle_vertex_may_have_any_rank(self):
        # 0-2 go through middle 1; with peeling, 1 outranks 0 but not 2
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 6), (2, 6), (1, 5)])
        o = degeneracy_order(g)
        for root in range(g.n):
            one, two = collect_candidates(g, o, root, two_hop=True)
            for w in two:
                assert not g.has_edge(root, int(w))
                assert o.rank[w] > o.rank[root]
                assert any(g.has_edge(int(w), int(v)) for v in g.neighbors(root))

    def test_against_bfs_depth2_oracle(self):
        g = random_gnp(40, 0.15, seed=7)
        o = degeneracy_order(g)
        for root in range(g.n):
            one, two = collect_candidates(g, o, root, two_hop=True)
            got = set(map(int, one)) | set(map(int, two))
            want = set()
            for v in g.neighbors(root):
                if o.rank[v] > o.rank[root]:
                    want.add(int(v))
                for w in g.neighbors(v):
                    w = int(w)
                    if w != root and o.rank[w] > o.rank[root] and not g.has_edge(root, w):
                        want.add(w)
            assert got == want

    def test_each_edge_covered_once_as_one_hop(self):
        g = random_gnp(30, 0.25, seed=11)
        o = degeneracy_order(g)
        seen = set()
        for root in range(g.n):
            one, _ = collect_candidates(g, o, root, two_hop=False)
            for v in one:
                key = (root, int(v))
                assert key not in seen
                seen.add(key)
        assert len(seen) == g.m

    def test_local_adjacency_matches_global_and_symmetric(self):
        g = random_gnp(25, 0.3, seed=3)
        o = degeneracy_order(g)
        for root in range(g.n):
            one, two = collect_candidates(g, o, root, two_hop=True)
            rn = build_root_neighborhood(g, root, one, two)
            L = len(rn.verts)
            ids = [int(v) for v in rn.verts] + [root]
            for i in range(L + 1):
                for j in range(L + 1):
                    bit = (rn.adj[i] >> j) & 1
                    assert bit == ((rn.adj[j] >> i) & 1)
                    assert bit == int(g.has_edge(ids[i], ids[j]))

    def test_complete_graph_universe(self):
        g = complete_graph(6)
        o = degeneracy_order(g)
        first = int(o.order[0])
        one, two = collect_candidates(g, o, first, two_hop=True)
        assert len(one) == 5 and len(two) == 0
