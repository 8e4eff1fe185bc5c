"""Oracle self-checks: definitional counts, sweep consistency, guards."""

import pytest

from hcscount import (MotifSpec, OracleInfeasibleError, brute_force_count,
                      brute_force_pivot_check, complete_graph, count_by_listing,
                      count_by_pivot, random_gnp, sweep)
from conftest import REF7_COUNTS, reference_graph


class TestBruteForceCount:
    def test_k5_triangles(self):
        r = brute_force_count(complete_graph(5), MotifSpec.single("clique", 0, 3))
        assert r.total(3) == 10

    def test_reference_graph(self):
        g = reference_graph()
        for (fam, s, q), want in REF7_COUNTS.items():
            assert brute_force_count(g, MotifSpec.single(fam, s, q)).total(q) == want

    def test_three_way_agreement_on_seeded_graph(self):
        g = random_gnp(20, 0.4, seed=123456)
        for fam, s, q in (("dclique", 1, 5), ("plex", 1, 5), ("clique", 0, 4)):
            spec = MotifSpec.single(fam, s, q)
            o = brute_force_count(g, spec).total(q)
            assert o == count_by_listing(g, spec).count
            assert o == count_by_pivot(g, spec).total(q)

    def test_internal_consistency(self):
        g = random_gnp(14, 0.5, seed=9)
        spec = MotifSpec.single("plex", 1, 4)
        r = brute_force_count(g, spec)
        assert sum(r.per_vertex) == 4 * r.total(4)

    def test_feasibility_guard(self):
        g = random_gnp(401, 0.01, seed=1)
        with pytest.raises(OracleInfeasibleError):
            brute_force_count(g, MotifSpec.single("clique", 0, 3))

    def test_range_totals(self):
        g = random_gnp(12, 0.5, seed=77)
        r = brute_force_count(g, MotifSpec("plex", 1, 3, 5))
        for q in (3, 4, 5):
            assert r.total(q) == brute_force_count(
                g, MotifSpec.single("plex", 1, q)).total(q)


class TestSweep:
    def test_matches_direct_enumeration(self):
        g = random_gnp(16, 0.45, seed=3141)
        tally = sweep(g, 2, 6)
        for fam in ("clique", "dclique", "plex"):
            for s in ((0,) if fam == "clique" else (1, 2)):
                lo = 2 if fam == "clique" else max(s + 2, 2 * s + 1)
                spec = MotifSpec(fam, s, lo, 6)
                a = tally.result_for(spec, g.n)
                b = brute_force_count(g, spec)
                assert a.totals == b.totals
                assert a.per_vertex == b.per_vertex
                assert a.per_edge == b.per_edge


class TestPivotCheck:
    def test_s0_common_neighbor_is_pivot(self):
        g = complete_graph(5)
        assert brute_force_pivot_check(g, MotifSpec.single("clique", 0, 3),
                                       R=[0], C1=[1, 2], u=3)

    def test_reference_examples(self):
        g = reference_graph()
        spec = MotifSpec.single("plex", 1, 4)
        C = [1, 2, 3, 4, 5, 6]
        c1_of = lambda u: [v for v in C if v != u and g.has_edge(u, v)]
        assert brute_force_pivot_check(g, spec, [0], c1_of(2), 2) is True
        assert brute_force_pivot_check(g, spec, [0], c1_of(3), 3) is False

    def test_hold_out_size_guard(self):
        g = complete_graph(30)
        with pytest.raises(OracleInfeasibleError):
            brute_force_pivot_check(g, MotifSpec.single("clique", 0, 3),
                                    R=[0], C1=list(range(1, 29)), u=29)


class TestVerifyHarness:
    def test_clean_run_passes(self):
        from hcscount.verify import run_verification
        rep = run_verification(seeds=2, q_max=5)
        assert rep.passed
        assert rep.specs_checked > 0

    def test_prune_bound_fault_is_caught_with_counterexample(self):
        from hcscount.verify import run_verification
        rep = run_verification(seeds=2, q_max=5, fault="prune-bound")
        assert not rep.passed
        mm = rep.mismatches[0]
        assert mm.minimized_edges is not None
        assert mm.minimized_n <= mm.n

    def test_overflow_fault_raises(self):
        from hcscount.runner import CounterOverflowError
        from hcscount.verify import run_verification
        with pytest.raises(CounterOverflowError):
            run_verification(seeds=1, q_max=5, fault="overflow")
