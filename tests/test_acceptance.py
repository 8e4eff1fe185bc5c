"""Acceptance criteria, one test per criterion, each printing a PASS line.

The primary gate is zero-tolerance three-way agreement (oracle, listing,
pivot) over 200 seeded random graphs, including local tallies and the
pruning on/off ablation. Large-corpus anchors (Epinions, DBLP, wiki-Vote)
run only when the SNAP files are present (see scripts/fetch_snap.py) and
skip with a diagnostic otherwise.
"""

import itertools
import json
import math
import multiprocessing as mp
import random
import subprocess
import sys
import time

import pytest

from hcscount import (MotifSpec, brute_force_count, count_by_listing,
                      count_by_pivot, from_edges, knapsack_counts, random_gnp)
from hcscount.oracle import sweep
from hcscount.runner import RunStats, prepare_root
from conftest import REF7_COUNTS, load_dataset, reference_graph

pytestmark = pytest.mark.acceptance


def _passline(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS: {name}: {detail}")


def _spec_matrix():
    out = []
    for fam in ("dclique", "plex"):
        for s in (0, 1, 2):
            # dclique from the floor of MotifSpec.validate; plex from 2 even at s = 0
            for q in range(s + 2 if fam == "dclique" else max(2, 2 * s + 1), 8):
                out.append(MotifSpec.single(fam, s, q))
    return out


def _corpus():
    rng = random.Random(20240917)
    out = []
    for i in range(200):
        out.append((i, rng.randint(15, 35), (0.2, 0.4, 0.6)[i % 3], 777_000 + i))
    return out


def _check_corpus_graph(task):
    idx, n, p, seed = task
    g = random_gnp(n, p, seed)
    tally = sweep(g, 2, 7)
    failures = []
    runs = 0
    for spec in _spec_matrix():
        runs += 1
        q = spec.q_low
        oracle = tally.result_for(spec, g.n)
        want = oracle.total(q)
        listed = count_by_listing(g, spec).count
        listed_np = count_by_listing(g, spec, prune=False).count
        piv = count_by_pivot(g, spec, local="both")
        piv_np = count_by_pivot(g, spec, prune=False).total(q)
        if not (want == listed == listed_np == piv.total(q) == piv_np):
            failures.append((idx, spec.describe(), "total",
                             want, listed, listed_np, piv.total(q), piv_np))
        if oracle.per_vertex != piv.local.per_vertex:
            failures.append((idx, spec.describe(), "per-vertex", None))
        if oracle.per_edge != piv.local.per_edge:
            failures.append((idx, spec.describe(), "per-edge", None))
    return runs, failures


def test_three_way_agreement_property_gate():
    """200 seeded graphs x full spec matrix x {oracle, listing+-prune,
    pivot+-prune}, with per-vertex and per-edge tallies. Zero tolerance.
    Doubles as the pruning ablation on the property corpus."""
    t0 = time.time()
    tasks = _corpus()
    total_runs = 0
    failures = []
    with mp.Pool(processes=2, maxtasksperchild=20) as pool:
        for runs, fails in pool.imap_unordered(_check_corpus_graph, tasks):
            total_runs += runs
            failures.extend(fails)
    assert not failures, f"{len(failures)} disagreements: {failures[:5]}"
    _passline("three-way agreement",
              f"200 graphs, {total_runs} spec runs x 5 engine variants, "
              f"locals included, {time.time() - t0:.0f}s")


def test_oracle_matches_pivot_on_sparse_graph():
    """Oracle = pivot, totals and locals, on a sparse G(120, 0.05): the
    oracle's push walks only the live candidates and S, which here is far
    fewer vertices than the n - 1 of a full walk. Seed 36 gives the graph
    two 4-cliques, so that every spec has results."""
    g = random_gnp(120, 0.05, seed=36)
    tally = sweep(g, 2, 5)
    found = {}
    for spec in (MotifSpec.single("clique", 0, 4), MotifSpec.single("dclique", 2, 4),
                 MotifSpec.single("plex", 2, 5)):
        oracle = tally.result_for(spec, g.n)
        piv = count_by_pivot(g, spec, local="both")
        assert oracle.totals == piv.counts
        assert oracle.per_vertex == piv.local.per_vertex
        assert oracle.per_edge == piv.local.per_edge
        found[spec.describe()] = oracle.total(spec.q_low)
    assert all(found.values())
    _passline("sparse oracle = pivot", f"G(120, 0.05), {found}")


def test_reference_fixture_counts():
    """The transcribed 7-vertex example: all five printed counts, exact."""
    g = reference_graph()
    for (fam, s, q), want in sorted(REF7_COUNTS.items()):
        spec = MotifSpec.single(fam, s, q)
        assert brute_force_count(g, spec).total(q) == want
        assert count_by_listing(g, spec).count == want
        assert count_by_pivot(g, spec).total(q) == want
    _passline("reference fixture",
              "4-clique=2, (4,1)-dclique=20, (4,1)-plex=25, "
              "(5,1)-dclique=1, (5,1)-plex=9 on all three routes")


def _sig3(x: int) -> float:
    return float(f"{x:.3g}")


def test_epinions_anchors():
    """Epinions size-8 counts to 3 significant figures; exact goldens after."""
    g = load_dataset("epinions")
    assert g.n == 75879
    import pathlib
    golden_path = pathlib.Path(__file__).parent / "goldens" / "epinions_q8.json"
    expected_3sig = {"clique": 4.53e8, "dclique": 4.02e9, "plex": 1.95e10}
    got = {}
    for fam in ("clique", "dclique", "plex"):
        s = 0 if fam == "clique" else 1
        run = count_by_pivot(g, MotifSpec.single(fam, s, 8), threads=2)
        got[fam] = run.total(8)
        assert _sig3(got[fam]) == expected_3sig[fam], \
            f"{fam}: {got[fam]} rounds to {_sig3(got[fam])}, want {expected_3sig[fam]}"
    if golden_path.exists():
        golden = json.loads(golden_path.read_text())
        assert {k: int(v) for k, v in golden.items()} == got
    else:
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps({k: str(v) for k, v in got.items()}, indent=2))
    _passline("epinions anchors", f"exact counts {got}")


def test_dblp_pivot_under_60s():
    """(9,1)-dclique and (9,1)-plex finish within 60s each on the pivot engine."""
    g = load_dataset("dblp")
    times = {}
    for fam in ("dclique", "plex"):
        t0 = time.time()
        run = count_by_pivot(g, MotifSpec.single(fam, 1, 9), threads=2)
        times[fam] = time.time() - t0
        assert run.total(9) > 0
        assert times[fam] < 60.0, f"{fam} took {times[fam]:.1f}s"
    _passline("dblp pivot speed", f"{times}")


def test_wiki_vote_range_consistency():
    """One q-range 5:20 run equals 16 single-q runs; wall time within 5x of
    the single q=5 run."""
    g = load_dataset("wiki-vote")
    assert g.n == 7115 and g.stats.arcs == 201524
    for fam in ("dclique", "plex"):
        t0 = time.time()
        rng = count_by_pivot(g, MotifSpec(fam, 1, 5, 20), threads=2)
        t_range = time.time() - t0
        t0 = time.time()
        single5 = count_by_pivot(g, MotifSpec.single(fam, 1, 5), threads=2)
        t_single = time.time() - t0
        assert rng.total(5) == single5.total(5)
        for q in range(6, 21):
            assert rng.total(q) == count_by_pivot(
                g, MotifSpec.single(fam, 1, q), threads=2).total(q), (fam, q)
        assert t_range <= 5 * t_single, (fam, t_range, t_single)
    _passline("wiki-vote range consistency", "range == 16 singles, time within 5x")


def test_wiki_vote_reduction_rate():
    """Candidate reduction removes at least 90% at s=1, q=10."""
    g = load_dataset("wiki-vote")
    from hcscount import degeneracy_order
    order = degeneracy_order(g)
    rates = {}
    for fam in ("dclique", "plex"):
        stats = RunStats()
        spec = MotifSpec.single(fam, 1, 10)
        for root in range(g.n):
            prepare_root(g, order, root, spec, True, stats)
        stats.cand_pre = g.pairs_within_two
        rates[fam] = stats.reduction_rate
        assert rates[fam] >= 0.90, rates
    _passline("wiki-vote reduction rate", f"{rates}")


def test_knapsack_against_enumeration():
    """1000 random (weights, budget, k) instances with |D| <= 12, plus the
    worked instance (weights 0,0,1,1; budget 1; k=3 -> 2)."""
    assert knapsack_counts([0, 0, 1, 1], budget=1, k=3) == 2
    rng = random.Random(424242)
    for trial in range(1000):
        nd = rng.randint(1, 12)
        weights = [rng.randint(0, 4) for _ in range(nd)]
        budget = rng.randint(0, 5)
        k = rng.randint(0, nd)
        expect = sum(1 for H in itertools.combinations(range(nd), k)
                     if sum(weights[i] for i in H) <= budget)
        got = knapsack_counts(weights, budget, k)
        assert got == expect, (trial, weights, budget, k, got, expect)
    _passline("knapsack vs enumeration", "1000 instances + worked example")


def test_exact_arithmetic_stress(tmp_path):
    """Counts beyond 2^64 are produced and serialized losslessly; an injected
    fixed-width counter fault exits with code 4."""
    n = 80
    g = from_edges([(u, v) for u in range(n) for v in range(u + 1, n)])
    run = count_by_pivot(g, MotifSpec("clique", 0, 2, n))
    for q in range(2, n + 1):
        assert run.total(q) == math.comb(n, q)
    big = run.total(40)
    assert big > 2**64
    assert int(str(big)) == big  # decimal serialization is lossless

    edge_file = tmp_path / "k12.txt"
    edge_file.write_text("".join(f"{u} {v}\n"
                                 for u in range(12) for v in range(u + 1, 12)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hcscount import runner; runner.COUNTER_LIMIT = 10\n"
         "from hcscount.cli import main\n"
         "sys.exit(main(['count', '--input', sys.argv[1], '--motif', 'clique',"
         " '--s', '0', '--q', '3', '--threads', '1']))",
         str(edge_file)],
        capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    _passline("exact arithmetic", f"C(80,40)={big} > 2^64; injected overflow exits 4")
