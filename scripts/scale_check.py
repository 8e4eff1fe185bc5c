#!/usr/bin/env python3
"""Time set-up and three counts per engine on the benchmark generator's social graph of size N.

Usage: PYTHONPATH=src python3 scripts/scale_check.py N

Writes gen.social(1, tmp, N) to a temporary directory (N is the size asked
for; the generator keeps a few percent fewer vertices), loads it, orders it
and counts its pairs within distance 2 (the cand_pre of every s >= 1 run,
computed once per graph), each timed on its own, then counts dclique(1,9),
plex(1,9) and clique(0,9) serially with the pivot engine, pruning on, so
that each run visits only the roots in the (q - 1 - s)-core. Each spec runs
twice: first on a fresh copy of the order, which still has to build the
lists it caches, then again on the same copy. Every line gives the times in
seconds (wall clock) and the count, cand_pre, cand_now and nodes, which must
be the same in both runs and across checkouts that search the same trees. A
third run per spec, on the same warm copy with threads=2, gives the parallel
time and its speedup over the warm serial run; the first of these calls also
starts the process pool. Last, the listing engine counts the same spec
serially on the warm copy; its count must equal the pivot's.
Generating the graph is not timed; at N = 100,000 it takes about a minute.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from hcscount import (DegeneracyOrder, MotifSpec, count_by_listing,  # noqa: E402
                      count_by_pivot, degeneracy_order, load_edge_list)

SPECS = [MotifSpec.single("dclique", 1, 9), MotifSpec.single("plex", 1, 9),
         MotifSpec.single("clique", 0, 9)]


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="vertex count asked of the generator")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = gen.social(1, Path(tmp), args.n)[0]
        g, t_load = timed(load_edge_list, path)
    order, t_order = timed(degeneracy_order, g)
    print(f"social n={g.n} m={g.m} degeneracy={order.degeneracy} "
          f"load {t_load:.2f} s order {t_order:.2f} s")
    pairs, t_pairs = timed(lambda: g.pairs_within_two)
    print(f"pairs within distance 2: {pairs} in {t_pairs:.2f} s")
    for spec in SPECS:
        fresh = DegeneracyOrder(order.order, order.rank, order.degeneracy, order.core_numbers)
        for label in ("first", "repeat"):
            run, t = timed(count_by_pivot, g, spec, order=fresh, threads=1)
            st = run.stats
            print(f"{spec.describe()} {label} {t:.2f} s count={run.count} "
                  f"cand_pre={st.cand_pre} cand_now={st.cand_now} nodes={st.nodes}")
        par, t_par = timed(count_by_pivot, g, spec, order=fresh, threads=2)
        print(f"{spec.describe()} threads=2 {t_par:.2f} s speedup {t / t_par:.2f}x "
              f"count={par.count} nodes={par.stats.nodes}")
        lst, t_lst = timed(count_by_listing, g, spec, order=fresh, threads=1)
        print(f"{spec.describe()} list {t_lst:.2f} s count={lst.count} "
              f"cand_now={lst.stats.cand_now} nodes={lst.stats.nodes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
