#!/usr/bin/env python3
"""Print four sha256 lines over the answers and search statistics of a fixed matrix.

Usage: PYTHONPATH=src python3 scripts/answer_digest.py [--expect KEY=PREFIX ...]

Both engines run over fixed graphs (the benchmark generator's social, dense
and gate inputs, plus four seeded G(n, p) graphs) and a fixed list of specs,
with pruning on and off; the pivot engine runs with local="both". Each run
adds its counts, sorted per-vertex and per-edge locals and every integer
RunStats field (so not wall_time) to the first digest. The second digest
covers the eight small graphs (gate and G(n, p)) only: both engines again
with threads=2, which goes through the process pool and the merge of its
chunks, and the sorted result sets of enumerate_by_listing. The third
digest covers the rows of both without their RunStats: counts, locals and
result sets only. The fourth digest covers the brute-force oracle on the
eight small graphs: every bucket of sweep(g, 2, 7) (its total, per-vertex
and per-edge lists) and brute_force_count with its result sets for three
specs. Two checkouts that give the same answers and search the
same trees on this matrix print the same lines: run the script in both and
compare. A change to the search tree alone (a pivot rule, a bound) moves the
first two lines and leaves the last two. It takes about a minute and a half
on two cores.

Each --expect KEY=PREFIX (KEY is runs, "extended runs", answers or oracle)
makes the script exit 1, naming every such line whose sha256 does not
start with PREFIX.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from hcscount import (MotifSpec, brute_force_count, count_by_listing,  # noqa: E402
                      count_by_pivot, enumerate_by_listing, load_edge_list,
                      random_gnp, sweep)

SEED = 1
LARGE = ("social", "dense")
GNP = [(20, 0.5, 7001), (24, 0.4, 7002), (30, 0.3, 7003), (18, 0.7, 7004)]
# (family, s, q_low, q_high); the listing engine takes the single sizes only
SPECS = [
    ("clique", 0, 4, 4), ("clique", 0, 3, 7),
    ("dclique", 1, 3, 3), ("dclique", 1, 5, 5), ("dclique", 2, 4, 4),
    ("dclique", 2, 6, 6), ("dclique", 1, 3, 7), ("dclique", 2, 4, 8),
    ("dclique", 3, 5, 8),
    ("plex", 1, 3, 3), ("plex", 1, 5, 5), ("plex", 2, 5, 5), ("plex", 2, 6, 6),
    ("plex", 1, 3, 7), ("plex", 2, 5, 7),
]
# the oracle's envelope and the specs it also enumerates directly
SWEEP_S, SWEEP_Q = 2, 7
ORACLE_SPECS = [("clique", 0, 3, 7), ("dclique", 1, 3, 7), ("plex", 2, 5, 7)]


def graphs(tmp: Path):
    paths = {"social": gen.social(SEED, tmp, 500)[0],
             "dense": gen.dense(SEED, tmp, n=120, blocks=4, size_lo=20, size_hi=23)[0]}
    for i, path in enumerate(gen.gate(SEED, tmp, [(28, 0.2), (21, 0.4), (17, 0.6),
                                                  (26, 0.6)])):
        paths[f"gate{i}"] = path
    for name, path in paths.items():
        yield name, load_edge_list(path)
    for n, p, seed in GNP:
        yield f"gnp{n}_{p}_{seed}", random_gnp(n, p, seed=seed)


def stats_key(stats) -> tuple:
    return tuple((f.name, getattr(stats, f.name)) for f in dataclasses.fields(stats)
                 if isinstance(getattr(stats, f.name), int))


def engine_rows(name, g, spec, prune, threads) -> list[tuple]:
    piv = count_by_pivot(g, spec, prune=prune, local="both", threads=threads)
    rows = [("pivot", name, spec, prune, sorted(piv.counts.items()),
             piv.local.per_vertex, sorted(piv.local.per_edge.items()),
             stats_key(piv.stats))]
    if spec.q_low == spec.q_high:
        lst = count_by_listing(g, spec, prune=prune, threads=threads)
        rows.append(("listing", name, spec, prune, lst.count, stats_key(lst.stats)))
    return rows


def oracle_rows(name, g) -> list[tuple]:
    tally = sweep(g, SWEEP_S, SWEEP_Q)
    rows = [("sweep", name, key, tally.totals[key], tally.verts[key], tally.edges[key])
            for key in sorted(tally.totals)]
    for fam, s, lo, hi in ORACLE_SPECS:
        spec = MotifSpec(fam, s, lo, hi)
        r = brute_force_count(g, spec, collect_sets=True)
        rows.append(("brute", name, spec, sorted(r.totals.items()), r.per_vertex,
                     sorted(r.per_edge.items()), sorted(r.sets)))
    return rows


KEYS = ("runs", "extended runs", "answers", "oracle")


def parse_expect(ap: argparse.ArgumentParser, items: list[str]) -> dict[str, str]:
    expect = {}
    for item in items:
        key, sep, prefix = item.partition("=")
        if not sep or key not in KEYS:
            ap.error(f"--expect takes KEY=PREFIX with KEY one of {', '.join(KEYS)}; "
                     f"got {item!r}")
        expect[key] = prefix
    return expect


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Digest the answers and search statistics "
                                             "of a fixed matrix.")
    ap.add_argument("--expect", action="append", default=[], metavar="KEY=PREFIX",
                    help="exit 1 unless line KEY's sha256 starts with PREFIX (repeatable)")
    expect = parse_expect(ap, ap.parse_args(argv).expect)
    digests = {key: hashlib.sha256() for key in KEYS}
    runs = dict.fromkeys(digests, 0)
    with tempfile.TemporaryDirectory() as tmp:
        for name, g in graphs(Path(tmp)):
            if name not in LARGE:
                for row in oracle_rows(name, g):
                    digests["oracle"].update(repr(row).encode())
                    runs["oracle"] += 1
            for fam, s, lo, hi in SPECS:
                spec = MotifSpec(fam, s, lo, hi)
                for prune in (True, False):
                    rows = {"runs": engine_rows(name, g, spec, prune, 1)}
                    if name not in LARGE:
                        wide = engine_rows(name, g, spec, prune, 2)
                        if lo == hi:
                            found = []
                            enumerate_by_listing(g, spec, found.append, prune=prune)
                            wide.append(("enumerate", name, spec, prune, sorted(found)))
                        rows["extended runs"] = wide
                    for key, part in rows.items():
                        for row in part:
                            digests[key].update(repr(row).encode())
                            runs[key] += 1
                            # every row but an enumeration ends with its stats
                            answer = row if row[0] == "enumerate" else row[:-1]
                            digests["answers"].update(repr(answer).encode())
                            runs["answers"] += 1
    failed = 0
    for key, digest in digests.items():
        hexdigest = digest.hexdigest()
        print(f"{runs[key]} {key} sha256={hexdigest}")
        if not hexdigest.startswith(expect.get(key, "")):
            print(f"{key}: sha256={hexdigest} does not start with {expect[key]}",
                  file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
