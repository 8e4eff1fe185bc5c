"""Command-line interface.

Subcommands: count (global/range counts), local (per-vertex/per-edge TSV
export), profile (clique-to-HCS ratio vector), verify (three-way agreement).

Exit codes: 0 ok, 1 I/O or parse error, 2 invalid motif or run parameters,
3 verification mismatch (including a failed local-count self-check),
4 counter overflow. An --output or --json path that cannot be written is
found before the input is loaded (exit 1).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .graph import ParseError, degeneracy_order, load_edge_list
from .listing import count_by_listing
from .motifs import MotifSpec, SpecError
from .pivot import count_by_pivot
from .report import hgp_profile, run_report, run_summary
from .runner import CounterOverflowError, RunConfigError, resolve_threads
from .verify import FAULTS, run_verification

EXIT_OK = 0
EXIT_IO = 1
EXIT_SPEC = 2
EXIT_MISMATCH = 3
EXIT_OVERFLOW = 4

log = logging.getLogger("hcscount")


def _add_spec_args(p: argparse.ArgumentParser, families=("dclique", "plex", "clique")) -> None:
    p.add_argument("--motif", required=True, choices=families)
    p.add_argument("--s", type=int, required=True, help="relaxation budget (0 for clique)")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--q", type=int, help="exact target size")
    grp.add_argument("--q-range", metavar="L:R", help="count all sizes L..R at once")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list file ('#' comments, two ids per line)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable candidate reduction and branch bounds")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes over roots (default: HCS_THREADS or all cores)")
    p.add_argument("--json", metavar="PATH", help="write a machine-readable report")


def _parse_spec(args, *, need_range: bool = False) -> MotifSpec:
    if args.q_range:
        try:
            lo, hi = args.q_range.split(":")
            spec = MotifSpec(args.motif, args.s, int(lo), int(hi))
        except ValueError:
            raise SpecError(f"bad --q-range {args.q_range!r}; expected L:R") from None
    elif args.q is not None:
        if need_range:
            raise SpecError("this command requires --q-range")
        spec = MotifSpec.single(args.motif, args.s, args.q)
    else:
        raise SpecError("one of --q or --q-range is required")
    return spec.validate()


class OutputError(OSError):
    """An --output or --json path cannot be opened for writing."""


def _check_outputs(*paths: str | None) -> None:
    """Fail before loading on an output path that cannot be opened for
    writing. The check writes nothing: an existing file keeps its bytes, and
    a file that the check creates is removed again."""
    for path in paths:
        if path is None:
            continue
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as e:
            raise OutputError(f"cannot write {path}: {e.strerror}") from None
        if not existed:
            os.remove(path)


def _load(path: str):
    g = load_edge_list(path)
    order = degeneracy_order(g)
    log.info("loaded %s: %s degeneracy=%d", path, g.stats.summary(), order.degeneracy)
    return g, order


def _write_json(path: str | None, doc: dict) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")


def cmd_count(args) -> int:
    spec = _parse_spec(args)
    if args.method == "list" and spec.is_range:
        raise SpecError("--method list counts a single size (--q); use --method pivot "
                        "for --q-range")
    threads = resolve_threads(args.threads)
    _check_outputs(args.json)
    g, order = _load(args.input)
    if args.method == "list":
        run = count_by_listing(g, spec, prune=not args.no_prune, threads=threads, order=order)
    else:
        run = count_by_pivot(g, spec, prune=not args.no_prune, threads=threads, order=order)
    print(run_summary(run, args.method))
    _write_json(args.json, run_report(args.input, g, run, args.method, threads))
    return EXIT_OK


def _local_mismatch(spec: MotifSpec, run, granularity: str) -> str | None:
    """Self-check of a local run's column sum against its counts.

    Every size-q result holds q vertices, and between C(q,2) - m(q) and
    C(q,2) edges, where m(q) is the most edges it may miss: 0 for clique,
    s for dclique and floor(q*s/2) for plex.
    """
    if granularity == "vertex":
        total = sum(run.local.per_vertex)
        expect = sum(q * c for q, c in run.counts.items())
        if total != expect:
            return f"vertex-count column sum {total} != sum_q q*count {expect}"
        return None
    total = sum(run.local.per_edge.values())
    hi = sum(math.comb(q, 2) * c for q, c in run.counts.items())
    # a clique's s is 0
    lo = hi - sum((q * spec.s // 2 if spec.family == "plex" else spec.s) * c
                  for q, c in run.counts.items())
    if not lo <= total <= hi:
        return f"edge-count column sum {total} outside [{lo}, {hi}]"
    return None


def cmd_local(args) -> int:
    spec = _parse_spec(args)
    threads = resolve_threads(args.threads)
    _check_outputs(args.output, args.json)
    g, order = _load(args.input)
    run = count_by_pivot(g, spec, prune=not args.no_prune, threads=threads,
                         local=args.local, order=order)
    mismatch = _local_mismatch(spec, run, args.local)
    if mismatch:
        print(f"verification mismatch: {mismatch}", file=sys.stderr)
        return EXIT_MISMATCH
    orig = g.orig_ids
    with open(args.output, "w") as fh:
        if args.local == "vertex":
            for v, c in enumerate(run.local.per_vertex):
                fh.write(f"{orig[v]}\t{c}\n")
        else:
            for (u, v), c in sorted(run.local.per_edge.items(),
                                    key=lambda kv: (orig[kv[0][0]], orig[kv[0][1]])):
                a, b = int(orig[u]), int(orig[v])
                if a > b:
                    a, b = b, a
                fh.write(f"{a}\t{b}\t{c}\n")
    print(run_summary(run, "pivot"))
    print(f"  wrote {args.local} counts to {args.output}")
    _write_json(args.json, run_report(args.input, g, run, "pivot", threads,
                                      local_output=args.output))
    return EXIT_OK


def cmd_profile(args) -> int:
    spec = _parse_spec(args, need_range=True)
    threads = resolve_threads(args.threads)
    _check_outputs(args.json)
    g, order = _load(args.input)
    prof = hgp_profile(g, spec.family, spec.s, spec.q_low, spec.q_high,
                       prune=not args.no_prune, threads=threads, order=order)
    print(f"profile {spec.family}(s={spec.s}) vs clique, q in [{spec.q_low},{spec.q_high}]")
    for q in range(spec.q_low, spec.q_high + 1):
        r = prof.ratio(q)
        print(f"  q={q}: clique={prof.clique_counts.get(q, 0)} "
              f"hcs={prof.hcs_counts.get(q, 0)} ratio={'null' if r is None else r}")
    _write_json(args.json, prof.to_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = None
    if args.input:
        graph, _ = _load(args.input)
    report = run_verification(seeds=args.seeds, graph=graph,
                              s_values=tuple(range(args.s_max + 1)),
                              q_max=args.q_max, fault=args.inject_fault,
                              check_local=not args.no_local)
    print(f"verified {report.specs_checked} spec runs over {report.graphs_checked} graphs")
    if report.mismatches:
        for mm in report.mismatches:
            print(mm.describe())
        print(f"FAIL: {len(report.mismatches)} mismatches")
        return EXIT_MISMATCH
    print("PASS: oracle, listing, and pivot agree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hcscount",
                                 description="Exact hereditary-cohesive-subgraph counting")
    ap.add_argument("-v", "--verbose", action="store_true", help="diagnostics on stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count HCSs of one size or a size range")
    _add_run_args(p)
    p.add_argument("--method", choices=("pivot", "list"), default="pivot")
    _add_spec_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("local", help="export per-vertex or per-edge counts as TSV")
    _add_run_args(p)
    _add_spec_args(p)
    p.add_argument("--local", required=True, choices=("vertex", "edge"))
    p.add_argument("--output", required=True, help="TSV output path")
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("profile", help="clique-to-HCS ratio profile over a size range")
    _add_run_args(p)
    _add_spec_args(p, families=("dclique", "plex"))
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="three-way agreement over a built-in corpus")
    p.add_argument("--input", help="verify on this graph instead of the random corpus")
    p.add_argument("--seeds", type=int, default=10, help="number of random graphs")
    p.add_argument("--s-max", type=int, default=2)
    p.add_argument("--q-max", type=int, default=7)
    p.add_argument("--no-local", action="store_true", help="skip local-count comparison")
    p.add_argument("--inject-fault", choices=FAULTS,
                   help="deliberately break one component (self-test of the harness)")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except (SpecError, RunConfigError) as e:
        print(f"invalid motif or run parameters: {e}", file=sys.stderr)
        return EXIT_SPEC
    except CounterOverflowError as e:
        print(f"counter overflow: {e}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ParseError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
