"""Benchmark of hcscount: one workload per call, seeded inputs, checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload social --seed 1 --seconds 30 --trace 0

Writes the workload's generated SNAP-style inputs under perfbench/out/,
runs perfbench/measure.py on them in a fresh process, and prints a summary
table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. --write-golden stores the answers of
the run as the golden answers of its workload; they hold for every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

GOLDEN_PATH = HERE / "golden.json"
TIMEOUT_S = 170


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "hcscount" / "__init__.py").is_file():
        print(f"error: no hcscount sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = bench_spec()
    wl = WORKLOADS[args.workload]

    out_dir = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    paths = wl.make_inputs(args.seed, out_dir)

    golden = None if args.write_golden else json.loads(GOLDEN_PATH.read_text())[wl.name]
    cfg = {"workload": wl.name, "paths": [str(p) for p in paths], "seconds": args.seconds,
           "trace": args.trace, "golden": golden,
           "result_path": str(out_dir / "result.json"),
           "trace_path": str(out_dir / "trace.jsonl")}
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    # The workload runs in its own process group, so that a timeout or a
    # SIGTERM to this process also stops its pool children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen([sys.executable, str(HERE / "measure.py"), str(cfg_path)],
                            start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {wl.name} did not finish in {TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        print(f"error: measure.py exited with {code}", file=sys.stderr)
        return 1
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    res = json.loads((out_dir / "result.json").read_text())

    if args.write_golden:
        all_golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        all_golden[wl.name] = res["answers"]
        GOLDEN_PATH.write_text(json.dumps(all_golden, indent=1, sort_keys=True) + "\n")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(res["metrics"])
    values["peak_rss_mb"] = peak_mb
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for gi in res["graphs"]:
        print(f"# input {gi['file']}: n={gi['n']} m={gi['m']} "
              f"max_degree={gi['max_degree']} degeneracy={gi['degeneracy']}")
    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} "
          f"rounds={res['rounds']} round_seconds={[round(x, 3) for x in res['round_seconds']]}")
    if not args.trace:
        print(f"# host factor {res['host_factor']:.4g} (median of {res['host_samples']} "
              "reference-kernel samples over the reference time); times below are "
              "normalised by it, raw times in brackets")
    raw = res.get("raw_metrics", {})
    for name, m in metrics.items():
        extra = f"  [{raw[name]:.6g} {m['unit']} raw]" if name in raw else ""
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}{extra}")
    mismatch = res["failed"] / res["attempted"]
    print(f"{'mismatch_frac':28s} {mismatch:>14.6g} fraction "
          f"({res['failed']} of {res['attempted']} job runs failed a check)")
    if args.trace:
        print(f"# {res['spans']} spans written to {res['trace_path']}")
    for msg in res["messages"]:
        print(f"# check failed: {msg}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
