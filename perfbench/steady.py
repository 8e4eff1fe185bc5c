"""Steadiness check: repeat workloads over seeds and compare spreads to bounds.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 --workloads social,dense,gate [--sets 2]

With --runs 1 it is the one command that prints every end-to-end metric,
with its unit and mismatch_frac, for every workload.

For every workload it runs perfbench/run.py --runs times, each with another
seed (first-seed, first-seed+1, ...), prints each run's metrics and host
factor (hostspeed.py), and prints per end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound. With
--sets 2 it repeats the whole series and prints how far the second median
moved from the first, again against the bound. Exits 1 if a run fails, a
check fails, or a spread (other than setup_s) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["host_factor"] = next((float(ln.split()[3]) for ln in lines
                               if ln.startswith("# host factor")), float("nan"))
    return res


def series(workload: str, seeds: list[int], seconds: int) -> tuple[dict, bool]:
    values: dict[str, list[float]] = {}
    ok = True
    for seed in seeds:
        res = one_run(workload, seed, seconds, 0)
        ok &= res["correct"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  {workload} seed={seed} correct={res['correct']} mismatch_frac="
              f"{res['failed'] / res['attempted']:.4g} host_factor={res['host_factor']:.3f} "
              + " ".join(
                  f"{k}={v['value']:.4g}{v['unit']}" for k, v in res["metrics"].items()),
              flush=True)
    return values, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma list; default: all")
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    for wl in names:
        sets = []
        for _ in range(args.sets):
            values, good = series(wl, seeds, seconds)
            ok &= good
            sets.append(values)
        if args.runs < 2:
            continue
        print(f"{wl}: {args.runs} runs x {args.sets} set(s), seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s} {'spr/bnd':>7s}" +
              (f" {'drift':>7s}" if args.sets == 2 else ""))
        for name, bound in bounds.items():
            meds, spreads = [], []
            for values in sets:
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                meds.append(med)
                spreads.append((q3 - q1) / med)
            line = (f"  {name:14s} {meds[-1]:10.4g} {q1:10.4g} {q3:10.4g} "
                    f"{spreads[-1]:7.3f} {bound:6.2f} {spreads[-1] / bound:7.2f}")
            if args.sets == 2:
                drift = (meds[1] - meds[0]) / meds[0]
                line += f" {drift:+7.3f}  (first set: spread {spreads[0]:.3f})"
                ok &= drift <= bound
            if name != "setup_s":
                ok &= max(spreads) <= bound
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
