"""Runs one workload in a fresh process and writes its measurements as JSON.

Usage: python3 perfbench/measure.py CONFIG.json

run.py starts this process after it has written the inputs, so the peak
RSS of this process and its pool children belongs to the workload alone.
The process repeats rounds of the workload's job list until the time
budget is spent, checking every answer of every round, and times set-up
(load + degeneracy order) repeatedly before each round. Between jobs it
samples the host's speed (hostspeed.py) and divides every call's time by
the host factor at that moment. An end-to-end time metric is the sum over
its jobs of each job's median normalised time across rounds.

In traced mode each iteration runs one untraced round; one round with a
span around every call into the program, in which every pivot count job
and listing job is followed by a preparation pass that calls
collect_candidates / reduce_candidates / build_root_neighborhood per root
the way runner.prepare_root does; and a chunk pass that runs each parallel
job's spec serially on one run_over_roots chunk of roots at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hcscount import (DegeneracyOrder, MotifSpec, build_root_neighborhood,  # noqa: E402
                      collect_candidates, count_by_listing, count_by_pivot,
                      degeneracy_order, load_edge_list)
from hcscount.oracle import sweep  # noqa: E402
from hcscount.pruning import reduce_candidates  # noqa: E402
from hcscount.report import hgp_profile  # noqa: E402
from hcscount.runner import RunStats  # noqa: E402

from hostspeed import REF_SECONDS, HostSpeed  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import GATE_MATRIX, KIND_METRIC, WORKLOADS  # noqa: E402

# Set-up is repeated for SETUP_ROUND_S before every round, so that its
# median spans the whole run: the host's speed drifts over seconds, and a
# millisecond-long set-up measured in one burst reads up to 30% apart
# between runs.
SETUP_ROUND_S = 0.3
GOLDEN_KINDS = ("count", "local", "oracle")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spec_of(job) -> MotifSpec:
    return MotifSpec(job.family, job.s, job.q_low, job.q_high)


class Ctx:
    """The loaded graphs and the call wrappers, traced or not."""

    def __init__(self, paths: list[str]):
        self.paths = paths
        self.graphs = []
        self.tracer: Tracer | None = None

    def call(self, name: str, job: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, job, fn, *args, **kwargs)

    def setup(self, tag: str) -> tuple[float, float]:
        """Load and order every input; returns (load seconds, order seconds)."""
        graphs, t_load, t_order = [], 0.0, 0.0
        for i, path in enumerate(self.paths):
            t0 = time.perf_counter()
            g = self.call("graph.load", f"{tag}/{i}", load_edge_list, path)
            t1 = time.perf_counter()
            order = self.call("graph.order", f"{tag}/{i}", degeneracy_order, g)
            t2 = time.perf_counter()
            t_load += t1 - t0
            t_order += t2 - t1
            graphs.append((g, order))
        self.graphs = graphs
        return t_load, t_order

    def run(self, job, tag: str):
        g, order = self.graphs[job.graph]
        spec = spec_of(job)
        jid = f"{job.id}#{tag}"
        if job.engine == "pivot":
            return self.call("pivot.count_by_pivot", jid, count_by_pivot, g, spec,
                             prune=job.prune, threads=job.threads or nproc(),
                             local=job.local, order=order)
        if job.engine == "list":
            return self.call("listing.count_by_listing", jid, count_by_listing, g, spec,
                             prune=job.prune, order=order)
        if job.engine == "profile":
            return self.call("report.hgp_profile", jid, hgp_profile, g, job.family, job.s,
                             job.q_low, job.q_high, order=order)
        return self.call("oracle.sweep", jid, sweep, g, job.s, job.q_high)


# ---------------------------------------------------------------- answers

def counts_of(job, res) -> dict[int, int]:
    if job.engine == "list":
        return {job.q_low: res.count}
    return dict(res.counts)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:24]


def answer(job, res, n: int) -> dict:
    """What the golden file stores for a job: exact counts, or a digest.

    Every seed relabels the same structure, so answers are kept free of
    vertex ids: local counts are digested as sorted lists, and an oracle
    tally as the sorted results of the gate specs (its buckets at sizes
    below the diameter-2 floor depend on vertex ids by design).
    """
    if job.engine == "sweep":
        out = []
        for key in GATE_MATRIX:
            r = res.result_for(MotifSpec.single(*key), n)
            out.append([r.total(key[2]), sorted(r.per_vertex), sorted(r.per_edge.values())])
        return {"gate_specs": _sha(out)}
    if job.engine == "profile":
        return {"hcs": {str(q): str(c) for q, c in sorted(res.hcs_counts.items())},
                "clique": {str(q): str(c) for q, c in sorted(res.clique_counts.items())}}
    out = {"counts": {str(q): str(c) for q, c in sorted(counts_of(job, res).items())}}
    if job.local:
        loc = res.local
        out["local"] = _sha([sorted(loc.per_vertex or []),
                             sorted((loc.per_edge or {}).values())])
    return out


class Checker:
    """Per-job cross-checks; each returns a list of failure messages."""

    def __init__(self, ctx: Ctx, workload: str, golden: dict | None):
        self.ctx = ctx
        self.workload = workload
        self.golden = golden
        self._sample_expect: dict | None = None
        self._oracle: dict = {}

    def new_round(self) -> None:
        self._oracle.clear()

    def check(self, job, res, results: dict) -> list[str]:
        bad = []
        if job.ref is not None:
            ref_job, ref_res = results[job.ref]
            if counts_of(job, res) != counts_of(ref_job, ref_res):
                bad.append(f"{job.id}: counts differ from {job.ref}")
        if job.local:
            bad += self._local_identities(job, res)
        if self.workload == "gate" and job.kind != "oracle":
            bad += self._against_oracle(job, res, results)
        if job.engine == "sweep" and self.workload != "gate":
            bad += self._sample_oracle(job, res)
        if self.golden is not None and job.kind in GOLDEN_KINDS:
            if self.golden.get(job.id) != answer(job, res, self.ctx.graphs[job.graph][0].n):
                bad.append(f"{job.id}: answer differs from the golden file")
        return bad

    @staticmethod
    def _local_identities(job, res) -> list[str]:
        bad = []
        loc = res.local
        if loc.per_vertex is not None:
            want = sum(q * c for q, c in res.counts.items())
            if sum(loc.per_vertex) != want:
                bad.append(f"{job.id}: per-vertex column sum {sum(loc.per_vertex)} != {want}")
        if loc.per_edge is not None and job.family == "clique":
            want = sum(math.comb(q, 2) * c for q, c in res.counts.items())
            if sum(loc.per_edge.values()) != want:
                bad.append(f"{job.id}: per-edge sum != C(q,2) * count")
        return bad

    def _against_oracle(self, job, res, results) -> list[str]:
        tally = next((r for j, r in results.values()
                      if j.kind == "oracle" and j.graph == job.graph), None)
        if tally is None:
            # The parallel job's graph is too large for the oracle; its
            # serial twin and the golden file check it.
            return []
        g, _ = self.ctx.graphs[job.graph]
        key = (job.graph, spec_of(job))
        if key not in self._oracle:
            self._oracle[key] = tally.result_for(spec_of(job), g.n)
        want = self._oracle[key]
        bad = []
        if counts_of(job, res) != {q: want.total(q) for q in spec_of(job).sizes}:
            bad.append(f"{job.id}: total differs from the oracle")
        if job.local:
            if res.local.per_vertex != want.per_vertex:
                bad.append(f"{job.id}: per-vertex counts differ from the oracle")
            if res.local.per_edge != want.per_edge:
                bad.append(f"{job.id}: per-edge counts differ from the oracle")
        return bad

    def _sample_oracle(self, job, tally) -> list[str]:
        """The sample's oracle tally against the pivot engine on every gate spec."""
        g, order = self.ctx.graphs[job.graph]
        if self._sample_expect is None:
            self._sample_expect = {
                key: count_by_pivot(g, MotifSpec.single(*key), order=order).total(key[2])
                for key in GATE_MATRIX}
        bad = []
        for key, want in self._sample_expect.items():
            if tally.result_for(MotifSpec.single(*key), g.n).total(key[2]) != want:
                bad.append(f"{job.id}: oracle differs from pivot for {key}")
        return bad


# ---------------------------------------------------------------- rounds

def run_round(ctx: Ctx, jobs, checker: Checker, tag: str, log: dict,
              prep: dict | None = None, host: HostSpeed | None = None,
              stamps: dict[str, float] | None = None) -> dict[str, float]:
    """One pass over the job list; returns each job's seconds. With prep
    given (traced rounds), each job is followed by its preparation pass.
    With host given, the host's speed is sampled between jobs and the
    midpoint of each job's call is stored in stamps."""
    checker.new_round()
    times, results = {}, {}
    for job in jobs:
        if host is not None:
            host.maybe_sample()
        t0 = time.perf_counter()
        res = ctx.run(job, tag)
        t1 = time.perf_counter()
        times[job.id] = t1 - t0
        if stamps is not None:
            stamps[job.id] = (t0 + t1) / 2
        results[job.id] = (job, res)
        if prep is not None:
            prep_job(ctx, job, tag, prep)
    for job in jobs:
        bad = checker.check(job, results[job.id][1], results)
        log["attempted"] += 1
        if bad:
            log["failed"] += 1
            log["messages"].extend(bad[:3])
    log["last_results"] = results
    return times


def category_seconds(jobs, times: dict[str, float]) -> dict[str, float]:
    out = defaultdict(float)
    for job in jobs:
        out[KIND_METRIC[job.kind]] += times[job.id]
    return dict(out)


def prep_job(ctx: Ctx, job, tag: str, agg: dict[str, float]) -> None:
    """Per-root preparation of a pivot count job's or listing job's spec, with
    a span around every call, run right after the job so that both see the
    same host speed."""
    if not (job.kind == "list" or (job.kind == "count" and job.engine == "pivot")):
        return
    tr = ctx.tracer
    g, order = ctx.graphs[job.graph]
    jid = f"prep:{job.id}#{tag}"
    stats = RunStats()
    two_hop = job.s >= 1
    mark = len(tr.spans)
    t0 = time.perf_counter()
    clock = time.perf_counter
    for root in order.order.tolist():
        t1 = clock()
        one, two = collect_candidates(g, order, root, two_hop)
        t2 = clock()
        pre = len(one) + len(two)
        if job.prune:
            one, two = reduce_candidates(g, one, two, job.family, job.q_low, job.s)
        t3 = clock()
        rn = build_root_neighborhood(g, root, one, two, cand_pre=pre)
        t4 = clock()
        sid = tr.add("runner.prepare", jid, t1, t4)
        tr.add("graph.collect", jid, t1, t2, sid)
        if job.prune:
            tr.add("pruning.reduce", jid, t2, t3, sid)
        tr.add("graph.build", jid, t3, t4, sid)
        stats.cand_pre += pre
        stats.cand_now += rn.cand_now
    agg[f"{job.kind}.prepare_s"] += time.perf_counter() - t0
    for _, name, s, e, _, _ in tr.spans[mark:]:
        agg[f"{job.kind}.{name}"] += e - s
    if job.kind == "count":
        agg["cand_raw"] += stats.cand_pre
        agg["roots"] += len(order.order)


def chunk_pass(ctx: Ctx, jobs, tag: str, checker_log: dict) -> tuple[float, float]:
    """Each parallel job's spec run serially one run_over_roots chunk at a time.

    Returns (sum of the slowest chunk, sum of the mean chunk) over the jobs;
    the per-chunk counts must add up to the serial total.
    """
    slow = mean = 0.0
    results = checker_log["last_results"]
    for job in jobs:
        if job.kind != "par":
            continue
        g, order = ctx.graphs[job.graph]
        roots = order.order
        n_chunks = max(nproc(), 1) * 4
        size = max(1, -(-len(roots) // n_chunks))
        chunk_times, total = [], defaultdict(int)
        for k, start in enumerate(range(0, len(roots), size)):
            sub = DegeneracyOrder(roots[start:start + size], order.rank, order.degeneracy,
                                  order.core_numbers)
            t0 = time.perf_counter()
            run = ctx.tracer.call("runner.chunk", f"chunks:{job.id}#{tag}/{k}",
                                  count_by_pivot, g, spec_of(job), order=sub)
            chunk_times.append(time.perf_counter() - t0)
            for q, c in run.counts.items():
                total[q] += c
        ref_job, ref_res = results[job.ref]
        checker_log["attempted"] += 1
        if dict(total) != counts_of(ref_job, ref_res):
            checker_log["failed"] += 1
            checker_log["messages"].append(f"{job.id}: chunk counts do not sum to the total")
        slow += max(chunk_times)
        mean += statistics.fmean(chunk_times)
    return slow, mean


def layer_metrics(ctx: Ctx, jobs, untraced: dict[str, float], traced: dict[str, float],
                  prep: dict[str, float], skew: tuple[float, float],
                  results: dict, span_from: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    stats = RunStats()
    for job in jobs:
        if job.kind == "count" and job.engine == "pivot":
            stats.merge(results[job.id][1].stats)
    pivot_count = sum(traced[j.id] for j in jobs if j.kind == "count" and j.engine == "pivot")
    list_t = sum(traced[j.id] for j in jobs if j.kind == "list")
    recurse = pivot_count - prep["count.prepare_s"]
    list_recurse = list_t - prep["list.prepare_s"]
    list_nodes = sum(results[j.id][1].stats.nodes for j in jobs if j.kind == "list")
    local_credit = sum(traced[j.id] - traced[j.ref] for j in jobs if j.kind == "local")
    par_t = sum(traced[j.id] for j in jobs if j.kind == "par")
    par_serial = sum(traced[j.ref] for j in jobs if j.kind == "par")
    out = {
        "graph.collect_s": prep["count.graph.collect"],
        "graph.build_s": prep["count.graph.build"],
        "graph.cand_raw": prep["cand_raw"],
        "pruning.reduce_s": prep["count.pruning.reduce"],
        "runner.prepare_s": prep["count.prepare_s"],
        "runner.roots": prep["roots"],
        "pivot.recurse_s": recurse,
        "pivot.nodes": stats.nodes,
        "pivot.nodes_per_s": stats.nodes / recurse if recurse > 0 else 0.0,
        "pivot.comb_fraction": stats.combinatorial_fraction or 0.0,
        "pruning.bound_prune_ratio": (stats.bound_pruned / stats.branch_iters
                                      if stats.branch_iters else 0.0),
        "pruning.reduction_rate": stats.reduction_rate or 0.0,
        "pivot.local_credit_s": local_credit,
        "listing.recurse_s": list_recurse,
        "listing.nodes": list_nodes,
        "listing.nodes_per_s": list_nodes / list_recurse if list_recurse > 0 else 0.0,
        "oracle.sweep_s": sum(traced[j.id] for j in jobs if j.kind == "oracle"),
        "runner.chunk_skew": skew[0] / skew[1] if skew[1] else 0.0,
        "runner.par_efficiency": par_serial / (nproc() * par_t),
        "trace.overhead_s": sum(traced.values()) - sum(untraced.values()),
        "trace.count_prepare_share": prep["count.prepare_s"] / pivot_count,
        "trace.count_recurse_share": recurse / pivot_count,
    }
    self_t = self_times(ctx.tracer.spans[span_from:])
    for layer in ("graph", "pruning", "runner", "pivot", "listing", "oracle"):
        out[f"self.{layer}_s"] = self_t.get(layer, 0.0)
    return out


def graph_info(ctx: Ctx) -> list[dict]:
    return [{"file": Path(p).name, "n": g.n, "m": g.m,
             "max_degree": int(g.degrees().max()) if g.n else 0,
             "degeneracy": int(order.degeneracy)}
            for p, (g, order) in zip(ctx.paths, ctx.graphs)]


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    wl = WORKLOADS[cfg["workload"]]
    jobs = wl.jobs
    ctx = Ctx(cfg["paths"])
    checker = Checker(ctx, wl.name, cfg.get("golden"))
    log = {"attempted": 0, "failed": 0, "messages": []}
    trace = bool(cfg["trace"])
    if trace:
        ctx.tracer = Tracer()

    host = HostSpeed()
    loads, orders, setup_at = [], [], []

    def repeat_setup(seconds: float) -> None:
        t0 = time.perf_counter()
        while True:
            t1 = time.perf_counter()
            t_load, t_order = ctx.setup(f"setup/{len(loads)}")
            loads.append(t_load)
            orders.append(t_order)
            setup_at.append((t1 + time.perf_counter()) / 2)
            if time.perf_counter() - t0 >= seconds:
                return

    budget = float(cfg["seconds"])
    start = time.perf_counter()
    rounds, stamps, iters, lengths = [], [], [], []
    while True:
        r0 = time.perf_counter()
        tag = f"r{len(lengths)}"
        if not trace:
            host.sample()
        repeat_setup(SETUP_ROUND_S)
        if not trace:
            stamps.append({})
            rounds.append(run_round(ctx, jobs, checker, tag, log, host=host,
                                    stamps=stamps[-1]))
            host.sample()
        else:
            tracer, ctx.tracer = ctx.tracer, None
            untraced = run_round(ctx, jobs, checker, tag + "u", log)
            ctx.tracer = tracer
            span_from = len(tracer.spans)
            prep = defaultdict(float)
            traced = run_round(ctx, jobs, checker, tag, log, prep)
            skew = chunk_pass(ctx, jobs, tag, log)
            iters.append(layer_metrics(ctx, jobs, untraced, traced, prep, skew,
                                       log["last_results"], span_from))
        lengths.append(time.perf_counter() - r0)
        if time.perf_counter() - start + statistics.median(lengths) > budget:
            break

    result = {"graphs": graph_info(ctx), "rounds": len(lengths),
              "round_seconds": lengths, "attempted": log["attempted"],
              "failed": log["failed"], "messages": log["messages"][:20],
              "answers": {j.id: answer(j, res, ctx.graphs[j.graph][0].n)
                          for j, res in log["last_results"].values() if j.kind in GOLDEN_KINDS}}
    if not trace:
        # Each time metric: the sum over its jobs of the job's median over
        # rounds, raw and divided by the host factor at the time of the call.
        setups = [a + b for a, b in zip(loads, orders)]
        raw_med = {j.id: statistics.median(r[j.id] for r in rounds) for j in jobs}
        job_med = {j.id: statistics.median(r[j.id] / host.factor(s[j.id])
                                           for r, s in zip(rounds, stamps)) for j in jobs}
        result["raw_metrics"] = category_seconds(jobs, raw_med)
        result["raw_metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"] = category_seconds(jobs, job_med)
        result["metrics"]["setup_s"] = statistics.median(
            t / host.factor(at) for t, at in zip(setups, setup_at))
        result["job_seconds"] = job_med
        result["host_factor"] = statistics.median(host.seconds) / REF_SECONDS
        result["host_samples"] = len(host.seconds)
    else:
        layer = {k: statistics.median(it[k] for it in iters) for k in iters[0]}
        layer["graph.load_s"] = statistics.median(loads)
        layer["graph.order_s"] = statistics.median(orders)
        result["metrics"] = layer
        trace_path = Path(cfg["trace_path"])
        ctx.tracer.write(trace_path)
        result["trace_path"] = str(trace_path)
        result["spans"] = len(ctx.tracer.spans)
    Path(cfg["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
