"""Machine-readable run reports and the clique-to-HCS graph profile.

Counts can exceed 64-bit (and double) range, so every serialized count is a
full decimal string. Profile ratios are exact rationals rendered in decimal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Any

from .graph import Graph
from .motifs import MotifSpec
from .pivot import count_by_pivot
from .runner import Run, RunStats

RATIO_DIGITS = 30


def peak_rss_kb() -> int | None:
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return None


@dataclass
class RunReport:
    input_path: str
    load_stats: dict[str, int]
    spec: MotifSpec
    method: str
    pruned: bool
    threads: int
    counts: dict[int, int]
    stats: RunStats
    wall_time_s: float
    peak_rss_kb: int | None = None
    local_output: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "input": self.input_path,
            "load_stats": self.load_stats,
            "spec": {"family": self.spec.family, "s": self.spec.s,
                     "q_low": self.spec.q_low, "q_high": self.spec.q_high},
            "method": self.method,
            "prune": self.pruned,
            "threads": self.threads,
            "counts": {str(q): str(c) for q, c in sorted(self.counts.items())},
            "wall_time_s": round(self.wall_time_s, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "stats": {
                "nodes": self.stats.nodes,
                "branch_iters": self.stats.branch_iters,
                "bound_pruned": self.stats.bound_pruned,
                "candidates_before_reduction": self.stats.cand_pre,
                "candidates_after_reduction": self.stats.cand_now,
                "reduction_rate": self.stats.reduction_rate,
                "combinatorial_fraction": self.stats.combinatorial_fraction,
            },
            "local_output": self.local_output,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def human_summary(self) -> str:
        lines = [f"{self.spec.describe()}  method={self.method}"
                 f"{'' if self.pruned else '  (pruning disabled)'}"]
        for q in sorted(self.counts):
            lines.append(f"  q={q}: {self.counts[q]}")
        rr = self.stats.reduction_rate
        cf = self.stats.combinatorial_fraction
        extra = [f"time={self.wall_time_s:.3f}s", f"nodes={self.stats.nodes}"]
        if rr is not None:
            extra.append(f"reduction={rr:.2%}")
        if cf is not None:
            extra.append(f"combinatorial={cf:.2%}")
        lines.append("  " + "  ".join(extra))
        return "\n".join(lines)


def exact_ratio_str(num: int, den: int, digits: int = RATIO_DIGITS) -> str:
    """num/den as a decimal string with `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(num) / Decimal(den))


@dataclass
class HgpProfile:
    """Per-size probability that an HCS is a clique: clique count / HCS count."""

    family: str
    s: int
    q_low: int
    q_high: int
    hcs_counts: dict[int, int] = field(default_factory=dict)
    clique_counts: dict[int, int] = field(default_factory=dict)

    def ratio(self, q: int) -> str | None:
        hcs = self.hcs_counts.get(q, 0)
        if hcs == 0:
            return None
        return exact_ratio_str(self.clique_counts.get(q, 0), hcs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "s": self.s,
            "q_low": self.q_low,
            "q_high": self.q_high,
            "sizes": list(range(self.q_low, self.q_high + 1)),
            "hcs_counts": {str(q): str(self.hcs_counts.get(q, 0))
                           for q in range(self.q_low, self.q_high + 1)},
            "clique_counts": {str(q): str(self.clique_counts.get(q, 0))
                              for q in range(self.q_low, self.q_high + 1)},
            "ratios": {str(q): self.ratio(q) for q in range(self.q_low, self.q_high + 1)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def hgp_profile(g: Graph, family: str, s: int, q_low: int, q_high: int, *,
                prune: bool = True, threads: int = 1, order=None) -> HgpProfile:
    """Two range runs of the pivot engine: the family at s, and cliques (s=0)."""
    hcs_run: Run = count_by_pivot(
        g, MotifSpec(family, s, q_low, q_high).validate(), prune=prune,
        threads=threads, order=order)
    clique_run = count_by_pivot(
        g, MotifSpec("clique", 0, q_low, q_high).validate(), prune=prune,
        threads=threads, order=order)
    return HgpProfile(family, s, q_low, q_high, hcs_run.counts, clique_run.counts)


def make_report(input_path: str, g: Graph, spec: MotifSpec, method: str,
                run, threads: int, local_output: str | None = None) -> RunReport:
    counts = dict(run.counts)
    return RunReport(
        input_path=input_path,
        load_stats={"n": g.n, "m": g.m, "arcs": g.stats.arcs,
                    "self_loops_dropped": g.stats.self_loops_dropped,
                    "duplicates_dropped": g.stats.duplicates_dropped},
        spec=spec,
        method=method,
        pruned=run.pruned,
        threads=threads,
        counts=counts,
        stats=run.stats,
        wall_time_s=run.stats.wall_time,
        peak_rss_kb=peak_rss_kb(),
        local_output=local_output,
    )
