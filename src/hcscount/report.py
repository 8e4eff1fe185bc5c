"""Machine-readable run reports and the clique-to-HCS graph profile.

Counts can exceed 64-bit (and double) range, so every serialized count is a
full decimal string. Profile ratios are exact rationals rendered in decimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Any

from .graph import Graph
from .motifs import MotifSpec
from .pivot import count_by_pivot
from .runner import Run

RATIO_DIGITS = 30


def peak_rss_kb() -> int | None:
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return None


def run_report(input_path: str, g: Graph, run: Run, method: str, threads: int,
               local_output: str | None = None) -> dict[str, Any]:
    """The --json report of a count or local run."""
    spec, stats = run.spec, run.stats
    return {
        "input": input_path,
        "load_stats": {"n": g.n, "m": g.m, "arcs": g.stats.arcs,
                       "self_loops_dropped": g.stats.self_loops_dropped,
                       "duplicates_dropped": g.stats.duplicates_dropped},
        "spec": {"family": spec.family, "s": spec.s,
                 "q_low": spec.q_low, "q_high": spec.q_high},
        "method": method,
        "prune": run.pruned,
        "threads": threads,
        "counts": {str(q): str(c) for q, c in sorted(run.counts.items())},
        "wall_time_s": round(stats.wall_time, 6),
        "peak_rss_kb": peak_rss_kb(),
        "stats": {
            "nodes": stats.nodes,
            "branch_iters": stats.branch_iters,
            "bound_pruned": stats.bound_pruned,
            "candidates_before_reduction": stats.cand_pre,
            "candidates_after_reduction": stats.cand_now,
            "reduction_rate": stats.reduction_rate,
            "combinatorial_fraction": stats.combinatorial_fraction,
        },
        "local_output": local_output,
    }


def run_summary(run: Run, method: str) -> str:
    """The lines a count or local run prints on stdout."""
    stats = run.stats
    lines = [f"{run.spec.describe()}  method={method}"
             f"{'' if run.pruned else '  (pruning disabled)'}"]
    for q in sorted(run.counts):
        lines.append(f"  q={q}: {run.counts[q]}")
    rr = stats.reduction_rate
    cf = stats.combinatorial_fraction
    extra = [f"time={stats.wall_time:.3f}s", f"nodes={stats.nodes}"]
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
