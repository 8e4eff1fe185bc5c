"""Three-way agreement harness: oracle vs listing vs pivot, with fault injection.

Runs a matrix of specs over seeded random graphs (or a supplied desk-scale
graph), comparing totals across all three routes and local tallies between
the oracle and the pivot engine. Any mismatch is reported with a greedily
minimized counterexample graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pruning, runner
from .graph import Graph, from_edges, random_gnp
from .listing import count_by_listing
from .motifs import MotifSpec, SpecError
from .oracle import MAX_ORACLE_VERTICES, OracleInfeasibleError, sweep
from .pivot import count_by_pivot
from .runner import RunConfigError

FAULTS = ("prune-bound", "overflow")


def inject_fault(name: str | None) -> None:
    """Enable one deliberate defect; None restores normal operation."""
    pruning.BOUND_FAULT = 0
    runner.COUNTER_LIMIT = None
    if name is None:
        return
    if name == "prune-bound":
        pruning.BOUND_FAULT = 1
    elif name == "overflow":
        runner.COUNTER_LIMIT = 10
    else:
        raise ValueError(f"unknown fault {name!r}; expected one of {FAULTS}")


def default_spec_matrix(s_values=(0, 1, 2), q_max: int = 7) -> list[MotifSpec]:
    """Every admissible (family, s, q) with q from the diameter-2 floor to q_max."""
    specs: list[MotifSpec] = []
    for s in s_values:
        fams = ("clique",) if s == 0 else ("dclique", "plex")
        for fam in fams:
            # the floors of MotifSpec.validate
            q_floor = {"clique": 2, "dclique": s + 2, "plex": 2 * s + 1}[fam]
            for q in range(q_floor, q_max + 1):
                specs.append(MotifSpec.single(fam, s, q))
    return specs


@dataclass
class Mismatch:
    spec: MotifSpec
    kind: str
    oracle_value: object
    listing_value: object
    pivot_value: object
    n: int
    edges: list[tuple[int, int]]
    minimized_n: int
    minimized_edges: list[tuple[int, int]]

    def describe(self) -> str:
        lines = [
            f"mismatch [{self.kind}] for {self.spec.describe()}:",
            f"  oracle={self.oracle_value} listing={self.listing_value} pivot={self.pivot_value}",
            f"  graph: n={self.n} edges={self.edges}",
            f"  minimized: n={self.minimized_n} edges={self.minimized_edges}",
        ]
        return "\n".join(lines)


@dataclass
class VerifyReport:
    graphs_checked: int = 0
    specs_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _disagreement(g: Graph, spec: MotifSpec, oracle, *, check_local: bool):
    """Return (kind, oracle, listing, pivot) of the first disagreement, or None."""
    q = spec.q_low
    lst = count_by_listing(g, spec).count
    piv = count_by_pivot(g, spec, local="both" if check_local else None)
    if not (oracle.total(q) == lst == piv.total(q)):
        return ("total", oracle.total(q), lst, piv.total(q))
    if check_local:
        if oracle.per_vertex != piv.local.per_vertex:
            return ("per-vertex", oracle.per_vertex, None, piv.local.per_vertex)
        if oracle.per_edge != piv.local.per_edge:
            return ("per-edge", oracle.per_edge, None, piv.local.per_edge)
    return None


def _first_disagreement(g: Graph, spec: MotifSpec, *, check_local: bool):
    tally = sweep(g, spec.s, spec.q_high)
    return _disagreement(g, spec, tally.result_for(spec, g.n), check_local=check_local)


def _minimize(g: Graph, spec: MotifSpec, check_local: bool) -> Graph:
    """Greedy vertex deletion while the disagreement persists."""
    current = g
    improved = True
    while improved and current.n > 2:
        improved = False
        for drop in range(current.n):
            keep = [v for v in range(current.n) if v != drop]
            remap = {v: i for i, v in enumerate(keep)}
            edges = [(remap[u], remap[v]) for u, v in current.edge_list()
                     if u != drop and v != drop]
            smaller = from_edges(edges, vertex_universe=list(range(len(keep))))
            try:
                if _first_disagreement(smaller, spec, check_local=check_local) is not None:
                    current = smaller
                    improved = True
                    break
            except OracleInfeasibleError:
                continue
    return current


def check_graph(g: Graph, specs: list[MotifSpec], report: VerifyReport, *,
                check_local: bool = True) -> None:
    report.graphs_checked += 1
    s_env = max(spec.s for spec in specs)
    q_env = max(spec.q_high for spec in specs)
    tally = sweep(g, s_env, q_env)
    for spec in specs:
        report.specs_checked += 1
        found = _disagreement(g, spec, tally.result_for(spec, g.n), check_local=check_local)
        if found is None:
            continue
        kind, o, l, p = found
        small = _minimize(g, spec, check_local)
        report.mismatches.append(Mismatch(spec, kind, o, l, p, g.n, g.edge_list(),
                                          small.n, small.edge_list()))


def run_verification(*, seeds: int = 10, graph: Graph | None = None,
                     s_values=(0, 1, 2), q_max: int = 7,
                     fault: str | None = None, check_local: bool = True) -> VerifyReport:
    """Run the matrix over `seeds` random graphs (or one supplied graph).

    A run that would check nothing is refused: an empty spec matrix is a
    SpecError, and fewer than one seed or a graph over the oracle's vertex
    cap is a RunConfigError.
    """
    specs = default_spec_matrix(s_values, q_max)
    if not specs:
        raise SpecError(f"no admissible spec with s in {list(s_values)} and q <= {q_max}")
    if graph is None and seeds < 1:
        raise RunConfigError(f"need at least 1 seed, got {seeds}")
    if graph is not None and graph.n > MAX_ORACLE_VERTICES:
        raise RunConfigError(f"graph has n={graph.n} vertices; the oracle takes at most "
                             f"{MAX_ORACLE_VERTICES}")
    report = VerifyReport()
    inject_fault(fault)
    try:
        if graph is not None:
            check_graph(graph, specs, report, check_local=check_local)
        else:
            for i in range(seeds):
                n = 12 + (i * 7) % 19
                p = (0.2, 0.4, 0.6)[i % 3]
                g = random_gnp(n, p, seed=90_000 + i)
                check_graph(g, specs, report, check_local=check_local)
    finally:
        inject_fault(None)
    return report
