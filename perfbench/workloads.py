"""Workload definitions: the generated inputs and the fixed job list of each.

A job is one call into the public API of hcscount. Its ``kind`` names the
end-to-end metric its time is added to:

    count    serial pivot count (single q, range, or one hgp_profile)  count_s
    list     serial count_by_listing                                    list_s
    local    serial pivot count with local counts                       local_s
    par      a count job at threads = nproc                             count_par_s
    noprune  listing or pivot with pruning off                          noprune_s
    oracle   the brute-force ``sweep``                                  oracle_s

Every kind appears on every workload so that each end-to-end metric is
measured everywhere; the README says which workload each one is aimed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import gen

KIND_METRIC = {
    "count": "count_s", "list": "list_s", "local": "local_s",
    "par": "count_par_s", "noprune": "noprune_s", "oracle": "oracle_s",
}

# The acceptance gate's spec matrix: (family, s, q) for dclique and plex,
# s in 0..2, q from the diameter-2 floor up to 7.
GATE_MATRIX = [(fam, s, q) for fam in ("dclique", "plex") for s in (0, 1, 2)
               for q in range(max(s + 2, 2 * s + 1), 8)]
ORACLE_S, ORACLE_Q = 2, 7


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    graph: int              # index into the workload's input files
    family: str
    s: int
    q_low: int
    q_high: int
    engine: str = "pivot"   # pivot | list | profile | sweep
    prune: bool = True
    local: str | None = None
    threads: int = 1        # 0 means nproc
    ref: str | None = None  # job whose answer this one must equal


def _spec_tag(family: str, s: int, q_low: int, q_high: int) -> str:
    q = f"{q_low}" if q_low == q_high else f"{q_low}-{q_high}"
    return f"{family}{s}q{q}"


def _job(kind: str, graph: int, family: str, s: int, q_low: int, q_high: int | None = None,
         prefix: str = "", **kw) -> Job:
    q_high = q_low if q_high is None else q_high
    engine = kw.get("engine", "pivot")
    tag = [kind, engine, _spec_tag(family, s, q_low, q_high)]
    if kw.get("local"):
        tag.append(kw["local"])
    return Job(prefix + ":".join(tag), kind, graph, family, s, q_low, q_high, **kw)


def _large_graph_jobs(count_specs, list_specs, local_specs, noprune_specs,
                      profile=None) -> list[Job]:
    """Jobs on graph 0 (the workload graph) plus the oracle on graph 1 (its sample)."""
    jobs = []
    for spec in count_specs:
        jobs.append(_job("count", 0, *spec))
    if profile is not None:
        jobs.append(_job("count", 0, *profile, engine="profile"))
    for spec in list_specs:
        jobs.append(_job("list", 0, *spec, engine="list",
                         ref=_job("count", 0, *spec).id))
    for spec, local in local_specs:
        jobs.append(_job("local", 0, *spec, local=local, ref=_job("count", 0, *spec).id))
    for spec in count_specs:
        jobs.append(_job("par", 0, *spec, threads=0, ref=_job("count", 0, *spec).id))
    for spec, engine in noprune_specs:
        jobs.append(_job("noprune", 0, *spec, engine=engine, prune=False,
                         ref=_job("count", 0, *spec).id))
    jobs.append(_job("oracle", 1, "plex", ORACLE_S, 1, ORACLE_Q, engine="sweep"))
    return jobs


def _gate_jobs(n_graphs: int) -> list[Job]:
    """The gate's five routes per graph and spec, plus pivot without locals
    (the baseline of local_s); then GATE_PAR_SPEC serially and at
    threads = nproc on one more graph, the last input.

    Any job at threads = nproc on the matrix graphs takes 20-50 ms, most of
    it process-pool start-up, whose cost drifted by 13-16% between two sets
    of runs; on the last graph the job computes for ~0.4 s."""
    jobs = []
    for gi in range(n_graphs):
        pre = f"g{gi}/"
        jobs.append(_job("oracle", gi, "plex", ORACLE_S, 1, ORACLE_Q, engine="sweep",
                         prefix=pre))
        for fam, s, q in GATE_MATRIX:
            count = _job("count", gi, fam, s, q, prefix=pre)
            jobs.append(count)
            jobs.append(_job("list", gi, fam, s, q, engine="list", ref=count.id, prefix=pre))
            jobs.append(_job("noprune", gi, fam, s, q, engine="list", prune=False,
                             ref=count.id, prefix=pre))
            jobs.append(_job("local", gi, fam, s, q, local="both", ref=count.id, prefix=pre))
            jobs.append(_job("noprune", gi, fam, s, q, prune=False, ref=count.id, prefix=pre))
    pre = f"g{n_graphs}/"
    count = _job("count", n_graphs, *GATE_PAR_SPEC, prefix=pre)
    jobs.append(count)
    jobs.append(_job("par", n_graphs, *GATE_PAR_SPEC, threads=0, ref=count.id, prefix=pre))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable   # (seed, out_dir) -> list of written input files
    jobs: list[Job]


# (n, p) of the gate graphs: the gate draws n from 15..35 and p from
# {0.2, 0.4, 0.6}; this fixed schedule covers that range with a stable cost.
GATE_SCHEDULE = [(28, 0.2), (21, 0.4), (17, 0.6)]
# The graph of the gate's parallel job, also from the gate's distribution
# but too large for the oracle to run on every round, and its spec.
GATE_PAR_GRAPH = (26, 0.6)
GATE_PAR_SPEC = ("plex", 2, 5, 7)

SOCIAL_N = 500
DENSE = dict(n=120, blocks=4, size_lo=20, size_hi=23)

WORKLOADS = {
    "social": Workload(
        "social",
        lambda seed, out: gen.social(seed, out, SOCIAL_N),
        _large_graph_jobs(
            count_specs=[("dclique", 1, 8), ("plex", 1, 8), ("clique", 0, 8),
                         ("plex", 1, 5, 12)],
            list_specs=[("dclique", 1, 8), ("plex", 1, 8), ("clique", 0, 8)],
            local_specs=[(("plex", 1, 8), "edge"), (("clique", 0, 8), "edge")],
            noprune_specs=[(("clique", 0, 8), "pivot"), (("clique", 0, 8), "list")]),
    ),
    "dense": Workload(
        "dense",
        lambda seed, out: gen.dense(seed, out, **DENSE),
        _large_graph_jobs(
            count_specs=[("plex", 1, 5, 20), ("plex", 1, 6), ("clique", 0, 6)],
            list_specs=[("plex", 1, 6)],
            local_specs=[(("plex", 1, 6), "edge"), (("clique", 0, 6), "edge")],
            noprune_specs=[(("plex", 1, 6), "pivot")],
            profile=("plex", 1, 5, 12)),
    ),
    "gate": Workload(
        "gate",
        lambda seed, out: gen.gate(seed, out, GATE_SCHEDULE + [GATE_PAR_GRAPH]),
        _gate_jobs(len(GATE_SCHEDULE)),
    ),
}
