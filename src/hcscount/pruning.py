"""Root selection, candidate-set reduction before search, and branch-level
upper bounds.

A pruned run visits only the roots that can host a result, and shrinks each
root's raw 1-hop/2-hop candidate sets using core and degree thresholds that
no target-size result can evade. The bounds cap the size any branch can
reach; a branch whose bound falls below the target is skipped. All are
lossless: counts with and without them must agree.
"""

from __future__ import annotations

from typing import Sequence

from .graph import DegeneracyOrder, Graph, collect_candidates
from .motifs import DcliqueState, MotifSpec, PlexState

# Fault-injection knob for the verification harness: a positive value makes
# the bounds too tight by that amount, which must break count agreement.
BOUND_FAULT = 0


def _induced_core(g: Graph, one: Sequence[int], k: int) -> list[int]:
    """k-core of the subgraph induced by `one` (peeling to a fixed point)."""
    if len(one) <= k:
        return []  # no member can have k neighbors among the others
    alive = set(one)
    adj = g.nbrs
    local_nbrs = {u: alive.intersection(adj[u]) for u in one}
    deg = {u: len(nb) for u, nb in local_nbrs.items()}
    stack = [u for u in one if deg[u] < k]
    while stack:
        u = stack.pop()
        if u not in alive:
            continue
        alive.discard(u)
        for v in local_nbrs[u]:
            if v in alive:
                deg[v] -= 1
                if deg[v] == k - 1:
                    stack.append(v)
    return [u for u in one if u in alive]


def thresholds(family: str, q: int, s: int) -> tuple[int, int]:
    """(core_k, need) of the reduction for a target size q (q_low on ranges).

    Every 1-hop member of a size-q result shares core_k = q-s-2 (dclique) or
    q-2s-2 (plex) common neighbors with the root, so 1-hop candidates are
    peeled to the core_k-core of their induced subgraph. The plex threshold
    is weaker because up to s fellow members may sit outside the root's
    neighborhood entirely. 2-hop candidates then need need = q-s-1 (dclique)
    or q-2s (plex) neighbors in the surviving core, so none survives a core
    smaller than that. Cliques have no 2-hop candidates.
    """
    core_k = (q - s - 2) if family != "plex" else (q - 2 * s - 2)
    need = (q - s - 1) if family == "dclique" else (q - 2 * s)
    return core_k, need


def reduce_candidates(g: Graph, one: Sequence[int], two: Sequence[int],
                      family: str, q: int, s: int) -> tuple[list[int], list[int]]:
    """Shrink a root's candidate sets for a target size q (q_low on ranges),
    by the thresholds above. Takes any ascending int sequences and returns
    lists that keep their order.
    """
    core_k, need = thresholds(family, q, s)
    one = _induced_core(g, one, core_k) if core_k > 0 else list(one)
    if family == "clique" or len(one) < need:
        return one, []
    if need <= 0:
        return one, list(two)
    # count each 2-hop candidate's core neighbors from the core's side: the
    # core is small after the peel, while a 2-hop ball can be large
    hits = dict.fromkeys(two, 0)
    adj = g.nbrs
    for u in one:
        for w in hits.keys() & adj[u]:
            hits[w] += 1
    return one, [w for w, c in hits.items() if c >= need]


def visited_roots(order: DegeneracyOrder, spec: MotifSpec, prune: bool) -> list[int]:
    """The roots a run visits, in degeneracy-rank order.

    With pruning on and k = q_low - 1 - s > 0, only the roots whose core
    number is at least k. That loses no result: every member of a result
    misses at most s of the other members, so it has at least q_low - 1 - s
    neighbors inside the result, and the whole result lies in the k-core. A
    result is found at its lowest-rank member, which is then a visited root,
    whatever the order. With pruning off every root is visited.
    """
    roots = order.order
    k = spec.q_low - 1 - spec.s
    if prune and k > 0:
        roots = roots[order.core_numbers[roots] >= k]
    return roots.tolist()


def reduce_root(g: Graph, order: DegeneracyOrder, root: int,
                spec: MotifSpec) -> tuple[list[int], list[int]]:
    """A root's reduced (one, two), the same sets as collect_candidates then
    reduce_candidates, without building the root's 2-hop ball.

    The higher-rank neighbors are peeled to the core. Each 2-hop survivor
    needs `need` neighbors in that core, at least one on every valid spec,
    so it lies on some core member's neighbor list: counting, over those
    lists, the hits on each higher-rank non-neighbor of the root finds every
    survivor.
    """
    s, family = spec.s, spec.family
    one, _ = collect_candidates(g, order, root, False)
    core_k, need = thresholds(family, spec.q_low, s)
    if core_k > 0:
        one = _induced_core(g, one, core_k)
    if family == "clique" or s == 0 or len(one) < need:
        return one, []
    rank = order.rank_list
    r = rank[root]
    adj = g.nbrs
    near_set = set(adj[root])
    hits: dict[int, int] = {}
    for u in one:
        for w in adj[u]:
            if rank[w] > r and w not in near_set:
                hits[w] = hits.get(w, 0) + 1
    return one, [w for w, c in hits.items() if c >= need]


def _greedy_neighbors(state: DcliqueState, u: int, C: int, budget: int) -> int:
    """Most neighbors of u in C whose deficiencies A sum within budget
    (cheapest first)."""
    A = state.A
    buckets = [0] * (state.s + 1)
    w = state.adj[u] & C
    while w:
        b = w & -w
        buckets[A[b.bit_length() - 1]] += 1
        w ^= b
    taken = buckets[0]
    for cost in range(1, len(buckets)):
        if budget < cost:
            break
        t = min(buckets[cost], budget // cost)
        taken += t
        budget -= t * cost
    return taken


def upper_bound_dclique(state: DcliqueState, u: int, C: int) -> int:
    """Largest dclique size reachable by branching on u (u already out of C).

    |R|+1 listed, plus non-neighbors of u limited by the remaining edge
    budget, plus a greedy count of neighbors ordered by deficiency.
    """
    slack = state.s - (state.total_missing + state.A[u])
    non_nbr = (C & ~state.adj[u]).bit_count()
    omega = _greedy_neighbors(state, u, C, slack)
    return len(state.R) + 1 + min(slack, non_nbr) + omega - BOUND_FAULT


def upper_bound_plex(state: PlexState, u: int, C: int) -> int:
    """Largest plex size reachable by branching on u (u already out of C).

    Middle term: neighbors of u admitted greedily against the members' total
    slack sum(s - m̄(v,R)) = s|R| - 2m̄(R); last term: non-neighbors u can
    still afford.
    """
    s = state.s
    R = state.R
    non_nbr = (C & ~state.adj[u]).bit_count()
    mid = _greedy_neighbors(state, u, C, s * len(R) - 2 * state.total_missing)
    return len(R) + 1 + mid + min(s - state.A[u], non_nbr) - BOUND_FAULT
