"""Motif families, parameter validation, and incremental membership state.

Three families are supported: clique, s-defective clique (dclique: at most s
missing edges in total) and s-plex (every member misses at most s others).
Both search engines drive one state object per root through one interface:

* ``R``: the growing set; ``push(u)`` / ``pop()`` grow and shrink it (the
  clique's are the bound ``R.append`` and ``R.pop``, with no interpreted
  call); ``admits(u)`` tells whether R + {u} is still a result;
* ``filter_candidates(C, u)``: the candidates that still extend R after u's
  push; ``filter_pivots(D, u)``: the same for the pivot engine's set D;
* ``closer(C)``: for the listing engine's last branching level, a function
  ``close(u, rest)`` giving the members v of ``rest`` that complete
  R + {u, v}, which is the set ``filter_candidates(rest, u)`` gives after
  u's push, read without one. It takes C, the node's candidates, every one
  of which extends R; it and its function leave the state unchanged;
* ``leaf_classes(D, nD)``: D split by deficiency into classes of weight 0
  up to the edge budget left (at most s), their sizes, and that budget, which
  a completing subset's weights must fit; clique and plex return D as the
  single weight-0 class, since every subset of D completes R.

Membership checks stay O(1) through per-family bookkeeping:

* clique: none; candidates are cut to the common neighborhood;
* dclique and plex: every vertex v's deficiency m̄(v, R), its number of
  non-neighbors inside R, with the total of missing edges of R and R's
  bitmask ``rmask``. The two families differ only in the rule they apply to
  the deficiencies: a dclique bounds the total m̄(R) (half their sum over R)
  by s, a plex bounds each member's m̄(v, R) by s.

The deficiencies are kept over a fixed local universe (bitmask adjacency)
as threshold masks: ``ge[k]`` holds the vertices with m̄(v, R) >= k, for k
in 0..s+1 (``ge[0]`` is the universe). A deficiency above s already rules a
vertex out in both families, so the masks saturate at s + 1. A push of u
raises every non-neighbor of u one level, ``ge[k] |= ge[k-1] & nonadj[u]``
from the top level down, into a new list; it keeps the old list and m̄(R),
which its pop puts back. So a push or pop costs O(s) mask operations
whatever the size of the universe, every vertex is exact at every node, and
the family filters, closers, leaf classes and bounds read a whole candidate
set per mask operation. One vertex's exact deficiency is
``popcount(nonadj[v] & rmask)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

FAMILIES = ("clique", "dclique", "plex")


class SpecError(ValueError):
    """Motif parameters violate the diameter-2 admissibility conditions."""


@dataclass(frozen=True)
class MotifSpec:
    family: str
    s: int
    q_low: int
    q_high: int

    @classmethod
    def single(cls, family: str, s: int, q: int) -> "MotifSpec":
        return cls(family, s, q, q)

    @property
    def is_range(self) -> bool:
        return self.q_low != self.q_high

    @property
    def sizes(self) -> range:
        return range(self.q_low, self.q_high + 1)

    def validate(self) -> "MotifSpec":
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.s < 0:
            raise SpecError("s must be non-negative")
        if not (1 <= self.q_low <= self.q_high):
            raise SpecError(f"need 1 <= q_low <= q_high, got [{self.q_low}, {self.q_high}]")
        if self.family == "clique":
            if self.s != 0:
                raise SpecError("clique family requires s = 0")
        elif self.family == "dclique":
            if self.q_low - 2 < self.s:
                raise SpecError(
                    f"dclique requires q - 2 >= s for a diameter-2 guarantee; "
                    f"got q={self.q_low}, s={self.s}")
        elif self.family == "plex":
            if self.q_low < 2 * self.s + 1:
                raise SpecError(
                    f"plex requires q >= 2s + 1 for a diameter-2 guarantee; "
                    f"got q={self.q_low}, s={self.s}")
        return self

    def describe(self) -> str:
        qs = f"q={self.q_low}" if not self.is_range else f"q in [{self.q_low},{self.q_high}]"
        return f"{self.family}(s={self.s}, {qs})"


def missing_edges(g: Graph, Q) -> int:
    """Total missing edge count of the subgraph induced by Q."""
    Q = list(Q)
    miss = 0
    for i, u in enumerate(Q):
        for v in Q[i + 1:]:
            if not g.has_edge(u, v):
                miss += 1
    return miss


def vertex_deficiency(g: Graph, u: int, Q) -> int:
    """Missing edges between u and Q \\ {u}; for u outside Q this counts all of Q."""
    cnt = 0
    for v in Q:
        if v != u and not g.has_edge(u, v):
            cnt += 1
    return cnt


def is_hcs(spec: MotifSpec, g: Graph, Q) -> bool:
    """Definitional membership test; used by the oracle and by tests only."""
    Q = list(Q)
    if len(set(Q)) != len(Q):
        raise ValueError("Q has repeated vertices")
    if spec.family == "dclique":
        return missing_edges(g, Q) <= spec.s
    if spec.family == "plex":
        return all(vertex_deficiency(g, u, Q) <= spec.s for u in Q)
    return missing_edges(g, Q) == 0


def iter_bits(x: int):
    """Set bit positions of x, lowest first."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class CliqueState:
    """R over a bitmask universe; every candidate is adjacent to all of R."""

    __slots__ = ("adj", "R", "push", "pop")

    def __init__(self, adj: list[int], s: int = 0):
        """s is always 0 for cliques; it is taken so that every state is
        built the same way."""
        self.adj = adj
        self.R: list[int] = []
        self.push = self.R.append
        self.pop = self.R.pop

    def admits(self, u: int) -> bool:
        """Whether u is adjacent to every member of R."""
        return all(self.adj[u] >> r & 1 for r in self.R)

    def filter_candidates(self, C: int, u: int) -> int:
        """Members of C adjacent to u (u just pushed)."""
        return self.adj[u] & C

    filter_pivots = filter_candidates

    def closer(self, C: int):
        """R + {u, v} is a clique exactly when v is adjacent to u."""
        adj = self.adj
        return lambda u, rest: adj[u] & rest

    def leaf_classes(self, D: int, nD: int) -> tuple[tuple[int], tuple[int], int]:
        """D as one class of weight 0 (nD members): any subset of D completes R."""
        return (D,), (nD,), 0

    def check_counts(self) -> None:
        """Nothing to check: a clique keeps no counts."""


class DcliqueState:
    """R, m̄(R), and the threshold masks ge[k] = {v : m̄(v, R) >= k} over a
    bitmask universe; R misses at most s edges in total."""

    __slots__ = ("adj", "nonadj", "s", "R", "rmask", "total_missing", "ge", "saved",
                 "levels")

    def __init__(self, adj: list[int], s: int):
        self.adj = adj
        full = (1 << len(adj)) - 1
        self.nonadj = [full & ~a & ~(1 << i) for i, a in enumerate(adj)]
        self.s = s
        self.R: list[int] = []
        self.rmask = 0
        self.total_missing = 0
        self.ge = [full] + [0] * (s + 1)
        self.saved: list[tuple[list[int], int]] = []  # (ge, m̄(R)) before each push
        self.levels = range(s + 1, 0, -1)  # a push raises the top level first

    def admits(self, u: int) -> bool:
        """Whether R + {u} stays within the family's budget."""
        return self.total_missing + (self.nonadj[u] & self.rmask).bit_count() <= self.s

    def push(self, u: int) -> None:
        """Add u to R; the caller has checked admits(u) (the engines push
        only vertices that passed the family filter). The push puts a new
        list in ge and keeps the old one for its pop, so a reader takes ge
        from the state after each push or pop."""
        old = self.ge
        self.saved.append((old, self.total_missing))
        ge = old[:]
        nu = self.nonadj[u]
        self.total_missing += (nu & self.rmask).bit_count()
        for k in self.levels:
            ge[k] |= ge[k - 1] & nu
        self.ge = ge
        self.R.append(u)
        self.rmask |= 1 << u

    def pop(self) -> int:
        u = self.R.pop()
        self.rmask ^= 1 << u
        self.ge, self.total_missing = self.saved.pop()
        return u

    def filter_candidates(self, C: int, u: int | None = None) -> int:
        """Candidates v that keep R + {v} within budget (call after a push):
        those with m̄(v, R) <= s - m̄(R)."""
        return C & ~self.ge[self.s - self.total_missing + 1]

    # a pivot whose deficiency exceeds the budget can never complete R again,
    # since the budget only shrinks below this node
    filter_pivots = filter_candidates

    def closer(self, C: int):
        """R + {u, v} misses m̄(R) + m̄(u, R) + m̄(v, R) + [v not adjacent to
        u] edges, so v completes it iff m̄(v, R) + [v ∉ N(u)] <= b, with
        b = s - m̄(R) - m̄(u, R). upto[k] holds the members of C with
        m̄(v, R) < k; every member has m̄(v, R) <= s - m̄(R), since it
        extends R."""
        adj = self.adj
        nonadj = self.nonadj
        rmask = self.rmask
        budget = self.s - self.total_missing
        upto = [C & ~g for g in self.ge[:budget + 2]]

        def close(u: int, rest: int) -> int:
            b = budget - (nonadj[u] & rmask).bit_count()
            return rest & (upto[b] | (upto[b + 1] & adj[u]))
        return close

    def leaf_classes(self, D: int, nD: int) -> tuple[list[int], tuple[int, ...], int]:
        """D split by deficiency (masks[w] holds its members with m̄(v, R) = w,
        for w in 0..budget), the class sizes, and the edge budget their sum
        must fit. A member heavier than the budget is in no completing
        subset, so it is left out (filter_pivots drops such members anyway)."""
        ge = self.ge
        budget = self.s - self.total_missing
        masks = [D & ge[w] & ~ge[w + 1] for w in range(budget + 1)]
        return masks, tuple(map(int.bit_count, masks)), budget

    def recompute(self) -> tuple[int, list[int]]:
        """From-scratch (m̄(R), [m̄(v, R) for every v]) for consistency checks."""
        adj = self.adj
        r_bits = 0
        for u in self.R:
            r_bits |= 1 << u
        total = 0
        A = [0] * len(adj)
        for v in range(len(adj)):
            inside = r_bits & ~(1 << v)
            A[v] = (inside & ~adj[v]).bit_count()
            if (r_bits >> v) & 1:
                total += A[v]
        return total // 2, A

    def check_counts(self) -> None:
        """Assert the bookkeeping equals recompute() on the whole universe:
        each ge[k] holds exactly the vertices with m̄(v, R) >= k."""
        total, A = self.recompute()
        assert self.rmask == sum(1 << r for r in self.R), "rmask is not R"
        assert self.total_missing == total, "stale missing-edge total"
        assert self.ge == [sum(1 << v for v, a in enumerate(A) if a >= k)
                           for k in range(self.s + 2)], "stale deficiency level"


class PlexState(DcliqueState):
    """The dclique bookkeeping; every member of R misses at most s others."""

    __slots__ = ()

    def admits(self, u: int) -> bool:
        """Whether u and every member it misses keep at most s non-neighbors."""
        miss = self.nonadj[u] & self.rmask
        return miss.bit_count() <= self.s and not miss & self.ge[self.s]

    def filter_candidates(self, C: int, u: int) -> int:
        """Candidates still extendable after u's push.

        Keeps v with at most s non-neighbors in R + {u}; then every member
        saturated by the push (deficiency exactly s) evicts its non-neighbors.
        Only u itself and u's non-neighbors inside R can be newly saturated.
        """
        ge = self.ge
        adj = self.adj
        sat = ge[self.s]
        out = C & ~ge[self.s + 1]
        w = self.nonadj[u] & self.rmask & sat
        while w:
            b = w & -w
            out &= adj[b.bit_length() - 1]
            w ^= b
        if sat >> u & 1:
            out &= adj[u]
        return out

    def closer(self, C: int):
        """v completes R + {u, v} iff u and v each stay within s non-neighbors
        (v is adjacent to u, or both miss fewer than s of R) and no member of
        R that misses u and has m̄(x, R) = s - 1 also misses v. A member
        already at s has evicted its non-neighbors from C, and R + {u} is
        valid, since every member of C extends R."""
        adj = self.adj
        nonadj = self.nonadj
        s = self.s
        sat = self.ge[s]
        light = C & ~sat
        near = self.rmask & self.ge[s - 1] & ~sat if s else 0

        def close(u: int, rest: int) -> int:
            m = rest & adj[u] if sat >> u & 1 else rest & (adj[u] | light)
            w = nonadj[u] & near
            while w:
                b = w & -w
                m &= adj[b.bit_length() - 1]
                w ^= b
            return m
        return close

    def filter_pivots(self, D: int, u: int) -> int:
        """D unchanged: a plex pivot is admitted only when every member of R
        that misses it has room for it and for its own misses in the pivot's
        hold-out side, which holds everything that joins R or D below; so
        each member of D completes every result credited below its admission
        (see pivot.select_pivot_plex)."""
        return D

    # any subset of D completes R (see filter_pivots)
    leaf_classes = CliqueState.leaf_classes
