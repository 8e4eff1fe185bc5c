"""Graph loading, core decomposition, degeneracy ordering, and per-root search universes.

Graphs are simple and undirected, stored in CSR form with dense vertex ids
0..n-1. Original labels from the input file are kept in ``orig_ids`` so that
reports and exports can speak the caller's id space.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

ID_RANGE = range(-2**63, 2**63)  # vertex ids are stored as int64


class ParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass
class LoadStats:
    n: int = 0
    m: int = 0
    data_lines: int = 0
    comment_lines: int = 0
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def arcs(self) -> int:
        """Directed arc count (2m); what SNAP-style tables report as |E|."""
        return 2 * self.m

    def summary(self) -> str:
        return (
            f"n={self.n} m={self.m} arcs={self.arcs} "
            f"self_loops_dropped={self.self_loops_dropped} "
            f"duplicates_dropped={self.duplicates_dropped}"
        )


@dataclass
class Graph:
    """Immutable simple undirected graph in CSR form.

    Neighbor lists are sorted ascending, and (u,v) is present iff (v,u) is.
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    orig_ids: np.ndarray
    stats: LoadStats = field(default_factory=LoadStats)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def nbrs(self) -> list[list[int]]:
        """Sorted neighbor lists as Python ints, built from the CSR arrays on
        first use. Per-root preparation runs on these: its sets are tiny, and a
        NumPy call on them costs more than the work it does."""
        indices = self.indices.tolist()
        bounds = self.indptr.tolist()
        return [indices[bounds[u]:bounds[u + 1]] for u in range(self.n)]

    @cached_property
    def pairs_within_two(self) -> int:
        """The number of vertex pairs at distance 1 or 2, computed on first use.

        Each pair is counted at its smaller id: a vertex counts the union of
        the above-its-id parts of its own list and of its neighbors' lists.
        """
        adj = self.nbrs
        total = 0
        for u, near in enumerate(adj):
            ball = set(near[bisect_right(near, u):])
            for nb in map(adj.__getitem__, near):
                ball.update(nb[bisect_right(nb, u):])
            total += len(ball)
        return total

    def __getstate__(self) -> dict:
        # pool workers receive the CSR arrays only and rebuild a cache on use
        state = self.__dict__.copy()
        state.pop("nbrs", None)
        state.pop("pairs_within_two", None)
        return state

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighborhoods as bitmasks over 0..n-1 (small graphs only)."""
        return [sum(1 << v for v in row) for row in self.nbrs]

    def edge_list(self) -> list[tuple[int, int]]:
        """All undirected edges (u, v) with u < v, in dense ids."""
        return [(u, v) for u, row in enumerate(self.nbrs) for v in row if u < v]


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as np.unique gives them.
    On 2 vCPUs, NumPy 2.4's np.unique took 0.53 s on social-100k's 659k
    int64 arc keys where this takes 8 ms, and 0.34 ms against 26 us on
    3.5k keys."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def from_edges(pairs: Iterable[tuple[int, int]], stats: LoadStats | None = None,
               vertex_universe: np.ndarray | None = None) -> Graph:
    """Build a Graph from (possibly directed, duplicated, self-looped) pairs.

    Ids are densified; the original labels are preserved in orig_ids. Pass
    ``vertex_universe`` to force isolated vertices into the id space. An id
    outside the int64 range raises ParseError.
    """
    stats = stats or LoadStats()
    pairs = list(pairs)
    try:
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        bad = next(x for pair in pairs for x in pair
                   if not ID_RANGE.start <= x < ID_RANGE.stop)
        raise ParseError(f"vertex id outside the int64 range: {bad}") from None
    universe = arr.ravel()
    if vertex_universe is not None:
        universe = np.concatenate([universe, np.asarray(vertex_universe, dtype=np.int64)])
    orig_ids = _distinct(universe)
    n = len(orig_ids)
    u, v = np.searchsorted(orig_ids, arr.T)
    loop = u == v
    stats.self_loops_dropped = int(loop.sum())
    u, v = u[~loop], v[~loop]
    # both arcs of every edge as sorted keys src * n + dst, duplicates merged
    src, dst = np.divmod(_distinct(np.concatenate([u * n + v, v * n + u])), n)
    m = len(src) // 2
    stats.duplicates_dropped = len(u) - m
    stats.n = n
    stats.m = m
    indptr = np.searchsorted(src, np.arange(n + 1))
    return Graph(n, m, indptr, dst.astype(np.int32), orig_ids, stats)


def load_edge_list(source: str | Path | IO) -> Graph:
    """Parse SNAP-style edge-list text: '#' comments, two ASCII decimal integer
    tokens per line. A malformed line raises ParseError with its line number."""
    close = False
    if isinstance(source, (str, Path)):
        fh = open(source, "rb")
        close = True
    else:
        fh = source
    stats = LoadStats()
    pairs: list[tuple[int, int]] = []
    try:
        # positional decode arguments and line[0] are cheaper per line than the
        # keyword and startswith forms, and pay for the token check below
        for line_no, raw in enumerate(fh, start=1):
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8", "replace")
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                stats.comment_lines += 1
                continue
            tok = line.split()
            if len(tok) != 2:
                raise ParseError(f"expected two integer tokens, got {len(tok)}", line_no)
            # int() also takes digit-group underscores and non-ASCII digits
            if "_" in line or not line.isascii():
                raise ParseError(f"non-decimal token in {tok!r}", line_no)
            try:
                u, v = int(tok[0]), int(tok[1])
            except ValueError:
                raise ParseError(f"non-integer token in {tok!r}", line_no) from None
            # an id outside int64 takes at least 19 characters, so only a line
            # longer than 20 (two ids and a space) can hold one
            if len(line) > 20 and (u not in ID_RANGE or v not in ID_RANGE):
                raise ParseError(f"vertex id outside the int64 range in {tok!r}", line_no)
            stats.data_lines += 1
            pairs.append((u, v))
    finally:
        if close:
            fh.close()
    return from_edges(pairs, stats)


@dataclass
class DegeneracyOrder:
    """Peeling order: position i holds the vertex of minimum degree in the rest.

    ``order`` lists the roots that runs over this order may visit; ``rank``
    and ``core_numbers`` cover every vertex of the graph. A sub-order holds a
    slice of a full order's roots with the full ``rank`` and core numbers.
    Pruned runs skip the roots whose core number is too small to host a
    result (pruning.visited_roots).
    """

    order: np.ndarray
    rank: np.ndarray
    degeneracy: int
    core_numbers: np.ndarray

    @cached_property
    def rank_list(self) -> list[int]:
        """``rank`` as Python ints, built on first use; per-root preparation
        reads it one vertex at a time."""
        return self.rank.tolist()

    def __getstate__(self) -> dict:
        # like Graph.nbrs: pool workers rebuild the list themselves
        state = self.__dict__.copy()
        state.pop("rank_list", None)
        return state


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Min-degree peeling with smallest-id tie-break; also yields core numbers.

    Vertices wait in one min-heap of ids per current degree; an entry whose
    vertex has since been peeled or has lost degree is stale and skipped.
    After a peel at degree d, the minimum degree is at least d - 1.
    """
    n = g.n
    adj = g.nbrs
    deg = [len(nb) for nb in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for u in range(n):
        buckets[deg[u]].append(u)  # ascending ids: already a heap
    removed = [False] * n
    order: list[int] = []
    core: list[int] = [0] * n
    d = delta = 0
    for _ in range(n):
        while True:
            while not buckets[d]:
                d += 1
            u = heapq.heappop(buckets[d])
            if not removed[u] and deg[u] == d:
                break
        removed[u] = True
        delta = max(delta, d)
        core[u] = delta
        order.append(u)
        for v in adj[u]:
            if not removed[v]:
                deg[v] -= 1
                heapq.heappush(buckets[deg[v]], v)
        d = max(d - 1, 0)
    rank = [0] * n
    for pos, u in enumerate(order):
        rank[u] = pos
    return DegeneracyOrder(np.array(order, dtype=np.int64), np.array(rank, dtype=np.int64),
                           delta, np.array(core, dtype=np.int64))


@dataclass
class RootNeighborhood:
    """Search universe of one root: its surviving 1/2-hop out-neighbors.

    Local ids 0..len(verts)-1 index the candidates (ascending global id);
    the root takes local id len(verts). adj[i] is a bitmask over all local
    ids, including the root bit.
    """

    root: int
    verts: list[int]
    adj: list[int]
    cand_pre: int

    @property
    def root_local(self) -> int:
        return len(self.verts)

    @property
    def cand_mask(self) -> int:
        return (1 << len(self.verts)) - 1

    @property
    def cand_now(self) -> int:
        return len(self.verts)


def collect_candidates(g: Graph, order: DegeneracyOrder, root: int,
                       two_hop: bool = True) -> tuple[list[int], list[int]]:
    """Raw higher-rank 1-hop and 2-hop candidates of a root, each ascending.

    A 2-hop candidate is any higher-rank non-neighbor sharing at least one
    common neighbor with the root (the middle vertex may have any rank).
    Together they are the root's higher-rank 2-hop ball. Runs with pruning
    off search all of it; runs with pruning on never build it (see
    runner.prepare_root), and this followed by pruning.reduce_candidates is
    their reference.
    """
    rank = order.rank_list
    r = rank[root]
    adj = g.nbrs
    near = adj[root]
    one = [v for v in near if rank[v] > r]
    if not two_hop:
        return one, []
    pool = set().union(*[adj[v] for v in near])
    # 2-hop means non-adjacent to the root
    pool.difference_update(near)
    pool.discard(root)
    return one, sorted([w for w in pool if rank[w] > r])


def build_root_neighborhood(g: Graph, root: int, one: Sequence[int], two: Sequence[int],
                            cand_pre: int | None = None) -> RootNeighborhood:
    """Assemble local bitmask adjacency over {root} + surviving candidates.

    ``one`` and ``two`` may be any int sequences (lists or NumPy arrays).
    """
    verts = sorted(map(int, chain(one, two)))
    L = len(verts)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    bit[root] = 1 << L
    adj = g.nbrs
    # the bits of distinct members are distinct, so their sum is their OR
    masks = [sum(map(bit.get, adj[u], repeat(0))) for u in verts + [root]]
    return RootNeighborhood(root, verts, masks, cand_pre if cand_pre is not None else L)


def complete_graph(n: int) -> Graph:
    return from_edges([(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    return from_edges([(i, (i + 1) % n) for i in range(n)])


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), seeded; used by the verification corpus."""
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    keep = rng.random(len(iu[0])) < p
    pairs = list(zip(iu[0][keep].tolist(), iu[1][keep].tolist()))
    return from_edges(pairs, vertex_universe=np.arange(n))
