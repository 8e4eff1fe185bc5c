"""Seeded graph generators that write SNAP-style edge-list text.

A workload's graph structure is drawn from STRUCTURE_SEED, a constant; the
run's seed draws the vertex labels and the order of the edge lines. The
same seed therefore gives the same file byte for byte, and every seed
gives an isomorphic graph with the same counts. Independent draws of the
structure moved the work of a run by 20-40% from seed to seed (the cost of
a dense block or a hub's two-hop ball is very sensitive to where its edges
fall), more than any regression bound could absorb. Relabelling still
changes what the program sees: the degeneracy order's tie-breaks, the
dense ids, each root's higher-rank candidates and the chunk boundaries.
The oracle's sample graphs keep fixed labels (the seed still orders their
lines): the oracle extends sets in ascending-id order, and relabelling its
16-18-vertex input moved the oracle's work by up to 10%.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

STRUCTURE_SEED = 20240917


def _gnp_pairs(rng: np.random.Generator, members: np.ndarray, p: float) -> np.ndarray:
    """Edges of G(k, p) on the k given vertex ids, as rows (u, v)."""
    iu, ju = np.triu_indices(len(members), k=1)
    keep = rng.random(len(iu)) < p
    return np.stack([members[iu[keep]], members[ju[keep]]], axis=1)


def _chung_lu_pairs(rng: np.random.Generator, n: int, gamma: float,
                    avg_deg: float) -> np.ndarray:
    """Chung-Lu graph with power-law expected degrees w_i ~ (i + 10)^(-1/(gamma-1)),
    capped at sqrt(sum w) so that every p_ij = w_i w_j / sum w is at most 1."""
    w = (np.arange(n) + 10.0) ** (-1.0 / (gamma - 1.0))
    w *= avg_deg * n / w.sum()
    total = w.sum()
    w = np.minimum(w, np.sqrt(total))
    rows = []
    for i in range(n - 1):
        hit = np.flatnonzero(rng.random(n - i - 1) < w[i] * w[i + 1:] / total) + i + 1
        rows.append(np.stack([np.full(len(hit), i), hit], axis=1))
    return np.concatenate(rows)


def _planted(rng: np.random.Generator, n: int, sizes: list[int],
             p_in: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Disjoint communities of the given sizes on random members, edges at p_in.
    Returns the edges and each community's sorted members."""
    perm = rng.permutation(n)
    parts, members, start = [], [], 0
    for size in sizes:
        members.append(np.sort(perm[start:start + size]))
        parts.append(_gnp_pairs(rng, members[-1], p_in))
        start += size
    return np.concatenate(parts), members


def _induced(pairs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The rows of pairs with both ends in members, relabelled 0..len-1."""
    inside = np.isin(pairs, members).all(axis=1)
    return np.searchsorted(members, pairs[inside])


def _write(path: Path, title: str, n: int, pairs: np.ndarray,
           rng: np.random.Generator, label_rng: np.random.Generator | None = None) -> None:
    """Write pairs under shuffled labels 1..n (drawn from label_rng, by default
    rng) in an order drawn from rng, SNAP style."""
    labels = (label_rng or rng).permutation(n) + 1
    pairs = labels[np.unique(np.sort(pairs, axis=1), axis=0)]
    pairs = pairs[rng.permutation(len(pairs))]
    lines = [f"# {title}", f"# Nodes: {n} Edges: {len(pairs)}", "# FromNodeId\tToNodeId"]
    lines.extend(f"{u}\t{v}" for u, v in pairs.tolist())
    path.write_text("\n".join(lines) + "\n")


def _with_sample(name: str, out_dir: Path, title: str, n: int, pairs: np.ndarray,
                 sample: np.ndarray, seed: int) -> list[Path]:
    """Write the graph and the induced subgraph on the sample's vertices,
    a piece small enough for the oracle, under labels fixed by STRUCTURE_SEED."""
    rng = np.random.default_rng(seed)
    paths = [out_dir / f"{name}.txt", out_dir / f"{name}_sample.txt"]
    _write(paths[0], f"{title}, seed={seed}", n, pairs, rng)
    _write(paths[1], f"{name} sample: induced subgraph of a planted community, seed={seed}",
           len(sample), _induced(pairs, sample), rng,
           label_rng=np.random.default_rng([STRUCTURE_SEED, 0]))
    return paths


def social(seed: int, out_dir: Path, n: int, gamma: float = 2.8, avg_deg: float = 6.0,
           p_in: float = 0.8, sample_size: int = 16) -> list[Path]:
    """Chung-Lu power law plus n/200 planted communities of 10-18 vertices; the
    sample is a planted community of sample_size vertices."""
    rng = np.random.default_rng([STRUCTURE_SEED, 1])
    sizes = [10 + (i * 5) % 9 for i in range(max(4, n // 200))]
    planted, members = _planted(rng, n, sizes, p_in)
    pairs = np.concatenate([_chung_lu_pairs(rng, n, gamma, avg_deg), planted])
    return _with_sample("social", out_dir, f"social: Chung-Lu gamma={gamma} avg_deg={avg_deg}"
                        f" + {len(sizes)} planted communities p_in={p_in}", n, pairs,
                        members[sizes.index(sample_size)], seed)


def dense(seed: int, out_dir: Path, n: int, blocks: int, size_lo: int, size_hi: int,
          p_in: float = 0.9, bg_deg: float = 3.0, sample_size: int = 18) -> list[Path]:
    """Planted dense blocks with sizes cycling size_lo..size_hi on a sparse
    G(n, bg_deg/(n-1)) background; the sample is sample_size vertices of the
    first (smallest) block."""
    rng = np.random.default_rng([STRUCTURE_SEED, 2])
    sizes = [size_lo + i % (size_hi - size_lo + 1) for i in range(blocks)]
    planted, members = _planted(rng, n, sizes, p_in)
    pairs = np.concatenate([_gnp_pairs(rng, np.arange(n), bg_deg / (n - 1)), planted])
    return _with_sample("dense", out_dir, f"dense: {blocks} blocks of {size_lo}-{size_hi} "
                        f"p_in={p_in} on G(n, {bg_deg}/(n-1))", n, pairs,
                        members[0][:sample_size], seed)


def gate(seed: int, out_dir: Path, schedule: list[tuple[int, float]]) -> list[Path]:
    """One G(n, p) file per (n, p) entry of the schedule."""
    rng = np.random.default_rng([STRUCTURE_SEED, 3])
    label_rng = np.random.default_rng(seed)
    paths = []
    for i, (n, p) in enumerate(schedule):
        paths.append(out_dir / f"gate{i:02d}.txt")
        _write(paths[-1], f"gate: G({n}, {p}), seed={seed}", n,
               _gnp_pairs(rng, np.arange(n), p), label_rng)
    return paths
