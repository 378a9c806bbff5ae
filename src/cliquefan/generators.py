"""Deterministic graph constructions: Turán graphs, clique fans, the
complete-multipartite lower-bound construction, and seeded random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np

from .graphs import EDGE_BATCH, Graph, mask_from


@dataclass(frozen=True)
class FanShape:
    """``k`` cliques of order ``r`` sharing exactly one vertex."""

    k: int
    r: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("fan needs at least one clique")
        if self.r < 2:
            raise ValueError("clique order must be at least 2")

    @property
    def vertex_count(self) -> int:
        return (self.r - 1) * self.k + 1


@dataclass(frozen=True)
class TupleShape:
    """Base clique of ``len(ks)`` vertices, the i-th carrying ``ks[i]``
    disjoint cliques of order ``2r + 1`` through it."""

    ks: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(self.ks))
        if len(self.ks) < 1:
            raise ValueError("base must have at least one vertex")
        if any(k < 0 for k in self.ks):
            raise ValueError("blade counts must be nonnegative")
        if any(a < b for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError("blade counts must be non-increasing")
        if self.r < 1:
            raise ValueError("r must be positive")

    @property
    def vertex_count(self) -> int:
        return len(self.ks) + 2 * self.r * sum(self.ks)


def turan_graph(n: int, r: int) -> Graph:
    """Balanced complete r-partite graph; vertex v sits in part v mod r."""
    if r < 1:
        raise ValueError("need at least one part")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    full, parts = (1 << n) - 1, [mask_from(range(p, n, r)) for p in range(r)]
    m = (n * n - sum(part.bit_count() ** 2 for part in parts)) // 2
    return Graph._from_masks(n, [full ^ parts[v % r] for v in range(n)], m)


@lru_cache(maxsize=16)
def fan_graph(shape: FanShape) -> tuple[Graph, int]:
    """Fan with the given shape; returns the graph and its center (always 0).
    Cached per shape, since a :class:`Graph` is immutable."""
    k, r = shape.k, shape.r
    edges = []
    for j in range(k):
        blade = range(1 + j * (r - 1), 1 + (j + 1) * (r - 1))
        edges += [(0, v) for v in blade] + list(combinations(blade, 2))
    return Graph(shape.vertex_count, edges), 0


def generalized_fan(shape: TupleShape) -> tuple[Graph, tuple[int, ...]]:
    """Base clique with per-vertex fans of odd cliques K_{2r+1}.

    Base vertices are 0..m-1; blade vertices follow in allocation order.
    Returns the graph and the base.
    """
    m = len(shape.ks)
    blade_size = 2 * shape.r
    edges = list(combinations(range(m), 2))
    nxt = m
    for center, count in enumerate(shape.ks):
        for _ in range(count):
            blade = range(nxt, nxt + blade_size)
            nxt += blade_size
            edges += [(center, v) for v in blade] + list(combinations(blade, 2))
    return Graph(shape.vertex_count, edges), tuple(range(m))


# Catalogued triangle-free part graphs for the lower-bound construction.
# Each atom lists its order, edge set and exact independence number; a
# part of size s is filled with s // order disjoint copies.
_C5_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
_C13_EDGES = tuple(
    sorted({tuple(sorted((i, (i + d) % 13))) for i in range(13) for d in (1, 5)})
)

PART_CATALOG: dict[str, dict] = {
    "c5": {"order": 5, "edges": _C5_EDGES, "alpha": 2},
    "c13-power": {"order": 13, "edges": _C13_EDGES, "alpha": 4},
    "empty": {"order": 1, "edges": (), "alpha": 1},
}


def part_sizes(n: int, r: int) -> list[int]:
    """Balanced part sizes; remainder vertices go to the first parts."""
    q, rem = divmod(n, r)
    return [q + 1 if i < rem else q for i in range(r)]


def catalogued_alpha(part_key: str, size: int) -> int:
    """Exact independence number of one filled part of the given size."""
    if part_key.startswith("tf-process:"):
        raise ValueError("triangle-free process parts have no catalogued alpha; measure it")
    atom = PART_CATALOG[part_key]
    if size % atom["order"]:
        raise ValueError(f"part size {size} incompatible with catalogued graph {part_key!r}")
    return (size // atom["order"]) * atom["alpha"]


def rt_lower_construction(n: int, r: int, part_key: str = "c5") -> Graph:
    """Complete r-partite graph with a triangle-free graph inside each part.

    Parts are contiguous vertex ranges. Intra-part graphs come from the
    catalog (disjoint copies of the named atom) or from the seeded
    triangle-free process via key ``tf-process:<seed>``. The result has
    no clique larger than 2r, hence contains no fan of odd cliques
    K_{2r+1}, while keeping at least the full between-part edge count.
    """
    if r < 2:
        raise ValueError("need at least two parts")
    sizes, masks = part_sizes(n, r), []
    size = (n * n - sum(s * s for s in sizes)) // 2
    # Each vertex joins every other part, and its own part's graph.
    for idx, (off, s) in enumerate(zip(accumulate(sizes[:-1], initial=0), sizes)):
        if part_key.startswith("tf-process:"):
            part = triangle_free_process(s, int(part_key.split(":", 1)[1]) + idx)
        elif part_key not in PART_CATALOG:
            raise ValueError(f"unknown part graph {part_key!r}")
        else:
            catalogued_alpha(part_key, s)  # rejects a size the atom does not divide
            order, atom = PART_CATALOG[part_key]["order"], PART_CATALOG[part_key]["edges"]
            part = Graph(s, [(b + u, b + v) for b in range(0, s, order) for u, v in atom])
        others = ((1 << n) - 1) ^ (((1 << s) - 1) << off)
        masks += [others | m << off for m in part._adj]
        size += part.size
    return Graph._from_masks(n, masks, size)


def gnp_random(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) from a seeded PCG64 stream.

    Pairs are drawn in lexicographic order, in chunks of at most
    ``EDGE_BATCH`` draws, so a seed pins the graph bit for bit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    upper = np.empty(n * (n - 1) // 2, bool)
    for i in range(0, len(upper), EDGE_BATCH):
        upper[i:i + EDGE_BATCH] = rng.random(min(EDGE_BATCH, len(upper) - i)) < p
    adj, start = np.zeros((n, n), bool), 0
    for i in range(n - 1):  # row i and column i at once: adj | adj.T would copy n × n
        adj[i, i + 1:] = adj[i + 1:, i] = upper[start:(start := start + n - 1 - i)]
    rows = np.packbits(adj, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    return Graph._from_masks(n, masks, int(np.count_nonzero(upper)))


def triangle_free_process(n: int, seed: int) -> Graph:
    """Seeded triangle-free process: visit all pairs in a random order,
    keeping each edge that closes no triangle."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    us, vs = np.triu_indices(n, 1)
    order = rng.permutation(len(us))
    adj = [0] * n
    size = 0
    for u, v in zip(us[order].tolist(), vs[order].tolist()):
        if adj[u] & adj[v]:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        size += 1
    return Graph._from_masks(n, adj, size)
