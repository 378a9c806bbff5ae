"""Immutable simple graphs on dense integer vertex ids.

Vertices are always ``0..n-1``; external labels stop at the I/O layer.
Adjacency is kept as one Python int bitmask per vertex, so neighborhood
intersection and membership tests cost O(n/word) regardless of density.
Induced subgraphs are cut out of those masks by one numpy bit extract.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np


def mask_from(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph, immutable once constructed.

    Self-loops, duplicate edges and out-of-range endpoints are rejected
    outright rather than cleaned up, so test fixtures stay honest.
    """

    __slots__ = ("n", "_adj", "_size")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        size = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (adj[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            size += 1
        self.n = n
        self._adj = tuple(adj)
        self._size = size

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int], size: int) -> Graph:
        """Trusted fast path for callers that already hold valid masks."""
        g = cls.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        g._size = size
        return g

    @property
    def order(self) -> int:
        """Number of vertices."""
        return self.n

    @property
    def size(self) -> int:
        """Number of edges."""
        return self._size

    def neighbor_mask(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.neighbor_mask(v)))

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= v < self.n:
            _raise_range(v, self.n)
        return bool((self.neighbor_mask(u) >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            m = self._adj[u] >> (u + 1)
            while m:
                low = m & -m
                yield u, u + low.bit_length()
                m ^= low

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._size})"


def _raise_range(v: int, n: int):
    raise ValueError(f"vertex {v} out of range for n={n}")


def vertex_set(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of ids into a sorted duplicate-free tuple.

    Raises on ids outside ``[0, g.n)``.
    """
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    return tuple(vs)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph plus the old-id to new-id bijection onto [0, |s|).

    The mapping is order preserving: the smallest retained id becomes 0.
    Each retained row is shifted down to the window ``[min s, max s]``
    and serialised; one numpy pass unpacks the rows into a 0/1 matrix,
    keeps the subset's columns and packs them back into bitmasks.
    """
    vs = vertex_set(g, vertices)
    mapping = {v: i for i, v in enumerate(vs)}
    if not vs:
        return Graph._from_masks(0, (), 0), mapping
    lo = vs[0]
    width = (vs[-1] - lo) // 8 + 1
    window = (1 << 8 * width) - 1
    adj = g._adj
    raw = b"".join(((adj[v] >> lo) & window).to_bytes(width, "little") for v in vs)
    rows = np.frombuffer(raw, np.uint8).reshape(len(vs), width)
    sub = np.unpackbits(rows, axis=1, bitorder="little")[:, np.array(vs) - lo]
    data = np.packbits(sub, axis=1, bitorder="little").tobytes()
    step = len(data) // len(vs)
    masks = [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]
    return Graph._from_masks(len(vs), masks, int(np.count_nonzero(sub)) // 2), mapping


def min_degree(g: Graph) -> tuple[int, int]:
    """Vertex of minimum degree and its degree; ties go to the smallest id."""
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    best_v, best_d = 0, g.degree(0)
    for v in range(1, g.n):
        d = g.degree(v)
        if d < best_d:
            best_v, best_d = v, d
    return best_v, best_d


def common_neighbors(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    """Vertices outside ``vertices`` adjacent to every member of it."""
    vs = vertex_set(g, vertices)
    if not vs:
        raise ValueError("common neighborhood of the empty set is the whole graph; pass vertices")
    m = (1 << g.n) - 1
    for v in vs:
        m &= g.neighbor_mask(v)
    m &= ~mask_from(vs)
    return tuple(bits(m))


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = vertex_set(g, vertices)
    for i, u in enumerate(vs):
        row = g.neighbor_mask(u)
        for v in vs[i + 1:]:
            if not (row >> v) & 1:
                return False
    return True


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    vs = vertex_set(g, vertices)
    for i, u in enumerate(vs):
        row = g.neighbor_mask(u)
        for v in vs[i + 1:]:
            if (row >> v) & 1:
                return False
    return True
