"""Immutable simple graphs on dense integer vertex ids.

Vertices are always ``0..n-1``; external labels stop at the I/O layer.
Adjacency is kept as one Python int bitmask per vertex, so neighborhood
intersection and membership tests cost O(n/word) regardless of density.
One packed-row builder makes every graph from edges: batches of (m, 2)
int64 arrays are checked with array operations and set as bits of an
(n, ceil(n/8)) uint8 matrix whose rows become the masks. Vertex sets
and restrictions are range-checked here and handed on as masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, islice, repeat
from operator import index

import numpy as np

EDGE_BATCH = 1 << 13
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


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


def upper_row(mask: int, u: int) -> bytes:
    """Bits u+1, u+2, ... of ``mask`` as one 0/1 byte each, for ``compress``."""
    return bin(mask >> u + 1)[:1:-1].encode().translate(_BIT_BYTES)


class Graph:
    """Simple undirected graph, immutable once constructed.

    Self-loops, duplicate edges and out-of-range endpoints are rejected
    outright rather than cleaned up, so test fixtures stay honest.
    """

    __slots__ = ("n", "_adj", "_size")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        it = iter(edges)
        self._build(n, iter(lambda: list(islice(it, EDGE_BATCH)), []))

    @classmethod
    def from_batches(cls, n: int, batches: Iterable[Sequence[tuple[int, int]]]) -> Graph:
        """Graph from batches of edges, best int64 (m, 2) arrays; same checks."""
        g = cls.__new__(cls)
        g._build(n, batches)
        return g

    def _build(self, n: int, batches: Iterable[Sequence[tuple[int, int]]]) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = np.zeros((n, (n + 7) // 8), np.uint8)
        size = 0
        for batch in filter(len, batches):
            uv = _checked_batch(rows, n, batch)
            tails, heads = uv.T.ravel(), uv[:, ::-1].T.ravel()
            np.bitwise_or.at(rows, (tails, heads >> 3), (1 << (heads & 7)).astype(np.uint8))
            size += len(uv)
        self.n = n
        self._adj = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
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
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return bool((self.neighbor_mask(u) >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        return chain.from_iterable(zip(repeat(u), compress(range(u + 1, self.n), upper_row(m, u)))
                                   for u, m in enumerate(self._adj))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._size})"


def _checked_batch(rows: np.ndarray, n: int, batch) -> np.ndarray:
    """The batch as an int64 (m, 2) array of new in-range edges, no loop and
    no repeat; else the first bad edge raises, as a per-edge scan finds it."""
    try:
        uv = np.asarray(batch)
    except ValueError:  # ragged pairs
        uv = np.zeros(0)
    if uv.dtype.kind in "biu" and uv.shape == (len(batch), 2):
        u, v = (uv := uv.astype(np.int64)).T  # uint64 past int64 wraps negative
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        if (uv.min() >= 0 and uv.max() < n and (u != v).all() and (keys[1:] != keys[:-1]).all()
                and not (rows[u, v >> 3] >> (v & 7) & 1).any()):
            return uv
    seen = set()
    for u, v in batch:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(index(u), index(v)), max(u, v))  # a float endpoint raises here
        if key in seen or (rows[u, v >> 3] >> (v & 7)) & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    raise TypeError("edge endpoints must be integers")


def vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask; raises on ids outside ``[0, g.n)``."""
    vs = list(vertices)
    lo, hi = min(vs, default=0), max(vs, default=0)
    if vs and not (0 <= lo and hi < g.n):
        raise ValueError(f"vertex {lo if lo < 0 else hi} out of range for n={g.n}")
    return mask_from(vs)


def restriction_mask(g: Graph, within: int | None) -> int:
    """The vertex mask ``within``, None meaning every vertex; raises on a
    bit outside ``[0, g.n)``."""
    full = (1 << g.n) - 1
    if within is None:
        return full
    if not 0 <= within <= full:
        raise ValueError(f"restriction mask {within:#x} has a bit outside [0, {g.n})")
    return within


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    m = vertex_mask(g, vertices)
    return all((g._adj[u] | 1 << u) & m == m for u in bits(m))


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    m = vertex_mask(g, vertices)
    return all(g._adj[u] & m == 0 for u in bits(m))
