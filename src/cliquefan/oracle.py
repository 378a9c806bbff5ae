"""Brute-force oracles at desk scale.

This module is the independent baseline for every search path in the
package, so it deliberately shares no algorithm with them. On one graph,
containment is checked by raw injection backtracking; extremal values
come from one array scan of edge codes against every placement of the
pattern and of K_{cap+1}. Isomorphism classes are read from a shipped
table of minimum codes, ``data/class_codes.u32``, which
``tests/class_table.py`` writes and checks by full vertex augmentation.
Witness ties always resolve to the smallest edge code.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from importlib import resources
from math import factorial

import numpy as np

from .generators import FanShape, fan_graph
from .graphs import Graph, bits

ENUMERATION_CEILING = 7
# Classes on n = 0..8 vertices (OEIS A000088), the section sizes of CLASS_TABLE.
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
CLASS_TABLE = resources.files(__package__).joinpath("data/class_codes.u32")


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=16)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs in lexicographic order; bit i of an edge code is pair i."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def graph_from_code(n: int, code: int) -> Graph:
    if n < 0 or not 0 <= code < (1 << pair_count(n)):
        raise ValueError("order or edge code out of range")
    pairs = _pairs(n)
    masks = [0] * n
    for i in bits(code):
        u, v = pairs[i]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._from_masks(n, masks, code.bit_count())


def edge_code(g: Graph) -> int:
    code = 0
    for i, (u, v) in enumerate(_pairs(g.n)):
        if g.has_edge(u, v):
            code |= 1 << i
    return code


def naive_contains(g: Graph, pattern: Graph) -> bool:
    """True when some injection of the pattern maps edges onto edges.

    Pure backtracking in pattern-id order; the only shortcut is the
    degree-feasibility test on candidate images.
    """
    if pattern.n > g.n:
        return False
    pdeg = [pattern.degree(v) for v in range(pattern.n)]
    gdeg = [g.degree(v) for v in range(g.n)]
    image = [-1] * pattern.n

    def rec(i: int, used: int) -> bool:
        if i == pattern.n:
            return True
        prev = [(j, image[j]) for j in pattern.neighbors(i) if j < i]
        for cand in range(g.n):
            if (used >> cand) & 1 or gdeg[cand] < pdeg[i]:
                continue
            if all(g.has_edge(cand, img) for _, img in prev):
                image[i] = cand
                if rec(i + 1, used | (1 << cand)):
                    return True
        return False

    return rec(0, 0)


def _pair_index(n: int, lo: int, hi: int) -> int:
    return lo * (2 * n - lo - 1) // 2 + hi - lo - 1


@lru_cache(maxsize=16)
def _pair_images(n: int) -> np.ndarray:
    """Entry (p, i) is the code bit that pair i moves to under the p-th
    permutation of ``range(n)`` in ``itertools.permutations`` order. Codes
    fit in uint32 up to n = 8, its 28 pairs; larger n raises."""
    if n > 8:
        raise ValueError("pair images need an order of at most 8")
    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):  # each first vertex, then the rest in order
        first = np.repeat(np.arange(k, dtype=np.uint8), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack((first, rest + (rest >= first)))
    bit = np.zeros((n, n), dtype=np.uint32)
    for i, (u, v) in enumerate(_pairs(n)):
        bit[u, v] = bit[v, u] = 1 << i
    lo, hi = np.array(_pairs(n), dtype=np.uint8).reshape(-1, 2).T
    return bit[perms[:, lo], perms[:, hi]]


def _relabelings(n: int, edges: Iterable[tuple[int, int]], step: int = 1) -> np.ndarray:
    """Edge code of the image of ``edges`` under every ``step``-th permutation of ``range(n)``."""
    # Distinct pairs move to distinct bits, so XOR assembles each code.
    pair_ids = [_pair_index(n, u, v) for u, v in edges]
    return np.bitwise_xor.reduce(_pair_images(n)[::step, pair_ids], axis=1)


@lru_cache(maxsize=16)
def nonisomorphic_graph_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of all isomorphism classes on ``n`` vertices, each
    the minimum edge code over its relabelings, in ascending order.

    Read from :data:`CLASS_TABLE`: the sections for n = 0..8 in turn, of
    :data:`CLASS_COUNTS` little-endian uint32 codes each. A table of any
    other length raises, so a short one never yields a short list.
    """
    if not 0 <= n <= 8:
        raise ValueError("class enumeration needs an order from 0 to 8")
    table = CLASS_TABLE.read_bytes()
    if len(table) != 4 * sum(CLASS_COUNTS):
        raise ValueError(f"class table holds {len(table)} bytes, not {4 * sum(CLASS_COUNTS)}")
    start = sum(CLASS_COUNTS[:n])
    return tuple(np.frombuffer(table, "<u4", CLASS_COUNTS[n], 4 * start).tolist())


def _placements(n: int, order: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Distinct edge codes of the copies in ``range(n)`` of a graph on
    ``range(order)``. In lexicographic order a permutation's first
    ``order`` images stay put for (n - order)! steps, so every such step
    visits each injection of ``range(order)`` once."""
    if order > n:
        return []
    return list(set(_relabelings(n, edges, factorial(n - order)).tolist()))


def exact_rt(
    n: int, shape: FanShape, alpha_cap: int | None, *, iso_filter: bool = False
) -> tuple[int, Graph] | None:
    """Maximum edge count of a fan-free graph of order ``n`` whose
    independence number is at most ``alpha_cap``, with a witness; None
    when no graph qualifies. ``alpha_cap=None`` sets no cap, which gives
    ex(n, fan).

    Exhaustive up to :data:`ENUMERATION_CEILING`, over every edge code or,
    with ``iso_filter``, one canonical code per isomorphism class. A code
    holds the fan iff it covers a placement of it, and has α > cap iff it
    shares no edge with a placement of K_{cap+1}. Edge counts are tested
    from the top; the smallest survivor of the first count with one is
    the witness, which is canonical in its class.
    """
    if n < 0 or (alpha_cap is not None and alpha_cap < 0):
        raise ValueError("order and independence cap must be non-negative")
    if n > ENUMERATION_CEILING:
        raise ValueError(f"order {n} exceeds the enumeration ceiling {ENUMERATION_CEILING}")
    pattern, _ = fan_graph(shape)
    codes = (np.array(nonisomorphic_graph_codes(n), dtype=np.uint64) if iso_filter
             else np.arange(1 << pair_count(n), dtype=np.uint64))
    tests = [(p, p) for p in _placements(n, pattern.n, pattern.edges())]
    if alpha_cap is not None and alpha_cap < n:
        tests += [(p, 0) for p in _placements(n, alpha_cap + 1, _pairs(alpha_cap + 1))]
    counts = np.bitwise_count(codes)
    for m in range(int(counts.max()), -1, -1):
        group = codes[counts == m]
        for mask, hit in tests:
            if not group.size:
                break
            group = group[group & mask != hit]
        if group.size:
            return m, graph_from_code(n, int(group[0]))
    return None


def exact_ex(n: int, shape: FanShape, *, iso_filter: bool = False) -> tuple[int, Graph]:
    """ex(n, fan): :func:`exact_rt` with no independence cap. The empty
    graph is fan-free, so a witness always exists."""
    return exact_rt(n, shape, None, iso_filter=iso_filter)
