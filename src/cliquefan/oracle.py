"""Brute-force oracles at desk scale.

This module is the independent baseline for every search path in the
package, so it deliberately shares no algorithm with them: containment
is checked by raw injection backtracking, independence by subset
enumeration, and extremal values by scanning integer-coded edge sets in
ascending order. Witness ties always resolve to the smallest edge code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .generators import FanShape, fan_graph
from .graphs import Graph, bits

ENUMERATION_CEILING = 7


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=16)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs in lexicographic order; bit i of an edge code is pair i."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def graph_from_code(n: int, code: int) -> Graph:
    if not 0 <= code < (1 << pair_count(n)):
        raise ValueError("edge code out of range")
    pairs = _pairs(n)
    masks = [0] * n
    size = 0
    m = code
    while m:
        low = m & -m
        u, v = pairs[low.bit_length() - 1]
        m ^= low
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        size += 1
    return Graph._from_masks(n, masks, size)


def edge_code(g: Graph) -> int:
    code = 0
    for i, (u, v) in enumerate(_pairs(g.n)):
        if g.has_edge(u, v):
            code |= 1 << i
    return code


def brute_alpha(g: Graph) -> int:
    """Independence number by enumerating all vertex subsets."""
    adj = g._adj
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        m = mask
        ok = True
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if adj[v] & mask:
                ok = False
                break
        if ok:
            best = mask.bit_count()
    return best


def brute_nu(g: Graph) -> int:
    """Matching number by backtracking over the edge list."""
    edge_list = list(g.edges())

    def rec(i: int, used: int) -> int:
        best = 0
        for j in range(i, len(edge_list)):
            u, v = edge_list[j]
            if (used >> u) & 1 or (used >> v) & 1:
                continue
            best = max(best, 1 + rec(j + 1, used | (1 << u) | (1 << v)))
        return best

    return rec(0, 0)


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
                image[i] = -1
        return False

    return rec(0, 0)


def _pair_index(n: int, lo: int, hi: int) -> int:
    return lo * (2 * n - lo - 1) // 2 + hi - lo - 1


@lru_cache(maxsize=16)
def _pair_images(n: int) -> np.ndarray:
    """Entry (p, i) is the code bit that pair i moves to under the p-th
    permutation of ``range(n)``; uint8 indices keep the build small."""
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    bit = np.zeros((n, n), dtype=np.uint64)
    for i, (u, v) in enumerate(_pairs(n)):
        bit[u, v] = bit[v, u] = 1 << i
    lo, hi = np.array(_pairs(n), dtype=np.uint8).reshape(-1, 2).T
    return bit[perms[:, lo], perms[:, hi]]


def _relabelings(table: np.ndarray, pair_ids: list[int]) -> np.ndarray:
    # Distinct pairs move to distinct bits, so XOR assembles each code.
    return np.bitwise_xor.reduce(table[:, pair_ids], axis=1)


def canonical_code(g: Graph) -> int:
    """Minimum edge code over all vertex relabelings.

    Every relabeled code is read off the cached pair-image table in one
    vectorized pass over all n! permutations; exact by construction.
    """
    n = g.n
    if n > 8:
        raise ValueError("canonical codes are only supported up to 8 vertices")
    pair_ids = [_pair_index(n, u, v) for u, v in g.edges()]
    return int(_relabelings(_pair_images(n), pair_ids).min())


@lru_cache(maxsize=16)
def nonisomorphic_graph_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of all isomorphism classes on ``n`` vertices.

    Built by vertex augmentation: every class on n vertices arises from
    some class on n-1 vertices by attaching one vertex. Each smaller
    representative is re-encoded on n vertices and relabeled once; its
    2^(n-1) neighbourhoods of the new vertex are then walked in Gray-code
    order, so each step XORs one pair-image column into all n! codes
    before taking their minimum.
    """
    if n > 8:
        raise ValueError("class enumeration is only supported up to 8 vertices")
    if n <= 1:
        return (0,)
    table = _pair_images(n)
    shifted = [_pair_index(n, u, v) for u, v in _pairs(n - 1)]
    attach = [table[:, _pair_index(n, j, n - 1)] for j in range(n - 1)]
    seen: set[int] = set()
    for code in nonisomorphic_graph_codes(n - 1):
        codes = _relabelings(table, [shifted[i] for i in bits(code)])
        seen.add(int(codes.min()))
        for step in range(1, 1 << (n - 1)):
            codes ^= attach[(step & -step).bit_length() - 1]
            seen.add(int(codes.min()))
    return tuple(sorted(seen))


def _scan_codes(n: int, iso_filter: bool):
    if iso_filter:
        return nonisomorphic_graph_codes(n)
    return range(1 << pair_count(n))


def exact_ex(
    n: int,
    shape: FanShape,
    *,
    iso_filter: bool = False,
    lower_bound_only: bool = False,
    seed: int = 0,
    restarts: int = 50,
) -> tuple[int, Graph]:
    """Maximum edge count of a fan-free graph of order ``n``, with a witness.

    Exhaustive up to :data:`ENUMERATION_CEILING`; the witness is the
    smallest-edge-code graph attaining the maximum, which the class
    filter preserves because that graph is canonical in its class. For
    larger ``n`` pass ``lower_bound_only=True`` to get the best of
    seeded random maximal constructions, a lower bound only.
    """
    if n > ENUMERATION_CEILING and not lower_bound_only:
        raise ValueError(
            f"order {n} exceeds the enumeration ceiling {ENUMERATION_CEILING}; "
            "pass lower_bound_only=True for a seeded lower bound"
        )
    pattern, _ = fan_graph(shape)
    if lower_bound_only and n > ENUMERATION_CEILING:
        return _random_maximal(n, pattern, seed, restarts)
    best_count, best_code = -1, 0
    for code in _scan_codes(n, iso_filter):
        count = code.bit_count() if isinstance(code, int) else int(code).bit_count()
        if count <= best_count:
            continue
        g = graph_from_code(n, code)
        if not naive_contains(g, pattern):
            best_count, best_code = count, code
    return best_count, graph_from_code(n, best_code)


def _random_maximal(n: int, pattern: Graph, seed: int, restarts: int) -> tuple[int, Graph]:
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = list(_pairs(n))
    best: Graph | None = None
    for _ in range(restarts):
        order = rng.permutation(len(pairs))
        edges: list[tuple[int, int]] = []
        for idx in order:
            candidate = edges + [pairs[idx]]
            if not naive_contains(Graph(n, candidate), pattern):
                edges = candidate
        g = Graph(n, edges)
        if best is None or g.size > best.size:
            best = g
    assert best is not None
    return best.size, best


def exact_rt(
    n: int, shape: FanShape, alpha_cap: int, *, iso_filter: bool = False
) -> tuple[int, Graph] | None:
    """Like :func:`exact_ex` but restricted to graphs whose independence
    number stays at or below ``alpha_cap``; None when no graph qualifies."""
    if n > ENUMERATION_CEILING:
        raise ValueError(f"order {n} exceeds the enumeration ceiling {ENUMERATION_CEILING}")
    pattern, _ = fan_graph(shape)
    best_count, best_code = -1, None
    for code in _scan_codes(n, iso_filter):
        code = int(code)
        count = code.bit_count()
        if count <= best_count:
            continue
        g = graph_from_code(n, code)
        if brute_alpha(g) > alpha_cap:
            continue
        if not naive_contains(g, pattern):
            best_count, best_code = count, code
    if best_code is None:
        return None
    return best_count, graph_from_code(n, best_code)
