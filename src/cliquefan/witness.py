"""Complete subgraph search and embedding verification.

Everything here uses non-induced semantics: extra edges in the host never
invalidate a witness. Search order is fixed (ascending center, ascending
blade vertices), so results are reproducible and the first witness found
is always the lexicographically smallest one the search visits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .generators import FanShape
from .graphs import Graph, is_clique, mask_from
from .invariants import _max_matching_from, greedy_matching

TRIANGLE_BLOCK_WORDS = 1 << 14  # edge ends per block of rows in triangle_counts


@dataclass(frozen=True)
class FanEmbedding:
    """Center plus pairwise disjoint blades; blade + center must be a clique."""

    center: int
    blades: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeneralizedFanEmbedding:
    """Base clique plus, for each base vertex, its blades of size 2r.

    ``blades_by_center[i]`` holds the blades of ``base[i]``; the blade
    counts sorted non-increasingly form the embedding's tuple.
    """

    base: tuple[int, ...]
    blades_by_center: tuple[tuple[tuple[int, ...], ...], ...]


def _cliques_within(adj: tuple[int, ...], avail: int, size: int):
    """Yield all ``size``-cliques inside the ``avail`` mask as ascending
    tuples, in lexicographic order; ``size`` is at least 1."""
    prefix: list[int] = []

    def rec(cand: int):
        if len(prefix) == size:
            yield tuple(prefix)
            return
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if len(prefix) + 1 + (m & adj[v]).bit_count() >= size:
                prefix.append(v)
                yield from rec(m & adj[v])
                prefix.pop()

    yield from rec(avail)


def _triangle_fan_at(g: Graph, center: int, k: int) -> FanEmbedding | None:
    """The fan of k triangles through ``center``, or None when nu(G[N]) < k.
    Two Tutte-Berge barriers settle most centers on the host's masks: U =
    {} gives nu <= d/2, and U = a greedy maximal matching's vertices gives
    nu <= 2 |greedy|. A maximum matching inside N, warm-started from it, decides the rest."""
    nbhd = g._adj[center]
    if nbhd.bit_count() < 2 * k or 2 * len(greedy := greedy_matching(g._adj, nbhd)) < k:
        return None
    mm = _max_matching_from(g._adj, nbhd, greedy)
    return FanEmbedding(center, mm[:k]) if len(mm) >= k else None


def triangle_counts(g: Graph, first: int, least: int):
    """Yield (x, t(x)) for each x >= ``first`` with d(x) >= ``least``, in
    order; t(x) counts the non-isolated vertices of G[N(x)]. Each edge uv,
    u < v, with a center at an end is tested once, one word column at a time,
    and a hit counts at both ends. Rows go in blocks of about
    TRIANGLE_BLOCK_WORDS edge ends; a block's centers are final when it
    ends, since their edges to earlier rows came in earlier blocks."""
    n, w, ones = g.n, (g.n + 63) // 64, ~np.uint64(0)
    rows = np.frombuffer(b"".join(m.to_bytes(8 * w, "little") for m in g._adj), "<u8").reshape(n, w)
    cols, deg = np.ascontiguousarray(rows.T), np.bitwise_count(rows).sum(axis=1)
    center = (deg >= least) & (np.arange(n) >= first)
    if not center.any():
        return
    # Row u keeps its edges to later rows: all if u is a center, else those to centers.
    keep = np.packbits(np.pad(center, (0, 64 * w - n)), bitorder="little").view("<u8")
    stop = np.flatnonzero(center)[-1] + 1
    cuts = np.flatnonzero(np.diff(np.cumsum(deg[:stop]) // TRIANGLE_BLOCK_WORDS)) + 1
    t = np.zeros(n, np.int64)
    for a, b in itertools.pairwise([0, *cuts.tolist(), stop]):
        later = np.clip(np.arange(a + 1, b + 1)[:, None] - 64 * np.arange(w), 0, 64).astype(np.uint64)
        sub = rows[a:b] & np.where(center[a:b, None], ones, keep) & (ones << later)
        i, j = np.nonzero(sub)
        f = np.flatnonzero(np.unpackbits(sub[i, j].view(np.uint8), bitorder="little").view(bool))
        i, v = i[f >> 6], 64 * j[f >> 6] + (f & 63)
        hit, runs = np.zeros(len(v), bool), np.bincount(i, minlength=b - a)
        for c in cols:  # edge (a + i, v) tests one word of each end
            hit |= (np.repeat(c[a:b], runs) & c.take(v)).astype(bool)
        t += np.bincount(i[hit] + a, minlength=n) + np.bincount(v[hit], minlength=n)
        xs = np.flatnonzero(center[a:b]) + a
        yield from zip(xs.tolist(), t[xs].tolist())


def find_fan(g: Graph, shape: FanShape) -> FanEmbedding | None:
    """Complete search for a fan of ``shape.k`` cliques of order ``shape.r``.

    For triangles, x works exactly when nu(G[N(x)]) >= k, which
    :func:`_triangle_fan_at` decides; once the centers it rejected have
    walked n neighbours, t(x) < 2k settles later ones (Tutte-Berge, U = {}:
    the d - t isolated vertices of G[N(x)] are odd components). Other orders
    backtrack over disjoint (r-1)-cliques in N(x), smallest vertices first.
    """
    k, r = shape.k, shape.r
    if shape.vertex_count > g.n:
        return None
    if r == 3:
        spent = 0
        for x in range(g.n):
            if emb := _triangle_fan_at(g, x, k):
                return emb
            spent += d if (d := g._adj[x].bit_count()) >= 2 * k else 0
            if spent >= g.n:  # the rows to pack cost about what the scan spent
                live = (y for y, t in triangle_counts(g, x + 1, 2 * k) if t >= 2 * k)
                return next(filter(None, (_triangle_fan_at(g, y, k) for y in live)), None)
        return None
    adj = g._adj
    for x in range(g.n):
        if g.degree(x) < (r - 1) * k:
            continue
        blades = _disjoint_blades(adj, g.neighbor_mask(x), r - 1, k, -1)
        if blades is not None:
            return FanEmbedding(x, tuple(blades))
    return None


def _disjoint_blades(
    adj: tuple[int, ...], avail: int, size: int, count: int, min_first: int
) -> list[tuple[int, ...]] | None:
    if count == 0:
        return []
    floor = avail & ~((1 << (min_first + 1)) - 1) if min_first >= 0 else avail
    for c in _cliques_within(adj, floor, size):
        rest = _disjoint_blades(adj, avail & ~mask_from(c), size, count - 1, c[0])
        if rest is not None:
            return [c] + rest
    return None


def _blade_problem(g: Graph, center: int, blade, size: int, seen: set[int]) -> str | None:
    """The first fault of one blade: its size, its vertices (range, and
    not in ``seen``, which takes them in), then its clique with the center,
    accepted by row masks."""
    if len(blade) != size:
        return f"wrong blade size: {len(blade)} != {size}"
    for v in blade:
        if not 0 <= v < g.n:
            return f"vertex {v} out of range"
        if v in seen:
            return f"duplicate vertex {v}"
        seen.add(v)
    group, gmask = (center, *blade), mask_from(blade) | 1 << center
    if all((g._adj[u] | 1 << u) & gmask == gmask for u in group):
        return None  # only a blade that fails walks its pairs, to name the first gap
    for i, u in enumerate(group):
        for v in group[i + 1:]:
            if not g.has_edge(u, v):
                return f"missing edge ({u}, {v})"
    return None


def verify_fan(g: Graph, e: FanEmbedding, shape: FanShape) -> str | None:
    """None when the embedding is a valid fan of the given shape in ``g``, with
    exactly ``shape.k`` blades, else the first violated constraint."""
    if not 0 <= e.center < g.n:
        return f"center {e.center} out of range"
    if len(e.blades) != shape.k:
        return f"wrong blade count: {len(e.blades)} != {shape.k}"
    seen = {e.center}
    problems = (_blade_problem(g, e.center, b, shape.r - 1, seen) for b in e.blades)
    return next(filter(None, problems), None)


def verify_generalized_fan(g: Graph, e: GeneralizedFanEmbedding, r: int) -> str | None:
    """None when valid, else the first violated constraint.

    Blades must have size 2r, be pairwise disjoint and avoid the base,
    and form a clique of order 2r+1 together with their center; the base
    itself must be a clique.
    """
    if len(e.base) == 0:
        return "empty base"
    if len(set(e.base)) != len(e.base):
        return "duplicate vertex in base"
    for v in e.base:
        if not 0 <= v < g.n:
            return f"vertex {v} out of range"
    if len(e.blades_by_center) != len(e.base):
        return "blade lists misaligned with base"
    if not is_clique(g, e.base):
        return "base is not a clique"
    seen = set(e.base)
    problems = (
        _blade_problem(g, center, b, 2 * r, seen)
        for center, blades in zip(e.base, e.blades_by_center)
        for b in blades
    )
    return next(filter(None, problems), None)
