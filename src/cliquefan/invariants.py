"""Exact independence and matching numbers.

Both solvers are exact and deterministic: ties are broken by smallest
vertex id everywhere, so a fixed graph always yields the same witness.
The independence solver is branch and bound with a greedy clique-cover
upper bound; the matching solver is a full augmenting-path search with
blossom contraction, so odd cycles are handled correctly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, bits, is_independent, mask_from

# Above this order an explicit budget must be supplied; the default
# budget is counted in branch-and-bound node expansions.
EXACT_SOLVE_CEILING = 64
DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, each stored as (u, v) with u < v."""

    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.edges)

    def covered(self) -> tuple[int, ...]:
        return tuple(sorted(v for e in self.edges for v in e))


@dataclass(frozen=True)
class IndependentSet:
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


class BudgetExceeded(Exception):
    """Raised when the independence solver runs out of node expansions.

    Carries the best independent set found so far, which is a valid
    lower bound but must never be treated as the exact optimum.
    """

    def __init__(self, best: IndependentSet):
        super().__init__(
            f"node budget exhausted; best independent set so far has size {len(best)}"
        )
        self.best = best


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching, exact via blossom contraction."""
    n = g.n
    match = [-1] * n
    # Greedy warm start keeps the augmenting phase short: each exposed
    # vertex takes its smallest exposed neighbour.
    adj, free = g._adj, (1 << n) - 1
    for v in range(n):
        m = adj[v] & free
        if m and (free >> v) & 1:
            u = (m & -m).bit_length() - 1
            match[v], match[u] = u, v
            free ^= (1 << v) | (1 << u)
    for v in range(n):
        # From an isolated root the forest never grows, so skip it.
        if match[v] == -1 and g.neighbor_mask(v):
            _augment_from(g, v, match)
    edges = sorted((v, match[v]) for v in range(n) if match[v] > v)
    return Matching(tuple(edges))


def _augment_from(g: Graph, root: int, match: list[int]) -> bool:
    """Grow an alternating forest from ``root``; augment if an exposed
    vertex is reached, contracting blossoms on the way."""
    n = g.n
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in g.neighbors(v):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # Odd cycle: contract the blossom down to its base.
                curbase = lca(v, to)
                blossom = [False] * n
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    while to != -1:
                        prev = p[to]
                        nxt = match[prev]
                        match[prev] = to
                        match[to] = prev
                        to = nxt
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False


def max_independent_set(g: Graph, budget: int | None = None) -> IndependentSet:
    """Maximum independent set, exact, deterministic for a fixed graph.

    Branch and bound over bitmasks. The upper bound is a greedy clique
    cover of the open candidate set (each clique contributes at most one
    vertex). Raises :class:`BudgetExceeded` when the expansion budget is
    exhausted; without an explicit budget the graph order must stay at
    or below :data:`EXACT_SOLVE_CEILING`.
    """
    if budget is None:
        if g.n > EXACT_SOLVE_CEILING:
            raise ValueError(
                f"order {g.n} exceeds the exact-solve ceiling {EXACT_SOLVE_CEILING}; "
                "pass an explicit budget to force the search"
            )
        budget = DEFAULT_BUDGET
    n = g.n
    if n == 0:
        return IndependentSet(())
    adj = g._adj
    full = (1 << n) - 1

    # Greedy seed by ascending id for the initial lower bound.
    best_mask = 0
    m = full
    while m:
        low = m & -m
        v = low.bit_length() - 1
        best_mask |= low
        m &= ~(adj[v] | low)
    best_size = best_mask.bit_count()

    def cover_bound(mask: int) -> int:
        covers: list[int] = []
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            row = adj[v]
            for i, cm in enumerate(covers):
                if cm & ~row == 0:
                    covers[i] = cm | low
                    break
            else:
                covers.append(low)
        return len(covers)

    expansions = 0

    def rec(mask: int, size: int, chosen: int) -> None:
        nonlocal expansions, best_mask, best_size
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(IndependentSet(tuple(bits(best_mask))))
        if mask == 0:
            if size > best_size:
                best_size = size
                best_mask = chosen
            return
        if size + cover_bound(mask) <= best_size:
            return
        # Branch on the candidate of maximum residual degree, smallest id first.
        pick, pick_deg = -1, -1
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (adj[v] & mask).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        bit = 1 << pick
        rec(mask & ~(adj[pick] | bit), size + 1, chosen | bit)
        rec(mask & ~bit, size, chosen)

    rec(full, 0, 0)
    return IndependentSet(tuple(bits(best_mask)))


def greedy_independent_from_matching(g: Graph, m: Matching) -> IndependentSet:
    """Vertices missed by a maximal matching; they form an independent set
    of size exactly ``n - 2 |m|``.

    Rejects matchings that are not matchings of ``g`` or not maximal
    (some edge of ``g`` joins two unmatched vertices).
    """
    seen: set[int] = set()
    for u, v in m.edges:
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        if u in seen or v in seen:
            raise ValueError(f"vertex reused by matching edge ({u}, {v})")
        seen.add(u)
        seen.add(v)
    unmatched = tuple(v for v in range(g.n) if v not in seen)
    free = mask_from(unmatched)
    for v in unmatched:
        if g.neighbor_mask(v) & free:
            u = next(bits(g.neighbor_mask(v) & free))
            raise ValueError(f"matching is not maximal: edge ({v}, {u}) is uncovered")
    assert is_independent(g, unmatched)
    return IndependentSet(unmatched)
