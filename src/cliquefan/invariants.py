"""Exact independence and matching numbers.

Both solvers are exact and deterministic: ties are broken by smallest
vertex id everywhere, so a fixed graph always yields the same witness.
The independence solver splits the graph into components and co-components,
then runs branch and bound on each part that splits neither way, cut by a
first-fit clique cover built one class at a time; the matching solver is a
full augmenting-path search with blossom contraction, so odd cycles are
handled correctly. It runs on the host's own masks inside a vertex mask,
so the matching of an induced subgraph comes in host ids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, bits, mask_from, restriction_mask

# Above this order an explicit budget must be supplied; the default
# budget is counted in branch-and-bound node expansions.
EXACT_SOLVE_CEILING = 64
DEFAULT_BUDGET = 5_000_000


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


def greedy_matching(adj: tuple[int, ...], mask: int) -> list[tuple[int, int]]:
    """Maximal matching inside ``mask``, by ascending id: each exposed
    vertex takes its smallest exposed neighbour. Pairs come as (v, u),
    v < u; a maximal matching is at least half a maximum one."""
    pairs = []
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        if m := adj[v] & mask:
            u = m & -m
            pairs.append((v, u.bit_length() - 1))
            mask ^= u
    return pairs


def max_matching(g: Graph, within: int | None = None) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching of the subgraph induced on the vertex
    mask ``within`` (None for every vertex), exact via blossom contraction,
    as its edges (u, v), u < v, in ascending order. A mask with a bit
    outside ``[0, n)`` raises ``ValueError``."""
    mask = restriction_mask(g, within)
    return _max_matching_from(g._adj, mask, greedy_matching(g._adj, mask))


def _max_matching_from(adj: tuple[int, ...], mask: int, warm: list[tuple[int, int]]):
    """:func:`max_matching` from ``warm = greedy_matching(adj, mask)``. A path
    augments between two roots, exposed non-isolated vertices: with fewer,
    ``warm`` is maximum and comes back as it stands."""
    exposed = mask
    for v, u in warm:
        exposed ^= 1 << v | 1 << u
    roots = [v for v in bits(exposed) if adj[v] & mask]
    if len(roots) < 2:
        return tuple(warm)
    match = dict.fromkeys(bits(mask), -1)
    for v, u in warm:
        match[v], match[u] = u, v
    # A root that fails never augments later (Edmonds 1965), so a path ends at
    # a root after its own: a root with no exposed one after it is left alone.
    for i, v in enumerate(roots):
        if match[v] == -1 and any(match[w] == -1 for w in roots[i + 1:]):
            _augment_from(adj, mask, v, match)
    return tuple((v, u) for v, u in match.items() if u > v)


def _augment_from(adj: tuple[int, ...], mask: int, root: int, match: dict[int, int]) -> bool:
    """Grow an alternating forest from ``root`` inside ``mask``; augment if
    an exposed vertex is reached, contracting blossoms on the way. Parents
    and bases are keyed by the mask's vertices, not by all of the host's."""
    vs = list(bits(mask))
    p: dict[int, int] = {}
    base = dict(zip(vs, vs))
    used = {root}
    q = deque([root])

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in bits(adj[v] & mask):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or match[to] in p:
                # Odd cycle: contract the blossom down to its base.
                curbase = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                for i in vs:
                    if base[i] in blossom:
                        base[i] = curbase
                        if i not in used:
                            used.add(i)
                            q.append(i)
            elif to not in p:
                p[to] = v
                if match[to] == -1:
                    while to != -1:
                        prev = p[to]
                        nxt = match[prev]
                        match[prev] = to
                        match[to] = prev
                        to = nxt
                    return True
                used.add(match[to])
                q.append(match[to])
    return False


def max_independent_set(g: Graph, budget: int | None = None) -> IndependentSet:
    """Maximum independent set, exact, deterministic for a fixed graph.

    Alpha of a disjoint union is the sum over its components, and alpha of
    a join the maximum over its co-components (ties to the smallest id).
    Each part that splits neither way gets branch and bound over bitmasks,
    all parts sharing one expansion budget; a connected, co-connected graph
    keeps the unsplit witness. A node is cut when the first-fit clique cover
    of its candidates, built one greedy clique at a time, is no larger than
    what it can still gain. A join's later part only matters if it beats the
    parts before it, so its search starts at their best as a floor with no
    witness: the same witnesses, from fewer expansions. Raises
    :class:`BudgetExceeded` when the budget runs out and ``ValueError``
    when it is negative; without an explicit budget the order must not
    exceed :data:`EXACT_SOLVE_CEILING`.
    """
    if budget is None:
        if g.n > EXACT_SOLVE_CEILING:
            raise ValueError(
                f"order {g.n} exceeds the exact-solve ceiling {EXACT_SOLVE_CEILING}; "
                "pass an explicit budget to force the search"
            )
        budget = DEFAULT_BUDGET
    elif budget < 0:
        raise ValueError(f"budget must not be negative, got {budget}")
    adj = g._adj
    full = (1 << g.n) - 1

    def greedy(mask: int, chosen: int = 0) -> int:
        # Extend ``chosen`` by ascending id to a maximal independent set in ``mask``.
        for v in bits(chosen):
            mask &= ~adj[v]
        while mask:
            low = mask & -mask
            chosen |= low
            mask &= ~(adj[low.bit_length() - 1] | low)
        return chosen

    def components(mask: int, flip: int) -> list[int]:
        # Components of G[mask], or of its complement if flip = -1, by least id.
        found = []
        while mask:
            comp = frontier = mask & -mask
            rest = mask ^ comp
            while frontier:
                low = frontier & -frontier
                new = rest & (adj[low.bit_length() - 1] ^ flip)
                rest ^= new
                frontier ^= low | new
            found.append(mask ^ rest)
            mask = rest
        return found

    def strip(mask: int) -> tuple[int, int]:
        # Peel isolated vertices (singleton components, kept in the set) and
        # universal ones (singleton co-components, beaten by any other) off
        # mask; return the rest and the kept ones. With a isolated and b
        # universal ones gone, v is isolated if its degree in mask is b and
        # universal if it is |mask| - a - 1, so both sit at the ends of the
        # degree order. A clique shrinks from its top to its least id.
        vs = list(bits(mask))
        deg = [(adj[v] & mask).bit_count() for v in vs]
        if 0 not in deg and len(vs) - 1 not in deg:
            return mask, 0
        order = sorted(zip(deg, vs))
        lo, hi, kept = 0, len(vs) - 1, 0
        while lo <= hi:
            if order[lo][0] == len(vs) - 1 - hi:
                kept |= 1 << order[lo][1]
                lo += 1
            elif order[hi][0] == len(vs) - 1 - lo:
                hi -= 1
            else:
                break
        return mask_from(v for _, v in order[lo:hi + 1]), kept

    def covered(mask: int, limit: int) -> bool:
        # Whether first-fit by ascending id covers mask with at most limit
        # cliques, one class at a time: class i, the greedy clique of what
        # classes 1..i-1 left, is where first-fit puts each of its members.
        while mask and limit > 0:
            limit -= 1
            q = mask
            while q:
                low = q & -q
                mask ^= low
                q &= adj[low.bit_length() - 1]
        return not mask

    expansions = 0

    def leaf(start: int, floor: int) -> int:
        # Only a set above floor counts; if none is, the greedy set loses.
        best_mask = greedy(start)
        best_size = max(best_mask.bit_count(), floor)

        def rec(mask: int, size: int, chosen: int) -> None:
            nonlocal expansions, best_mask, best_size
            expansions += 1
            if expansions > budget:
                raise BudgetExceeded(IndependentSet(tuple(bits(greedy(full, best_mask)))))
            if mask == 0:
                if size > best_size:
                    best_size = size
                    best_mask = chosen
                return
            if covered(mask, best_size - size):
                return
            # Branch on the candidate of maximum residual degree, smallest id first.
            pick, pick_deg = -1, -1
            for v in bits(mask):
                d = (adj[v] & mask).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            bit = 1 << pick
            rec(mask & ~(adj[pick] | bit), size + 1, chosen | bit)
            rec(mask & ~bit, size, chosen)

        rec(start, 0, 0)
        return best_mask

    # Post-order walk of the split tree on explicit stacks, since a cograph
    # (a threshold graph, say) nests as deep as its order. A join's part
    # carries where in found its earlier siblings' results start.
    todo: list = [(full, None)]
    found: list[int] = []
    while todo:
        mask, base = todo.pop()
        if isinstance(mask, tuple):
            union, k, kept = mask
            parts, found[-k:] = found[-k:], []
            # Parts of a union are disjoint, so their sum is their union.
            found.append(kept | (sum(parts) if union else max(parts, key=int.bit_count)))
            continue
        mask, kept = strip(mask)
        if not mask:
            found.append(kept)
            continue
        union, parts = True, components(mask, 0)
        if len(parts) == 1:
            union, parts = False, components(mask, -1)
        if len(parts) > 1:
            todo.append(((union, len(parts), kept), None))
            todo.extend((part, None if union else len(found)) for part in reversed(parts))
        else:
            # A join's later part counts only if it beats the earlier ones.
            floor = 0 if base is None else max(map(int.bit_count, found[base:]), default=0)
            found.append(kept | leaf(mask, floor - kept.bit_count()))
    return IndependentSet(tuple(bits(found[0])))
