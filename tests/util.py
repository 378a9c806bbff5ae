"""Small graph builders and brute-force references shared across the test modules."""

from collections.abc import Iterable
from functools import lru_cache
from itertools import permutations

import numpy as np

from cliquefan.finder import HypothesisViolation
from cliquefan.graphs import Graph, bits, vertex_mask
from cliquefan.oracle import _pair_images, _pair_index, _pairs, _relabelings, edge_code

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


def petersen() -> Graph:
    return Graph(10, PETERSEN_EDGES)


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel4() -> Graph:
    """Hub 0 plus the 4-cycle 1-2-3-4."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)])


def empty_witness_rotation(step_kernel):
    """The clique-step kernel ``finder._step_kernel`` with each rotation's
    extension failure reported as an empty large independent set, a
    witness that ``check_violation`` rejects."""

    def faulty(adj, dmask, mask, thr, r, within, alpha_bound=None):
        res = step_kernel(adj, dmask, mask, thr, r, within, alpha_bound)
        failed = isinstance(res, HypothesisViolation) and res.kind == "clique-extension-failure"
        if failed and alpha_bound is not None:
            return HypothesisViolation("large-independent-set", (), 0, alpha_bound)
        return res

    return faulty


def min_code(g: Graph) -> int:
    """Minimum edge code over all relabelings, one graph per permutation."""
    return min(
        edge_code(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        for perm in permutations(range(g.n))
    )


@lru_cache(maxsize=None)
def gray_class_codes(n: int) -> tuple[int, ...]:
    """Class codes on ``n`` vertices by full vertex augmentation: every
    class on n-1 vertices gets all 2^(n-1) neighbourhoods of a new vertex,
    walked in Gray-code order, one XOR and one minimum over its n!
    relabelings each. Cached: n = 8 takes about 2 s."""
    if n <= 1:
        return (0,)
    smaller = _pairs(n - 1)
    attach = [_pair_images(n)[:, _pair_index(n, j, n - 1)] for j in range(n - 1)]
    seen = set()
    for code in gray_class_codes(n - 1):
        codes = _relabelings(n, [smaller[i] for i in bits(code)])
        seen.add(int(codes.min()))
        for step in range(1, 1 << (n - 1)):
            codes ^= attach[(step & -step).bit_length() - 1]
            seen.add(int(codes.min()))
    return tuple(sorted(seen))


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


def brute_alpha(g: Graph) -> int:
    """Independence number by enumerating all vertex subsets."""
    adj = g._adj
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best:
            m = mask
            while m and not adj[(m & -m).bit_length() - 1] & mask:
                m &= m - 1
            if not m:
                best = mask.bit_count()
    return best


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph plus the old-id to new-id bijection onto [0, |s|).

    The mapping is order preserving: the smallest retained id becomes 0.
    Each retained row is shifted down to the window ``[min s, max s]``
    and serialised; one numpy pass unpacks the rows into a 0/1 matrix,
    keeps the subset's columns and packs them back into bitmasks.
    """
    vs = tuple(bits(vertex_mask(g, vertices)))
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
