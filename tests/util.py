"""Small graph builders and brute-force references shared across the test modules."""

from itertools import permutations

from cliquefan.finder import HypothesisViolation
from cliquefan.graphs import Graph
from cliquefan.oracle import edge_code

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


def empty_witness_rotation(rotate_clique):
    """``rotate_clique`` with each extension failure reported as an empty
    large independent set, a witness that ``check_violation`` rejects."""

    def rotate(g, clique, r, eps, alpha_bound, **kwargs):
        res = rotate_clique(g, clique, r, eps, alpha_bound, **kwargs)
        if isinstance(res, HypothesisViolation) and res.kind == "clique-extension-failure":
            return HypothesisViolation("large-independent-set", (), 0, alpha_bound)
        return res

    return rotate


def min_code(g: Graph) -> int:
    """Minimum edge code over all relabelings, one graph per permutation."""
    return min(
        edge_code(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        for perm in permutations(range(g.n))
    )


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
