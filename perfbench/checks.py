"""Answer checks that share no code with cliquefan.

Every check here works from a host's edge list (as a dense numpy
adjacency matrix), from networkx, or from a closed form, and raises
:class:`CheckFailed` on the first property an answer breaks. Answers
arrive as plain data: outcome dicts with the keys of the certificate's
``outcome`` record, edge lists, vertex lists and integers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

import networkx as nx
import numpy as np

# OEIS A000088: graphs on n unlabelled vertices, n = 0..7.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)

# Independence number of one catalogued triangle-free atom: the 5-cycle
# and the 13-vertex circulant with distances 1 and 5.
ATOM_ALPHA = {"c5": (5, 2), "c13-power": (13, 4)}


class CheckFailed(Exception):
    """An answer broke a property it must have."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_edge_file(path) -> tuple[int, np.ndarray]:
    """Vertex count and the (m, 2) endpoint array of a graph file,
    parsed with numpy alone."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
    _require(len(header) == 3 and header[0] == "p", f"{path}: bad header {header}")
    n, m = int(header[1]), int(header[2])
    if m == 0:
        return n, np.zeros((0, 2), dtype=np.int64)
    ends = np.loadtxt(path, skiprows=1, usecols=(1, 2), dtype=np.int64, ndmin=2)
    _require(ends.shape == (m, 2), f"{path}: header declares {m} edges, found {len(ends)}")
    return n, ends


def adjacency(n: int, ends: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    if len(ends):
        adj[ends[:, 0], ends[:, 1]] = True
        adj[ends[:, 1], ends[:, 0]] = True
    return adj


def check_fan(adj: np.ndarray, center: int, blades: Sequence[Sequence[int]], k: int, order: int) -> None:
    """k pairwise disjoint blades of ``order - 1`` vertices, each a clique
    together with the centre, checked edge by edge."""
    n = len(adj)
    _require(len(blades) == k, f"{len(blades)} blades, want {k}")
    used = [center]
    for blade in blades:
        _require(len(blade) == order - 1, f"blade {list(blade)} has {len(blade)} vertices, want {order - 1}")
        used.extend(blade)
    _require(all(0 <= v < n for v in used), "fan vertex out of range")
    _require(len(set(used)) == len(used), "fan reuses a vertex")
    for blade in blades:
        group = (center, *blade)
        for u, v in itertools.combinations(group, 2):
            _require(bool(adj[u, v]), f"missing edge ({u}, {v})")


def check_independent(adj: np.ndarray, vertices: Sequence[int]) -> None:
    vs = np.asarray(vertices, dtype=np.int64)
    _require(len(set(vertices)) == len(vertices), "independent set repeats a vertex")
    _require(bool(((vs >= 0) & (vs < len(adj))).all()), "independent set vertex out of range")
    sub = adj[np.ix_(vs, vs)]
    if sub.any():
        i, j = np.argwhere(sub)[0]
        raise CheckFailed(f"independent set holds edge ({vertices[i]}, {vertices[j]})")


def check_violation(adj: np.ndarray, edge_count: int, outcome: dict) -> None:
    """A hypothesis violation's witness, re-derived from the edge list."""
    kind = outcome["kind"]
    vertices = list(outcome["vertices"])
    observed, threshold = outcome["observed"], outcome["threshold"]
    within = outcome["within"]
    allowed = np.ones(len(adj), dtype=bool)
    if within is not None:
        allowed[:] = False
        allowed[list(within)] = True
    if kind == "edge-deficiency":
        _require(observed == edge_count, f"observed {observed} edges, host has {edge_count}")
        _require(edge_count <= threshold, f"{edge_count} edges exceed the threshold {threshold}")
    elif kind == "large-independent-set":
        check_independent(adj, vertices)
        _require(len(vertices) == observed, f"witness size {len(vertices)} != observed {observed}")
        _require(len(vertices) > threshold, f"witness size {len(vertices)} not above {threshold}")
    elif kind == "low-degree-vertex":
        _require(len(vertices) == 1, "low-degree witness must be one vertex")
        degree = int((adj[vertices[0]] & allowed).sum())
        _require(degree == observed, f"degree {degree} != observed {observed}")
        _require(degree < threshold, f"degree {degree} not below {threshold}")
    elif kind == "clique-extension-failure":
        for u, v in itertools.combinations(vertices, 2):
            _require(bool(adj[u, v]), f"witness is no clique: missing ({u}, {v})")
        common = allowed.copy()
        for v in vertices:
            common &= adj[v]
        common[vertices] = False
        _require(not common.any(), f"clique has common neighbour {int(np.argmax(common))}")
    else:
        raise CheckFailed(f"unknown violation kind {kind!r}")


def check_nu_below(adj: np.ndarray, centres: Iterable[int], k: int) -> None:
    """networkx maximum matching of each centre's neighbourhood is below k."""
    for x in centres:
        nbhd = np.flatnonzero(adj[x])
        sub = nx.Graph()
        sub.add_nodes_from(nbhd.tolist())
        sub.add_edges_from(
            (int(nbhd[i]), int(nbhd[j])) for i, j in np.argwhere(np.triu(adj[np.ix_(nbhd, nbhd)], 1))
        )
        nu = len(nx.max_weight_matching(sub, maxcardinality=True))
        _require(nu < k, f"neighbourhood of {x} has a matching of size {nu} >= k={k}")


def check_class_counts(counts: Sequence[int]) -> None:
    """Isomorphism-class counts for n = 0, 1, ... against OEIS A000088."""
    for n, (got, want) in enumerate(zip(counts, A000088)):
        _require(got == want, f"{got} classes on {n} vertices, want {want}")


def turan_edges(n: int, parts: int) -> int:
    """Edges of the balanced complete ``parts``-partite graph on n vertices."""
    q, rem = divmod(n, parts)
    sizes = [q + 1] * rem + [q] * (parts - rem)
    return (n * n - sum(s * s for s in sizes)) // 2


def extremal_closed_form(n: int, k: int, r: int, alpha_cap: int | None) -> int | None:
    """ex / RT value of the fan F_k(r) (k cliques K_r sharing a vertex),
    from theorems; None when no graph qualifies.

    ex(n, K_r) is Turán's t(n, r - 1), Mantel's floor(n^2/4) for r = 3;
    ex(n, K_{1,k}) is the most edges under maximum degree k - 1;
    ex(n, F_2(3)) = floor(n^2/4) + 1 for n >= 5 (Erdős, Füredi, Gould,
    Gunderson). Under an independence cap on triangle-free graphs:
    K_{ceil(n/2), floor(n/2)} meets Mantel's bound with alpha = ceil(n/2);
    R(3, 3) = 6 rules out every graph on six or more vertices with cap 2;
    on five vertices with cap 2 only C5 qualifies.
    """
    if alpha_cap is None:
        if k == 1:
            return turan_edges(n, r - 1)
        if r == 2:
            return min(n * (n - 1) // 2, n * (k - 1) // 2)
        if (k, r) == (2, 3) and n >= 5:
            return n * n // 4 + 1
    elif (k, r) == (1, 3):
        if alpha_cap >= (n + 1) // 2:
            return n * n // 4
        if alpha_cap == 2 and n >= 6:
            return None
        if alpha_cap == 2 and n == 5:
            return 5
    raise CheckFailed(f"no closed form for n={n} k={k} r={r} alpha_cap={alpha_cap}")


def fan_pattern(k: int, r: int) -> nx.Graph:
    """k copies of K_r sharing one vertex."""
    fan = nx.Graph()
    fan.add_node(0)
    for j in range(k):
        blade = [1 + j * (r - 1) + i for i in range(r - 1)]
        fan.add_edges_from(itertools.combinations([0, *blade], 2))
    return fan


def check_extremal(
    n: int, k: int, r: int, alpha_cap: int | None, value, witness_edges: Sequence[tuple[int, int]] | None
) -> None:
    """An exact ex/RT answer: the closed-form value and an F-free witness
    with exactly that many edges (and independence number within the cap)."""
    want = extremal_closed_form(n, k, r, alpha_cap)
    if want is None:
        _require(value is None and witness_edges is None, f"value {value}, want infeasible")
        return
    _require(value == want, f"value {value}, want {want}")
    witness = nx.Graph()
    witness.add_nodes_from(range(n))
    witness.add_edges_from(witness_edges)
    _require(witness.number_of_edges() == value, f"witness has {witness.number_of_edges()} edges, value {value}")
    matcher = nx.algorithms.isomorphism.GraphMatcher(witness, fan_pattern(k, r))
    _require(not matcher.subgraph_is_monomorphic(), "witness contains the fan")
    if alpha_cap is not None:
        alpha = _alpha(witness)
        _require(alpha <= alpha_cap, f"witness has alpha {alpha} > cap {alpha_cap}")


def part_sizes(n: int, parts: int) -> list[int]:
    q, rem = divmod(n, parts)
    return [q + 1 if i < rem else q for i in range(parts)]


def part_alpha(adj: np.ndarray, part_key: str, start: int, size: int) -> int:
    """α of one part: from its atom's closed form, or by networkx."""
    if part_key in ATOM_ALPHA:
        order, alpha = ATOM_ALPHA[part_key]
        _require(size % order == 0, f"part size {size} is no multiple of {order}")
        return size // order * alpha
    block = adj[start:start + size, start:start + size]
    part = nx.from_numpy_array(block)
    return _alpha(part)


def _alpha(g: nx.Graph) -> int:
    clique, _ = nx.max_weight_clique(nx.complement(g), weight=None)
    return len(clique)


def check_alpha(adj: np.ndarray, members: Sequence[int], want: int) -> None:
    check_independent(adj, members)
    _require(len(members) == want, f"alpha {len(members)}, want {want}")
