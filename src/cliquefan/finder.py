"""Constructive search for fans of odd cliques in dense graphs.

The pipeline peels the graph down to a dense core, seeds a clique, then
repeatedly rotates it up to a K_{2r+1} and attaches the result as a new
blade of a generalized fan, driving the fan's count tuple strictly
upward in lexicographic order until one center owns k blades.

Every step validates its own hypotheses instead of assuming them, so on
an arbitrary input the search either returns a verified embedding or a
hypothesis violation carrying a machine-checkable witness (a low-degree
vertex, an oversized independent set, or an edge deficit). Ties of any
kind resolve to smallest ids, making every run reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Any

from .generators import FanShape
from .graphs import (
    Graph,
    bits,
    induced_subgraph,
    is_clique,
    is_independent,
    mask_from,
    vertex_set,
)
from .invariants import greedy_independent_from_matching, max_matching
from .witness import (
    CliqueWitness,
    FanEmbedding,
    GeneralizedFanEmbedding,
    _triangle_fan_at,
    verify_fan,
    verify_generalized_fan,
)

VIOLATION_KINDS = (
    "edge-deficiency",
    "large-independent-set",
    "low-degree-vertex",
    "clique-extension-failure",
)


class SearchInvariantError(RuntimeError):
    """An internal invariant of the augmentation loop broke; this is a
    bug trap, never an expected outcome."""


@dataclass(frozen=True)
class DensityParams:
    """Peeling constants: edge-density coefficient, slack, and retention."""

    beta: float
    eps: float
    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 0.5:
            raise ValueError("beta must lie in (0, 1/2)")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not (self.c > 0.0 and self.c * self.c < self.beta * self.eps):
            raise ValueError("retention constant must satisfy 0 < c < sqrt(beta * eps)")


@dataclass(frozen=True)
class HypothesisViolation:
    """Checkable evidence that a search hypothesis fails on the input.

    ``vertices`` is the offending set (or single vertex), ``observed``
    the measured quantity and ``threshold`` the bound it breaks.
    ``within`` restricts degree-style checks to an induced subgraph.
    """

    kind: str
    vertices: tuple[int, ...]
    observed: float | int
    threshold: float
    within: tuple[int, ...] | None = None


def check_violation(g: Graph, violation: HypothesisViolation) -> bool:
    """Re-derive a violation's witness against the graph it came from."""
    if violation.within is None:
        mask = (1 << g.n) - 1
    else:
        mask = mask_from(violation.within)
    kind = violation.kind
    if kind == "edge-deficiency":
        return violation.observed == g.size and violation.observed <= violation.threshold
    if kind == "large-independent-set":
        vs = violation.vertices
        return (
            is_independent(g, vs)
            and len(vs) == violation.observed
            and violation.observed > violation.threshold
        )
    if kind == "low-degree-vertex":
        (v,) = violation.vertices
        dv = (g.neighbor_mask(v) & mask).bit_count()
        return dv == violation.observed and dv < violation.threshold
    if kind == "clique-extension-failure":
        vs = violation.vertices
        if not is_clique(g, vs):
            return False
        common = mask
        for v in vs:
            common &= g.neighbor_mask(v)
        common &= ~mask_from(vs)
        return common == 0
    raise ValueError(f"unknown violation kind {kind!r}")


def tuple_lex_less(a, b) -> bool:
    """Strict lexicographic order on equal-length count tuples."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"tuple lengths differ: {len(a)} != {len(b)}")
    return a < b


def peel_dense_subgraph(g: Graph, params: DensityParams):
    """Iteratively drop the smallest-id vertex not strictly above the
    density threshold 2 beta (1 + eps/2) times the surviving order.

    On success the survivors S satisfy |S| > c n and every surviving
    degree inside S strictly exceeds the threshold at |S|. If the
    process eats down to c n vertices the input was edge-deficient
    (fewer than beta n^2 (1 + eps) edges) and that deficit is returned
    as the violation witness.
    """
    n = g.n
    coef = 2.0 * params.beta * (1.0 + params.eps / 2.0)
    cn = params.c * n
    deficiency = HypothesisViolation(
        "edge-deficiency", (), g.size, params.beta * (1.0 + params.eps) * n * n
    )
    if n == 0:
        return deficiency
    deg = [g.degree(v) for v in range(n)]
    alive = bytearray([1]) * n
    m = n
    heap = list(range(n))
    while heap:
        v = heappop(heap)
        if not alive[v]:
            continue
        if deg[v] > coef * m:
            # Not a violator now; it can only re-violate after losing a
            # neighbor, which re-queues it below.
            continue
        alive[v] = 0
        m -= 1
        if m <= cn:
            return deficiency
        for u in bits(g.neighbor_mask(v)):
            if alive[u]:
                deg[u] -= 1
                heappush(heap, u)
    return tuple(v for v in range(n) if alive[v])


def _resolve_restriction(g: Graph, within) -> tuple[int, tuple[int, ...] | None]:
    if within is None:
        return (1 << g.n) - 1, None
    vs = vertex_set(g, within)
    return mask_from(vs), vs


def _checked_clique(g: Graph, clique, mask: int) -> tuple[int, ...]:
    d = tuple(sorted(set(clique)))
    if not is_clique(g, d):
        raise ValueError(f"{d} is not a clique")
    for v in d:
        if not (mask >> v) & 1:
            raise ValueError(f"clique vertex {v} lies outside the restriction")
    return d


def extend_clique(
    g: Graph,
    clique,
    r: int,
    eps: float,
    *,
    within=None,
    degree_threshold: float | None = None,
):
    """Smallest common neighbor of a clique of at most r vertices.

    Checks the degree hypothesis d(v) >= (1 - 1/r + eps/3) n on every
    clique member first (n being the restricted order); a failing vertex
    comes back as a low-degree violation, an empty common neighborhood
    as a clique-extension failure. ``degree_threshold`` overrides the
    derived bound for unit tests on small graphs.
    """
    mask, within_t = _resolve_restriction(g, within)
    d = _checked_clique(g, clique, mask)
    if r < 1:
        raise ValueError("r must be positive")
    if len(d) > r:
        raise ValueError(f"clique of size {len(d)} exceeds the bound r={r}")
    n_eff = mask.bit_count()
    thr = (
        degree_threshold
        if degree_threshold is not None
        else (1.0 - 1.0 / r + eps / 3.0) * n_eff
    )
    for v in d:
        dv = (g.neighbor_mask(v) & mask).bit_count()
        if dv < thr:
            return HypothesisViolation("low-degree-vertex", (v,), dv, thr, within_t)
    common = mask
    for v in d:
        common &= g.neighbor_mask(v)
    common &= ~mask_from(d)
    if common == 0:
        return HypothesisViolation("clique-extension-failure", d, 0, 1.0, within_t)
    return (common & -common).bit_length() - 1


def rotate_clique(
    g: Graph,
    clique,
    r: int,
    eps: float,
    delta: float,
    *,
    within=None,
    degree_threshold: float | None = None,
    ind_threshold: float | None = None,
):
    """Grow a clique of at most 2r vertices by one, reusing all but at
    most one of its vertices.

    A common neighbor settles it directly. Otherwise the vertices
    adjacent to all but exactly one clique member are bucketed by that
    missed member; an edge inside a bucket swaps the missed member for
    the edge's two ends. If every bucket is an independent set, the
    largest bucket (ties to the earliest member) witnesses that the
    graph's independence number exceeds the declared delta bound.
    """
    mask, within_t = _resolve_restriction(g, within)
    d = _checked_clique(g, clique, mask)
    if r < 1:
        raise ValueError("r must be positive")
    if not 1 <= len(d) <= 2 * r:
        raise ValueError(f"clique size {len(d)} outside [1, {2 * r}]")
    n_eff = mask.bit_count()
    thr = (
        degree_threshold
        if degree_threshold is not None
        else (1.0 - 1.0 / r + eps / 3.0) * n_eff
    )
    for v in d:
        dv = (g.neighbor_mask(v) & mask).bit_count()
        if dv < thr:
            return HypothesisViolation("low-degree-vertex", (v,), dv, thr, within_t)
    dmask = mask_from(d)
    common = mask & ~dmask
    for v in d:
        common &= g.neighbor_mask(v)
    if common:
        v = (common & -common).bit_length() - 1
        return CliqueWitness(tuple(sorted(d + (v,))))
    s = len(d)
    buckets: dict[int, list[int]] = {v: [] for v in d}
    for w in bits(mask & ~dmask):
        row = g.neighbor_mask(w) & dmask
        if row.bit_count() == s - 1:
            missed = (dmask & ~row).bit_length() - 1
            buckets[missed].append(w)
    for v in d:
        group = buckets[v]
        for i, x in enumerate(group):
            row = g.neighbor_mask(x)
            for y in group[i + 1:]:
                if (row >> y) & 1:
                    swapped = sorted(set(d) - {v} | {x, y})
                    return CliqueWitness(tuple(swapped))
    best = d[0]
    for v in d[1:]:
        if len(buckets[v]) > len(buckets[best]):
            best = v
    witness = tuple(buckets[best])
    thr2 = ind_threshold if ind_threshold is not None else delta * n_eff
    return HypothesisViolation(
        "large-independent-set", witness, len(witness), thr2, None
    )


@dataclass(frozen=True)
class DegreeBoundReport:
    """Outcome of the triangle-fan scan when no vertex carries k disjoint
    triangles: per-vertex neighborhood matching numbers, plus the
    independent set left unmatched in the densest neighborhood."""

    blade_target: int
    nu_by_vertex: tuple[int, ...]
    densest_vertex: int | None
    independent_set: tuple[int, ...]


def fan_at_vertex_r1(g: Graph, k: int):
    """Fan of k triangles through a single vertex, or a degree-bound report.

    A center works exactly when its neighborhood holds k disjoint edges,
    so the scan computes a maximum matching per neighborhood in
    ascending vertex order. When no center works, every vertex obeys
    d(x) <= alpha(G[N(x)]) + 2 (k - 1), and the report carries the
    unmatched (hence independent) vertices of the densest neighborhood.
    """
    if k < 1:
        raise ValueError("fan needs at least one triangle")
    nus = []
    for x in range(g.n):
        nu, emb = _triangle_fan_at(g, x, k)
        if emb is not None:
            return emb
        nus.append(nu)
    if g.n == 0:
        return DegreeBoundReport(k, (), None, ())
    densest = min(range(g.n), key=lambda v: (-g.degree(v), v))
    sub, mapping = induced_subgraph(g, g.neighbors(densest))
    back = {i: v for v, i in mapping.items()}
    unmatched = greedy_independent_from_matching(sub, max_matching(sub))
    ind = tuple(sorted(back[i] for i in unmatched.members))
    return DegreeBoundReport(k, tuple(nus), densest, ind)


@dataclass(frozen=True)
class ThresholdRecord:
    """Single source of truth for the constants the search derives.

    The prose around the density argument is not self-consistent about
    signs and slacks, so this record pins one workable scheme: peeling
    uses beta = (1 - 1/r)/2 with slack eps r/(r - 1), which makes the
    edge hypothesis (1 - 1/r + eps) n^2/2 equal beta (1 + slack) n^2 and
    leaves the peeled core with minimum degree above
    (1 - 1/r + eps/2) times its order, comfortably implying the clique
    steps' (1 - 1/r + eps/3) bound. Retention is fixed at 90% of its
    strict supremum sqrt(beta * slack) = sqrt(eps/2). Both candidate
    independence bounds are recorded; the global delta guards the
    global hypothesis while eps/4 only enters the rotation counting.
    """

    n: int
    k: int
    r: int
    eps: float
    delta: float
    edge_threshold: float
    degree_coef: float
    rotation_delta: float
    deletion_bound: int
    alpha_bound: float
    alpha_bound_alt: float
    peel_beta: float | None
    peel_eps: float | None
    peel_c: float | None
    peel_degree_coef: float | None


def search_thresholds(n: int, k: int, r: int, eps: float) -> ThresholdRecord:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n < 0 or k < 1 or r < 1:
        raise ValueError("need n >= 0, k >= 1, r >= 1")
    if r >= 2 and eps * r / (r - 1) >= 1.0:
        raise ValueError(f"eps must lie below (r - 1)/r = {(r - 1) / r:.6g} for r = {r}")
    delta = math.sqrt(2.0) / 10.0 * eps * eps
    if r >= 2:
        peel_beta = (1.0 - 1.0 / r) / 2.0
        peel_eps = eps * r / (r - 1)
        peel_c = 0.9 * math.sqrt(peel_beta * peel_eps)
        peel_degree_coef = 2.0 * peel_beta * (1.0 + peel_eps / 2.0)
    else:
        peel_beta = peel_eps = peel_c = peel_degree_coef = None
    return ThresholdRecord(
        n=n,
        k=k,
        r=r,
        eps=eps,
        delta=delta,
        edge_threshold=(1.0 - 1.0 / r + eps) * n * n / 2.0,
        degree_coef=1.0 - 1.0 / r + eps / 3.0,
        rotation_delta=eps / 4.0,
        deletion_bound=2 * r * (k - 1) * (r + 1) + (r + 1),
        alpha_bound=delta * n,
        alpha_bound_alt=math.sqrt(eps) / 5.0 * n,
        peel_beta=peel_beta,
        peel_eps=peel_eps,
        peel_c=peel_c,
        peel_degree_coef=peel_degree_coef,
    )


@dataclass
class SearchCertificate:
    """Machine-checkable trace of one search run.

    ``steps`` lists peel, extend, rotate and augment records in
    execution order; the whole object is re-derivable from the input
    graph and parameters, which is what replay verifies.
    """

    input: dict[str, Any]
    thresholds: dict[str, Any]
    steps: list[dict[str, Any]]
    outcome: dict[str, Any]


def _threshold_dict(th: ThresholdRecord) -> dict[str, Any]:
    """The derived constants in field order, without the inputs n, k, r, eps."""
    return {f.name: getattr(th, f.name) for f in fields(th)[4:]}


def _violation_dict(v: HypothesisViolation) -> dict[str, Any]:
    return {
        "type": "violation",
        "kind": v.kind,
        "vertices": list(v.vertices),
        "observed": v.observed,
        "threshold": v.threshold,
        "within": None if v.within is None else list(v.within),
    }


def _embedding_dict(e: FanEmbedding) -> dict[str, Any]:
    return {
        "type": "embedding",
        "center": e.center,
        "blades": [list(b) for b in e.blades],
    }


def _finish_violation(cert: SearchCertificate, v: HypothesisViolation):
    cert.outcome = _violation_dict(v)
    return v, cert


def find_odd_fan(g: Graph, k: int, r: int, eps: float):
    """Search for k cliques K_{2r+1} through one vertex.

    Returns ``(outcome, certificate)`` where the outcome is either a
    verified :class:`FanEmbedding` or a :class:`HypothesisViolation`.
    For r = 1 the triangle scan answers directly. Otherwise: peel to a
    dense core, seed an (r+1)-clique by repeated extension, then loop:
    if some center already owns k blades, done; otherwise delete all
    blade vertices, rotate the base r times up to a K_{2r+1}, attach it
    as a new blade of the earliest base vertex it retained, shrink the
    base to that prefix and re-extend it to r+1 vertices. The count
    tuple rises strictly in lexicographic order each time, which caps
    the loop at k^(r+1) iterations; exceeding the cap is a bug, not a
    legitimate outcome.

    Requires eps < (r - 1)/r for r >= 2 so the peeling slack stays valid.
    """
    if k < 1:
        raise ValueError("blade count must be positive")
    if r < 1:
        raise ValueError("r must be positive")
    th = search_thresholds(g.n, k, r, eps)
    cert = SearchCertificate(
        input={"n": g.n, "edges": g.size, "k": k, "r": r, "eps": eps},
        thresholds=_threshold_dict(th),
        steps=[],
        outcome={},
    )
    if r == 1:
        return _find_odd_fan_r1(g, k, eps, cert)

    peeled = peel_dense_subgraph(g, DensityParams(th.peel_beta, th.peel_eps, th.peel_c))
    if isinstance(peeled, HypothesisViolation):
        return _finish_violation(cert, peeled)
    cert.steps.append({"kind": "peel", "survivors": list(peeled)})
    pool = set(peeled)

    seed: list[int] = []
    for _ in range(r + 1):
        res = extend_clique(g, seed, r, eps, within=pool)
        if isinstance(res, HypothesisViolation):
            return _finish_violation(cert, res)
        seed.append(res)
        cert.steps.append({"kind": "extend", "added": res, "clique": sorted(seed)})

    base: list[int] = sorted(seed)
    blades: dict[int, list[tuple[int, ...]]] = {v: [] for v in base}
    prev_tuple: tuple[int, ...] | None = None
    for _ in range(k ** (r + 1) + 1):
        order = sorted(base, key=lambda v: (-len(blades[v]), v))
        ks = tuple(len(blades[v]) for v in order)
        if prev_tuple is not None and not tuple_lex_less(prev_tuple, ks):
            raise SearchInvariantError(f"fan tuple failed to increase: {prev_tuple} -> {ks}")
        prev_tuple = ks
        current = GeneralizedFanEmbedding(
            tuple(order), tuple(tuple(blades[v]) for v in order)
        )
        reason = verify_generalized_fan(g, current, r)
        if reason is not None:
            raise SearchInvariantError(f"intermediate fan invalid: {reason}")
        if ks[0] >= k:
            emb = FanEmbedding(order[0], tuple(blades[order[0]][:k]))
            reason = verify_fan(g, emb, FanShape(k, 2 * r + 1))
            if reason is not None:
                raise SearchInvariantError(f"final embedding rejected: {reason}")
            cert.outcome = _embedding_dict(emb)
            return emb, cert

        blade_vertices = {v for lst in blades.values() for b in lst for v in b}
        h_pool = pool - blade_vertices
        rotated: tuple[int, ...] = tuple(sorted(base))
        for _ in range(r):
            res = rotate_clique(
                g, rotated, r, eps, th.delta,
                within=h_pool, ind_threshold=th.alpha_bound,
            )
            if isinstance(res, HypothesisViolation):
                return _finish_violation(cert, res)
            cert.steps.append(
                {"kind": "rotate", "from": list(rotated), "to": list(res.vertices)}
            )
            rotated = res.vertices

        kept = set(rotated)
        survivors = [v for v in order if v in kept]
        if not survivors:
            raise SearchInvariantError("rotation lost every base vertex")
        v_s = survivors[0]
        s = order.index(v_s) + 1
        new_blade = tuple(v for v in rotated if v != v_s)
        base = order[:s]
        blades = {v: blades[v] for v in base}
        blades[v_s].append(new_blade)
        after = sorted((len(blades[v]) for v in base), reverse=True)
        cert.steps.append(
            {
                "kind": "augment",
                "s": s,
                "center": v_s,
                "blade": list(new_blade),
                "tuple_before": list(ks),
                "tuple_after": after + [0] * (r + 1 - len(after)),
            }
        )
        if len(blades[v_s]) >= k:
            # Done already; re-extending the base first could starve on
            # a host with no vertices to spare.
            emb = FanEmbedding(v_s, tuple(blades[v_s][:k]))
            reason = verify_fan(g, emb, FanShape(k, 2 * r + 1))
            if reason is not None:
                raise SearchInvariantError(f"final embedding rejected: {reason}")
            cert.outcome = _embedding_dict(emb)
            return emb, cert

        blade_vertices = {v for lst in blades.values() for b in lst for v in b}
        star_pool = pool - blade_vertices
        while len(base) < r + 1:
            res = extend_clique(g, base, r, eps, within=star_pool)
            if isinstance(res, HypothesisViolation):
                return _finish_violation(cert, res)
            base.append(res)
            blades[res] = []
            cert.steps.append({"kind": "extend", "added": res, "clique": sorted(base)})
    raise SearchInvariantError("augmentation exceeded its iteration cap")


def _find_odd_fan_r1(g: Graph, k: int, eps: float, cert: SearchCertificate):
    res = fan_at_vertex_r1(g, k)
    if isinstance(res, FanEmbedding):
        cert.steps.append({"kind": "r1-scan", "center": res.center})
        cert.outcome = _embedding_dict(res)
        return res, cert
    cert.steps.append({"kind": "r1-scan", "center": None})
    n = g.n
    bound = eps * n + 2 * (k - 1)
    if res.densest_vertex is not None and g.degree(res.densest_vertex) > bound:
        # No fan forces nu(N(x)) <= k - 1, so the unmatched leftovers of
        # the densest neighborhood form an independent set beating eps n.
        viol = HypothesisViolation(
            "large-independent-set",
            res.independent_set,
            len(res.independent_set),
            eps * n,
        )
    else:
        viol = HypothesisViolation("edge-deficiency", (), g.size, bound * n / 2.0)
    return _finish_violation(cert, viol)


def replay_certificate(g: Graph, cert: SearchCertificate) -> bool:
    """Re-run the recorded search and compare every step and the outcome."""
    _, fresh = find_odd_fan(
        g, int(cert.input["k"]), int(cert.input["r"]), float(cert.input["eps"])
    )
    return (
        fresh.input == cert.input
        and fresh.thresholds == cert.thresholds
        and fresh.steps == cert.steps
        and fresh.outcome == cert.outcome
    )
