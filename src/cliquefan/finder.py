"""Constructive search for fans of odd cliques in dense graphs.

The pipeline peels the graph down to a dense core, seeds a clique, then
repeatedly rotates it up to a K_{2r+1} and attaches the result as a new
blade of a generalized fan, driving the fan's count tuple strictly
upward in lexicographic order until one center owns k blades.

Every step validates its own hypotheses instead of assuming them, so on
an arbitrary input the search either returns a verified embedding or a
hypothesis violation carrying a machine-checkable witness (a low-degree
vertex, an oversized independent set, an edge deficit, or a clique that
nothing in its pool extends). Ties of any kind resolve to smallest ids,
making every run reproducible.
"""

from __future__ import annotations

import marshal
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .generators import FanShape
from .graphs import Graph, bits, is_clique, is_independent, mask_from, restriction_mask, vertex_mask
from .invariants import max_matching
from .witness import (
    FanEmbedding,
    GeneralizedFanEmbedding,
    find_fan,
    verify_fan,
    verify_generalized_fan,
)

class SearchInvariantError(RuntimeError):
    """An internal invariant of the augmentation loop broke; this is a
    bug trap, never an expected outcome."""


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
    mask = (1 << g.n) - 1 if violation.within is None else mask_from(violation.within)
    kind = violation.kind
    if kind == "edge-deficiency":
        return not violation.vertices and violation.observed == g.size <= violation.threshold
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
        return common == 0 and violation.observed == 0 < violation.threshold
    raise ValueError(f"unknown violation kind {kind!r}")


def peel_dense_subgraph(g: Graph, beta: float, eps: float, c: float):
    """Iteratively drop the smallest-id vertex not strictly above the
    density threshold 2 beta (1 + eps/2) times the surviving order.

    Needs 0 < beta < 1/2, 0 < eps < 1 and 0 < c < sqrt(beta eps).

    On success the survivors S satisfy |S| > c n and every surviving
    degree inside S strictly exceeds the threshold at |S|. If the
    process eats down to c n vertices the input was edge-deficient
    (fewer than beta n^2 (1 + eps) edges) and that deficit is returned
    as the violation witness.

    While the least survivor v violates it is the first violator, of
    degree (adj[v] >> v).bit_count() with every vertex below it gone, so
    that opening run needs no array. Then degrees sit in a numpy vector:
    each step removes the first violator and subtracts its row of an n x n
    uint8 array (n^2 bytes), the host's rows unpacked once, lazily, at the
    first such step.
    A removed vertex's entry becomes 3n, above 2n after its at most n - 1
    later decrements, so out of reach of the threshold (below 1.5 n). The
    threshold only falls, so a vertex turns violator only by losing a
    neighbour, and a heap re-queueing it then would pop the same vertex.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not (c > 0.0 and c * c < beta * eps):
        raise ValueError("retention constant must satisfy 0 < c < sqrt(beta * eps)")
    n = g.n
    coef = 2.0 * beta * (1.0 + eps / 2.0)
    cn = c * n
    deficiency = HypothesisViolation("edge-deficiency", (), g.size, beta * (1.0 + eps) * n * n)
    if n == 0:
        return deficiency
    adj, m = g._adj, n
    while (adj[n - m] >> n - m).bit_count() <= coef * m:
        m -= 1
        if m <= cn:
            return deficiency
    deg = np.array([3 * n] * (n - m) + [(a >> n - m).bit_count() for a in adj[n - m:]], np.int64)
    rows = None
    while (low := deg <= coef * m)[v := int(low.argmax())]:
        deg[v] = 3 * n
        m -= 1
        if m <= cn:
            return deficiency
        if rows is None:
            raw = np.frombuffer(b"".join(a.to_bytes((n + 7) // 8, "little") for a in adj), np.uint8)
            rows = np.unpackbits(raw.reshape(n, -1), axis=1, count=n, bitorder="little")
        deg -= rows[v]
    return tuple(np.flatnonzero(deg < n).tolist())


def _step_kernel(adj, dmask: int, mask: int, thr: float, r: int, within, alpha_bound=None):
    """The clique step on masks, called by the search loop and by
    :func:`_clique_step`. Checks that ``dmask`` is a clique (one AND of its
    closed rows, which leaves its common neighbours) inside the pool
    ``mask`` of at most r vertices (2r for a rotation, ``alpha_bound`` not
    None) whose members have ``thr`` pool neighbours each, else returns
    the first that fails as a low-degree violation. An extension returns
    the added vertex, a rotation the new clique's mask; violations record
    the pool as ``within``, None for every vertex."""
    d = tuple(bits(dmask))  # repeats merge, as in a vertex set
    common = -1
    for u in d:
        common &= adj[u] | 1 << u
    if common & dmask != dmask:
        raise ValueError(f"{d} is not a clique")
    if dmask & ~mask:
        raise ValueError(f"clique {d} leaves the restriction")
    if len(d) > (max_size := r if alpha_bound is None else 2 * r):
        raise ValueError(f"clique of size {len(d)} exceeds the bound {max_size}")
    for v in d:
        if (dv := (adj[v] & mask).bit_count()) < thr:
            pool = None if within is None else tuple(bits(within))
            return HypothesisViolation("low-degree-vertex", (v,), dv, thr, pool)
    common &= mask & ~dmask
    if alpha_bound is not None and not d:
        raise ValueError("cannot rotate an empty clique")
    if low := common & -common:
        return low.bit_length() - 1 if alpha_bound is None else dmask | low
    if alpha_bound is not None:
        buckets = dict.fromkeys(d, 0)
        for w in bits(mask & ~dmask):
            missed = dmask & ~adj[w]
            if missed and not missed & (missed - 1):
                buckets[missed.bit_length() - 1] |= 1 << w
        for v, bucket in buckets.items():
            # The first x with a neighbour in its bucket has none below it.
            for x in bits(bucket):
                if nb := adj[x] & bucket:
                    return dmask ^ 1 << v | 1 << x | nb & -nb
        witness = tuple(bits(max(buckets.values(), key=int.bit_count)))
        if len(witness) > alpha_bound:
            return HypothesisViolation("large-independent-set", witness, len(witness), alpha_bound)
    pool = None if within is None else tuple(bits(within))
    return HypothesisViolation("clique-extension-failure", d, 0, 1.0, pool)


def _clique_step(g: Graph, clique, r: int, eps: float, within, degree_threshold, alpha_bound=None):
    """:func:`_step_kernel` behind the public steps' checks: the restriction
    mask and the clique in range, r >= 1; the degree bound is ``degree_threshold``
    or else (1 - 1/r + eps/3) n, n being the restricted order."""
    mask = restriction_mask(g, within)
    dmask = vertex_mask(g, clique)
    if r < 1:
        raise ValueError("r must be positive")
    coef = 1.0 - 1.0 / r + eps / 3.0
    thr = coef * mask.bit_count() if degree_threshold is None else degree_threshold
    return _step_kernel(g._adj, dmask, mask, thr, r, within, alpha_bound)


def extend_clique(g: Graph, clique, r: int, eps: float, *, within: int | None = None,
                  degree_threshold: float | None = None):
    """Smallest common neighbor of a clique of at most r vertices.

    ``within`` is a vertex mask restricting the step to that pool (None
    for every vertex). Checks the degree hypothesis d(v) >= (1 - 1/r +
    eps/3) n on every clique member first (n being the pool's order); a
    failing vertex comes back as a low-degree violation, an empty common
    neighborhood as a clique-extension failure. ``degree_threshold``
    overrides the derived bound for unit tests on small graphs.

    With the derived bound and a nonempty pool the failure cannot
    happen: each of the t <= r members misses at most (1/r - eps/3) n
    pool vertices, counting itself, so together they miss at most
    (1 - r eps/3) n < n of them and some pool vertex outside the clique
    is adjacent to all of it. Inside the search only a rotation can
    report an extension failure.
    """
    return _clique_step(g, clique, r, eps, within, degree_threshold)


def rotate_clique(g: Graph, clique, r: int, eps: float, alpha_bound: float, *,
                  within: int | None = None, degree_threshold: float | None = None):
    """Grow a clique of 1 to 2r vertices by one, reusing all but at most
    one of its vertices, and return the new clique as a sorted tuple.

    The degree hypothesis is checked as in :func:`extend_clique`. A
    common neighbor settles it directly. Otherwise the vertices adjacent
    to all but exactly one clique member are bucketed by that missed
    member; an edge inside a bucket swaps the missed member for the
    edge's two ends. If every bucket is an independent set, the largest
    one (ties to the earliest member) is returned as a large independent
    set when it holds more than ``alpha_bound`` vertices. Otherwise the
    clique is reported as a clique-extension failure within the rotation
    pool, which it is, since no vertex there extends it.
    """
    res = _clique_step(g, clique, r, eps, within, degree_threshold, alpha_bound)
    return res if isinstance(res, HypothesisViolation) else tuple(bits(res))


def search_thresholds(n: int, k: int, r: int, eps: float) -> dict[str, Any]:
    """The constants the search derives, as the certificate records them.

    The prose around the density argument is not self-consistent about
    signs and slacks, so this pins one workable scheme: peeling uses
    beta = (1 - 1/r)/2 with slack eps r/(r - 1), which makes the edge
    hypothesis (1 - 1/r + eps) n^2/2 equal beta (1 + slack) n^2 and
    leaves the peeled core with minimum degree above (1 - 1/r + eps/2)
    times its order, comfortably implying the clique steps'
    (1 - 1/r + eps/3) bound. Retention is fixed at 90% of its strict
    supremum sqrt(beta * slack) = sqrt(eps/2). The rotations' independence
    bound is delta n. The peel_* entries are None for r = 1, which peels
    nothing.
    """
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
    return {
        "delta": delta,
        "edge_threshold": (1.0 - 1.0 / r + eps) * n * n / 2.0,
        "degree_coef": 1.0 - 1.0 / r + eps / 3.0,
        "deletion_bound": 2 * r * (k - 1) * (r + 1) + (r + 1),
        "alpha_bound": delta * n,
        "peel_beta": peel_beta,
        "peel_eps": peel_eps,
        "peel_c": peel_c,
        "peel_degree_coef": peel_degree_coef,
    }


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
    dense core, then loop, starting from an empty base: in the core minus
    every blade vertex, extend the base to r+1 vertices, rotate it r times
    up to a K_{2r+1} and attach that as a new blade of the earliest base
    vertex it retained; once that vertex owns k blades, done; otherwise
    shrink the base to that prefix. The count tuple rises strictly in
    lexicographic order each time, which caps the loop at k^(r+1)
    iterations; exceeding the cap is a bug, not a legitimate outcome.
    The pool is held as one blade mask per kept base vertex: shrinking the
    base gives the dropped vertices' blades back, and a vertex extended
    again starts with none. Each pass takes the pool and its degree bound
    once, for every extend and rotate step of :func:`_step_kernel`.

    Requires eps < (r - 1)/r for r >= 2 so the peeling slack stays valid.
    """
    th = search_thresholds(g.n, k, r, eps)
    cert = SearchCertificate(
        input={"n": g.n, "edges": g.size, "k": k, "r": r, "eps": eps},
        thresholds=th,
        steps=[],
        outcome={},
    )
    if r == 1:
        return _find_odd_fan_r1(g, k, eps, cert)

    peeled = peel_dense_subgraph(g, th["peel_beta"], th["peel_eps"], th["peel_c"])
    if isinstance(peeled, HypothesisViolation):
        return _finish_violation(cert, peeled)
    cert.steps.append({"kind": "peel", "survivors": list(peeled)})
    adj, core = g._adj, mask_from(peeled)

    base: list[int] = []
    blades: dict[int, list[tuple[int, ...]]] = {}
    held: dict[int, int] = {}  # a base vertex's blades as one mask
    prev_tuple: tuple[int, ...] = ()
    for _ in range(k ** (r + 1) + 1):
        free = core & ~sum(held[v] for v in base)  # disjoint masks: the sum is the union
        thr = th["degree_coef"] * free.bit_count()
        clique = mask_from(base)
        while len(base) < r + 1:
            res = _step_kernel(adj, clique, free, thr, r, free)
            if isinstance(res, HypothesisViolation):
                return _finish_violation(cert, res)
            base.append(res)
            clique |= 1 << res
            blades[res], held[res] = [], 0
            cert.steps.append({"kind": "extend", "added": res, "clique": sorted(base)})

        order = sorted(base, key=lambda v: (-len(blades[v]), v))
        ks = tuple(len(blades[v]) for v in order)
        if not prev_tuple < ks:
            raise SearchInvariantError(f"fan tuple failed to increase: {prev_tuple} -> {ks}")
        prev_tuple = ks
        current = GeneralizedFanEmbedding(tuple(order), tuple(tuple(blades[v]) for v in order))
        reason = verify_generalized_fan(g, current, r)
        if reason is not None:
            raise SearchInvariantError(f"intermediate fan invalid: {reason}")

        for _ in range(r):
            res = _step_kernel(adj, clique, free, thr, r, free, th["alpha_bound"])
            if isinstance(res, HypothesisViolation):
                return _finish_violation(cert, res)
            cert.steps.append({"kind": "rotate", "from": list(bits(clique)), "to": list(bits(res))})
            clique = res

        v_s = next((v for v in order if clique >> v & 1), None)
        if v_s is None:
            raise SearchInvariantError("rotation lost every base vertex")
        s = order.index(v_s) + 1
        held[v_s] |= clique ^ 1 << v_s
        new_blade = tuple(bits(clique ^ 1 << v_s))
        base = order[:s]
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
            # Done before the next pass re-extends the base, which could
            # starve on a host with no vertices to spare.
            emb = FanEmbedding(v_s, tuple(blades[v_s]))
            reason = verify_fan(g, emb, FanShape(k, 2 * r + 1))
            if reason is not None:
                raise SearchInvariantError(f"final embedding rejected: {reason}")
            cert.outcome = _embedding_dict(emb)
            return emb, cert
    raise SearchInvariantError("augmentation exceeded its iteration cap")


def _find_odd_fan_r1(g: Graph, k: int, eps: float, cert: SearchCertificate):
    """:func:`find_fan`'s F_k(3), or a violation. With no fan, nu(G[N(x)]) <= k - 1, so
    the vertices a maximum matching of N(x) leaves are independent and d(x) <=
    alpha(G[N(x)]) + 2 (k - 1). Those of the densest x (ties to the smallest id) beat
    eps n unless every degree, and so 2 |E| / n, is at most eps n + 2 (k - 1)."""
    emb = find_fan(g, FanShape(k, 3))
    cert.steps.append({"kind": "r1-scan", "center": None if emb is None else emb.center})
    if emb is not None:
        cert.outcome = _embedding_dict(emb)
        return emb, cert
    n, adj, bound = g.n, g._adj, eps * g.n + 2 * (k - 1)
    x = max(range(n), key=lambda v: adj[v].bit_count(), default=None)
    if x is None or adj[x].bit_count() <= bound:
        viol = HypothesisViolation("edge-deficiency", (), g.size, bound * n / 2.0)
    else:
        left = adj[x] & ~mask_from(v for e in max_matching(g, adj[x]) for v in e)
        if any(adj[v] & left for v in bits(left)):
            raise SearchInvariantError(f"a maximum matching of N({x}) leaves an edge uncovered")
        vs = tuple(bits(left))
        viol = HypothesisViolation("large-independent-set", vs, len(vs), eps * n)
    return _finish_violation(cert, viol)


def replay_certificate(g: Graph, cert: SearchCertificate) -> bool:
    """Re-run the recorded search and compare every step and the outcome."""
    _, fresh = find_odd_fan(
        g, int(cert.input["k"]), int(cert.input["r"]), float(cert.input["eps"])
    )
    # Bytes, not ==, since 0 == 0.0 == False. marshal version 0 has no interning
    # or shared references, so only values and types count (json.dumps: 5x cost).
    return marshal.dumps(vars(fresh), 0) == marshal.dumps(vars(cert), 0)


def verify_certificate(g: Graph, cert: SearchCertificate) -> str | None:
    """None when the certificate replays and its outcome passes the
    checker that shares no code with the search (replay alone only
    reproduces the search), else the reason for rejecting it."""
    if not replay_certificate(g, cert):
        return "replay diverges from the certificate"
    out = cert.outcome
    if out["type"] == "embedding":
        emb = FanEmbedding(out["center"], tuple(tuple(b) for b in out["blades"]))
        return verify_fan(g, emb, FanShape(cert.input["k"], 2 * cert.input["r"] + 1))
    within = None if out["within"] is None else tuple(out["within"])
    viol = HypothesisViolation(
        out["kind"], tuple(out["vertices"]), out["observed"], out["threshold"], within
    )
    return None if check_violation(g, viol) else f"{out['kind']} witness fails its check"
