"""The three workloads: how each builds its inputs and which operations
a round runs on them.

``build(P, seed, workdir)`` is the timed set-up: it calls only the
program (``P`` holds its layer modules) and returns the hosts as held
in memory. ``ops(P, hosts, seed)`` is untimed: it prepares the
reference data the checks need and returns the round's operations.
Every program call inside an op looks its function up on the module at
call time, so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import checks
from checks import CheckFailed
from harness import Op

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_TSV = SRC / "cliquefan" / "data" / "reference_values.tsv"


@dataclass
class Host:
    label: str
    graph: Any
    path: Path | None = None
    reference: tuple[np.ndarray, int] | None = None


def graph_bytes(hosts: dict[str, Host]) -> int:
    """Size of the graph files the set-up wrote."""
    return sum(h.path.stat().st_size for h in hosts.values() if h.path is not None)


def _relabel(P, g, perm: list[int]):
    return P.graphs.Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def _store(P, hosts: dict[str, Host], label: str, g, workdir: Path) -> None:
    """Write the host as a graph file and keep what reading it back gives,
    as every ``cliquefan find-fan`` and ``verify`` call does."""
    path = workdir / f"{label}.txt"
    with open(path, "w", encoding="ascii") as fh:
        P.graphio.write_graph(g, fh)
    with open(path, encoding="ascii") as fh:
        hosts[label] = Host(label, P.graphio.read_graph(fh), path)


def _reference(host: Host) -> tuple[np.ndarray, int]:
    """Adjacency matrix and edge count parsed from the host's graph file."""
    if host.reference is None:
        n, ends = checks.read_edge_file(host.path)
        host.reference = checks.adjacency(n, ends), len(ends)
    return host.reference


def _outcome_data(P, outcome) -> dict:
    if isinstance(outcome, P.witness.FanEmbedding):
        return {"type": "embedding", "center": outcome.center, "blades": [list(b) for b in outcome.blades]}
    return {
        "type": "violation",
        "kind": outcome.kind,
        "vertices": list(outcome.vertices),
        "observed": outcome.observed,
        "threshold": outcome.threshold,
        "within": None if outcome.within is None else list(outcome.within),
    }


def _cli_verify(P, g, cert) -> bool:
    """What ``cliquefan verify`` does once the graph is loaded: decode the
    certificate, replay it, and run the outcome's own checker."""
    back = P.graphio.certificate_from_json(P.graphio.certificate_to_json(cert))
    if not P.finder.replay_certificate(g, back):
        return False
    out = back.outcome
    k, r = int(back.input["k"]), int(back.input["r"])
    if out["type"] == "embedding":
        emb = P.witness.FanEmbedding(out["center"], tuple(tuple(b) for b in out["blades"]))
        return P.witness.verify_fan(g, emb, P.generators.FanShape(k, 2 * r + 1)) is None
    within = None if out["within"] is None else tuple(out["within"])
    viol = P.finder.HypothesisViolation(out["kind"], tuple(out["vertices"]), out["observed"], out["threshold"], within)
    return P.finder.check_violation(g, viol)


def _search_op(P, host: Host, k: int, r: int, eps: float, expect: str, nu_samples: int, rng) -> Op:
    """find_odd_fan on one host, checked against the host's edge list.

    ``expect`` is "embedding", "violation", "edge-deficiency" or "any".
    For an r = 1 violation a seeded sample of neighbourhoods gets a
    networkx matching, which must stay below k.
    """
    adj, edge_count = _reference(host)
    sample = rng.choice(len(adj), size=min(nu_samples, len(adj)), replace=False).tolist()
    g = host.graph
    order = 2 * r + 1

    def solve():
        return P.finder.find_odd_fan(g, k, r, eps)

    def verify(answer):
        return _cli_verify(P, g, answer[1])

    def check(answer, accepted):
        out = _outcome_data(P, answer[0])
        if expect == "embedding" or (expect == "any" and out["type"] == "embedding"):
            if out["type"] != "embedding":
                raise CheckFailed(f"expected an embedding, got a {out['kind']} violation")
            checks.check_fan(adj, out["center"], out["blades"], k, order)
        else:
            if out["type"] != "violation":
                raise CheckFailed("expected a violation, got an embedding")
            if expect == "edge-deficiency" and out["kind"] != expect:
                raise CheckFailed(f"expected edge-deficiency, got {out['kind']}")
            checks.check_violation(adj, edge_count, out)
            if r == 1:
                checks.check_nu_below(adj, sample, k)
        if not accepted:
            raise CheckFailed("cliquefan verify rejects the certificate")

    def known_fault(answer):
        out = answer[0] if answer else None
        return (
            isinstance(out, P.finder.HypothesisViolation)
            and out.kind == "large-independent-set"
            and r >= 2
            and not out.vertices
        )

    return Op(f"{host.label}/k={k},r={r}", solve, check, verify, known_fault)


def _certificate_counts(P, answers) -> dict[str, int]:
    """Peel removals and augment steps, read from the certificates.

    A peel that cascades to an edge deficit stops at the first surviving
    order at or below c n, so it removed n - floor(c n) vertices."""
    removed = steps = 0
    for answer in answers:
        if not isinstance(answer, tuple):
            continue
        cert = answer[1]
        n = cert.input["n"]
        peel = [s for s in cert.steps if s["kind"] == "peel"]
        if peel:
            removed += n - len(peel[0]["survivors"])
        elif cert.input["r"] >= 2 and cert.outcome.get("kind") == "edge-deficiency" and n:
            removed += n - math.floor(cert.thresholds["peel_c"] * n)
        steps += sum(1 for s in cert.steps if s["kind"] == "augment")
    return {"finder.peel.removed": removed, "finder.augment.steps": steps}


# --- fan-search -----------------------------------------------------------

FAN_N = 600                  # order of the Turán hosts
FAN_EPS = 0.2
# Planted hosts: a Turán core of this share of the vertices above a
# G(n, p) periphery; the core's degree stays above the peel threshold
# (1 - 1/r + eps/2) n, the periphery's falls far below it.
PLANTED = ((2, 600, 0.8), (3, 600, 0.9))
PLANTED_P = 0.02
# Peel-cascade hosts: G(n, p) with p just under the peel threshold
# 1 - 1/r + eps/2 (0.6 for r = 2, 0.767 for r = 3).
CASCADE = ((2, 800, 0.58), (3, 700, 0.75))
# The small-host grid keeps fixed host seeds, so the hosts on which
# rotate_clique returns an empty independent-set witness are the same
# in every run.
GRID_SIZE = 1200
GRID_SEED = 9_000_000
GRID_EPS = 0.3


def grid_params(i: int) -> tuple[int, float, int, int]:
    """(n, p, r, k) of small host i."""
    return 8 + i % 47, (0.5, 0.7, 0.85, 0.95)[i % 4], 1 + i % 3, 1 + (i // 3) % 3


def build_fan_search(P, seed: int, workdir: Path) -> dict[str, Host]:
    gen = P.generators
    rng = np.random.default_rng([seed, 1])
    hosts: dict[str, Host] = {}
    for q in (4, 5, 6, 7):
        g = _relabel(P, gen.turan_graph(FAN_N, q), rng.permutation(FAN_N).tolist())
        _store(P, hosts, f"turan{q}", g, workdir)
    for r, n, share in PLANTED:
        core = int(share * n)
        members = rng.permutation(n).tolist()
        in_core = set(members[:core])
        edges = [(members[u], members[v]) for u, v in gen.turan_graph(core, 2 * r + 1).edges()]
        sparse = gen.gnp_random(n, PLANTED_P, int(rng.integers(2**32)))
        edges.extend(e for e in sparse.edges() if not (e[0] in in_core and e[1] in in_core))
        _store(P, hosts, f"planted{r}", P.graphs.Graph(n, edges), workdir)
    for r, n, p in CASCADE:
        _store(P, hosts, f"cascade{r}", gen.gnp_random(n, p, int(rng.integers(2**32))), workdir)
    for i in range(GRID_SIZE):
        n, p, _, _ = grid_params(i)
        _store(P, hosts, f"grid{i}", gen.gnp_random(n, p, GRID_SEED + i), workdir)
    return hosts


def fan_search_ops(P, h: dict[str, Host], seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    plan = [
        ("turan4", 2, 2, "violation"), ("turan4", 3, 2, "violation"),
        ("turan5", 2, 2, "embedding"), ("turan5", 3, 2, "embedding"),
        ("turan6", 2, 3, "violation"), ("turan6", 3, 3, "violation"), ("turan6", 3, 2, "embedding"),
        ("turan7", 2, 3, "embedding"), ("turan7", 3, 3, "embedding"),
        ("planted2", 2, 2, "embedding"), ("planted2", 3, 2, "embedding"),
        ("planted3", 2, 3, "embedding"), ("planted3", 3, 3, "embedding"),
        ("cascade2", 2, 2, "edge-deficiency"), ("cascade3", 2, 3, "edge-deficiency"),
    ]
    ops = [_search_op(P, h[label], k, r, FAN_EPS, expect, 0, rng) for label, k, r, expect in plan]
    for i in range(GRID_SIZE):
        _, _, r, k = grid_params(i)
        ops.append(_search_op(P, h[f"grid{i}"], k, r, GRID_EPS, "any", 2, rng))
    return ops


# --- triangle-scan ----------------------------------------------------------

TRI_EPS = 0.2
BIPARTITE = ((150, 1), (120, 2))     # K_{a,a} and k
TF_PROCESS = ((600, 1), (500, 2))    # triangle-free process order and k
DENSE = ((160, 0.5), (120, 0.7))     # G(n, p); k is set above every nu(N(x))
LATE = (150, 3)                      # K_{a,a} plus a k-matching in the first side


def build_triangle_scan(P, seed: int, workdir: Path) -> dict[str, Host]:
    gen = P.generators
    rng = np.random.default_rng([seed, 3])
    hosts: dict[str, Host] = {}
    for a, _ in BIPARTITE:
        g = _relabel(P, gen.turan_graph(2 * a, 2), rng.permutation(2 * a).tolist())
        _store(P, hosts, f"bipartite{a}", g, workdir)
    for n, _ in TF_PROCESS:
        _store(P, hosts, f"tf{n}", gen.triangle_free_process(n, int(rng.integers(2**32))), workdir)
    for n, p in DENSE:
        _store(P, hosts, f"dense{n}", gen.gnp_random(n, p, int(rng.integers(2**32))), workdir)
    # Late centre: turan_graph(2a, 2) puts v in side v mod 2. Even vertices
    # go to ids 0..a-1 (side B), odd ones to a..2a-1 (side A); a k-matching
    # inside B gives every A vertex k disjoint neighbourhood edges, while a
    # B vertex's neighbourhood is a star, so the scan first succeeds at a.
    a, k = LATE
    side_b, side_a = rng.permutation(a).tolist(), (a + rng.permutation(a)).tolist()
    perm = [side_b[v // 2] if v % 2 == 0 else side_a[v // 2] for v in range(2 * a)]
    pairs = rng.permutation(a)[: 2 * k].reshape(k, 2).tolist()
    edges = [(perm[u], perm[v]) for u, v in gen.turan_graph(2 * a, 2).edges()] + [tuple(e) for e in pairs]
    _store(P, hosts, "late", P.graphs.Graph(2 * a, edges), workdir)
    return hosts


def triangle_scan_ops(P, h: dict[str, Host], seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    ops = [_search_op(P, h[f"bipartite{a}"], k, 1, TRI_EPS, "violation", 8, rng) for a, k in BIPARTITE]
    ops += [_search_op(P, h[f"tf{n}"], k, 1, TRI_EPS, "violation", 8, rng) for n, k in TF_PROCESS]
    for n, _ in DENSE:
        adj, _ = _reference(h[f"dense{n}"])
        k = int(adj.sum(axis=1).max()) // 2 + 1
        ops.append(_search_op(P, h[f"dense{n}"], k, 1, TRI_EPS, "violation", 8, rng))
    a, k = LATE
    late = _search_op(P, h["late"], k, 1, TRI_EPS, "embedding", 0, rng)
    check_fan = late.check

    def check_late(answer, accepted):
        check_fan(answer, accepted)
        if answer[0].center != a:
            raise CheckFailed(f"first centre is {answer[0].center}, want {a}")

    late.check = check_late
    ops.append(late)
    return ops


# --- exact-oracles ----------------------------------------------------------

# rt_lower_construction hosts for the exact alpha audit: (n, r, parts).
# Branch-and-bound time grows steeply with n; the largest c5 and c13-power
# hosts take seconds. The 32 small tf-process hosts, each with its own
# seeded process, cost about the same and are the middle third of the
# round's solve calls, so they set solve_median_ms steadily.
ALPHA_HOSTS = (
    (60, 2, "c5"), (70, 2, "c5"), (80, 2, "c5"), (90, 2, "c5"),
    (78, 2, "c13-power"), (104, 2, "c13-power"),
    (90, 3, "c5"), (105, 3, "c5"), (117, 3, "c13-power"), (156, 3, "c13-power"),
) + ((80, 2, "tf-process"), (90, 3, "tf-process")) * 16
ALPHA_BUDGET = 200_000_000
CLASS_ORDERS = range(8)


# Rows beyond the reference table, each with a closed form: Turán K4,
# the stars K_{1,2} and K_{1,3}, and triangle-free graphs under looser
# independence caps. Their raw scans give verify_s seconds of work.
EXTRA_ROWS = (
    [(n, 1, 4, None) for n in range(4, 8)]
    + [(n, k, 2, None) for k in (2, 3) for n in range(4, 8)]
    + [(5, 1, 3, 3), (6, 1, 3, 4), (6, 1, 3, 5), (6, 1, 3, 6)]
)


def reference_rows() -> list[tuple[int, int, int, int | None]]:
    """(n, k, r, alpha_cap) of every row of the reference table, then
    EXTRA_ROWS; the table's value and witness columns are not read."""
    lines = REFERENCE_TSV.read_text(encoding="ascii").split("\n")
    rows = []
    for line in lines[1:]:
        if line.strip():
            n, k, r, cap = line.split("\t")[:4]
            rows.append((int(n), int(k), int(r), None if cap == "-" else int(cap)))
    return rows + EXTRA_ROWS


def build_exact_oracles(P, seed: int, workdir: Path) -> dict[str, Host]:
    rng = np.random.default_rng([seed, 5])
    hosts: dict[str, Host] = {}
    for n, r, parts in ALPHA_HOSTS:
        key = f"tf-process:{int(rng.integers(2**32))}" if parts == "tf-process" else parts
        hosts[f"alpha-{n}-{r}-{key}"] = Host(key, P.generators.rt_lower_construction(n, r, key))
    return hosts


def _clear_oracle_caches(P) -> None:
    """Forget the class enumeration, as a fresh ``cliquefan ex`` process has."""
    for fn in list(vars(P.oracle).values()):
        while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _row_op(P, n: int, k: int, r: int, cap: int | None) -> Op:
    def exact(iso_filter: bool):
        shape = P.generators.FanShape(k, r)
        if cap is None:
            return P.oracle.exact_ex(n, shape, iso_filter=iso_filter)
        return P.oracle.exact_rt(n, shape, cap, iso_filter=iso_filter)

    def verify(answer):
        raw = exact(False) if n <= 6 else None
        contains = None
        if answer is not None:
            contains = P.oracle.naive_contains(answer[1], P.generators.fan_graph(P.generators.FanShape(k, r))[0])
        return raw, contains

    def check(answer, verdict):
        raw, contains = verdict
        value, edges = (None, None) if answer is None else (answer[0], sorted(answer[1].edges()))
        checks.check_extremal(n, k, r, cap, value, edges)
        if contains:
            raise CheckFailed("naive_contains finds the fan in the witness")
        if n <= 6:
            raw_value, raw_edges = (None, None) if raw is None else (raw[0], sorted(raw[1].edges()))
            if (raw_value, raw_edges) != (value, edges):
                raise CheckFailed(f"iso-filtered answer {value} differs from the raw scan {raw_value}")

    name = f"ex({n}, F{k}({r}))" if cap is None else f"rt({n}, F{k}({r}), {cap})"
    return Op(name, lambda: exact(True), check, verify)


def _alpha_op(P, label: str, host: Host, n: int, r: int) -> Op:
    g = host.graph
    adj = checks.adjacency(n, np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2))
    starts = np.cumsum([0] + checks.part_sizes(n, r))
    want = max(checks.part_alpha(adj, host.label, int(starts[i]), int(starts[i + 1] - starts[i])) for i in range(r))

    def solve():
        return P.invariants.max_independent_set(g, budget=ALPHA_BUDGET)

    def check(answer, _):
        checks.check_alpha(adj, list(answer.members), want)

    return Op(label, solve, check)


def _interleave(*lists: list) -> list:
    return [item for group in itertools.zip_longest(*lists) for item in group if item is not None]


def exact_oracles_ops(P, hosts: dict[str, Host], seed: int) -> list[Op]:
    """Half of the rows up to n = 6 and of each kind of alpha host run,
    interleaved, before the n = 7 rows that pay the class enumeration,
    the other half after them, so the short raw scans and the small alpha
    solves that set the median are spread over the round."""
    rows = reference_rows()
    small = [_row_op(P, *row) for row in rows if row[0] <= 6]
    large = [_row_op(P, *row) for row in rows if row[0] > 6]
    alphas = [_alpha_op(P, label, host, n, r) for (n, r, _), (label, host) in zip(ALPHA_HOSTS, hosts.items())]
    catalogued = [op for op, (_, _, parts) in zip(alphas, ALPHA_HOSTS) if parts != "tf-process"]
    tf = [op for op, (_, _, parts) in zip(alphas, ALPHA_HOSTS) if parts == "tf-process"]
    groups = (small, catalogued, tf)
    before = _interleave(*(g[: len(g) // 2] for g in groups))
    after = _interleave(*(g[len(g) // 2:] for g in groups))
    census = Op(
        "class census",
        lambda: [len(P.oracle.nonisomorphic_graph_codes(n)) for n in CLASS_ORDERS],
        lambda counts, _: checks.check_class_counts(counts),
        timed=False,
    )
    return before + large + after + [census]


@dataclass(frozen=True)
class Workload:
    build: Any
    ops: Any
    prologue: Any = None          # run at the start of every round
    counts: Any = None            # per-layer counts read from a round's answers


WORKLOADS = {
    "fan-search": Workload(build_fan_search, fan_search_ops, counts=_certificate_counts),
    "triangle-scan": Workload(build_triangle_scan, triangle_scan_ops, counts=_certificate_counts),
    "exact-oracles": Workload(
        build_exact_oracles,
        exact_oracles_ops,
        prologue=_clear_oracle_caches,
        counts=lambda P, answers: {"oracle.classes": sum(next(a for a in answers if isinstance(a, list)))},
    ),
}
