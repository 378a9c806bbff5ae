"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass; every tolerance here is exact unless stated otherwise.
"""

import math

from cliquefan.cli import main as cli_main
from cliquefan.finder import (
    HypothesisViolation,
    check_violation,
    find_odd_fan,
    peel_dense_subgraph,
    replay_certificate,
    rotate_clique,
)
from cliquefan.generators import (
    FanShape,
    catalogued_alpha,
    fan_graph,
    gnp_random,
    rt_lower_construction,
    turan_graph,
)
from cliquefan.graphs import is_clique, is_independent
from cliquefan.invariants import max_independent_set
from cliquefan.oracle import exact_ex, exact_rt, graph_from_code, naive_contains, pair_count
from cliquefan.witness import FanEmbedding, find_fan, verify_fan
from util import induced_subgraph


def _report(num: int, text: str) -> None:
    print(f"[criterion {num}] PASS: {text}")


def test_criterion_1_fan_search_matches_injection_oracle():
    shapes = [FanShape(1, 3), FanShape(2, 3), FanShape(1, 5)]
    patterns = {s: fan_graph(s)[0] for s in shapes}
    checked = 0
    # (a) every graph on at most 5 vertices
    for n in range(6):
        for code in range(1 << pair_count(n)):
            g = graph_from_code(n, code)
            for shape in shapes:
                found = find_fan(g, shape)
                assert (found is not None) == naive_contains(g, patterns[shape])
                if found is not None:
                    assert verify_fan(g, found, shape) is None
                checked += 1
    # (b) 10,000 seeded samples on 6 and 7 vertices
    grid = [(n, p) for n in (6, 7) for p in (0.3, 0.5, 0.8)]
    for seed in range(10_000):
        n, p = grid[seed % len(grid)]
        g = gnp_random(n, p, 1_000_000 + seed)
        for shape in shapes:
            assert (find_fan(g, shape) is not None) == naive_contains(g, patterns[shape])
            checked += 1
    _report(1, f"find_fan agreed with the injection oracle on {checked} cases")


def test_criterion_2_triangle_fan_degree_bound():
    reported = 0
    violations = 0
    seed = 0
    while reported < 1000:
        n = 20 + seed % 41
        p = (0.8, 1.2, 1.6, 2.0)[seed % 4] / n
        k = 1 + seed % 3
        g = gnp_random(n, p, 2_000_000 + seed)
        seed += 1
        if find_fan(g, FanShape(k, 3)) is not None:
            continue
        reported += 1
        for x in range(g.n):
            sub, _ = induced_subgraph(g, g.neighbors(x))
            alpha = len(max_independent_set(sub))
            if g.degree(x) > alpha + 2 * (k - 1):
                violations += 1
    assert violations == 0
    _report(2, f"degree bound d(x) <= alpha(N(x)) + 2(k-1) held on 1000 fanless graphs")


def test_criterion_3_peeling_postconditions():
    cases = []
    for i in range(35):
        cases.append((200, 0.5, 0.2, 0.2, 0.15, i))
    for i in range(30):
        cases.append((500, 0.8, 0.35, 0.1, 0.15, 100 + i))
    for i in range(20):
        cases.append((1000, 0.6, 0.25, 0.15, 0.1, 200 + i))
    for i in range(10):
        cases.append((2000, 0.7, 0.3, 0.12, 0.15, 300 + i))
    for i in range(5):
        cases.append((5000, 0.8, 0.35, 0.1, 0.15, 400 + i))
    assert len(cases) == 100
    for n, p, beta, eps, c, seed in cases:
        assert c * c < beta * eps
        g = gnp_random(n, p, 3_000_000 + seed)
        assert g.size >= beta * n * n * (1 + eps), "sample misses the edge hypothesis"
        res = peel_dense_subgraph(g, beta, eps, c)
        assert isinstance(res, tuple), "peel failed on a qualifying graph"
        assert len(res) > c * n
        sub, _ = induced_subgraph(g, res)
        assert min(map(sub.degree, range(sub.n))) > 2 * beta * (1 + eps / 2) * len(res)
    _report(3, "peel succeeded with both strict inequalities on all 100 graphs")


def test_criterion_4_rotation_dichotomy():
    graphs = []
    for q in range(1, 7):
        for n in range(q, 61, 7):
            graphs.append(turan_graph(n, q))
    for seed in range(500):
        n = 10 + seed % 51
        p = (0.6, 0.75, 0.9)[seed % 3]
        graphs.append(gnp_random(n, p, 4_000_000 + seed))
    calls = 0
    for g in graphs:
        for start in range(min(g.n, 3)):
            clique: list[int] = [start]
            for v in range(g.n):
                if v != start and all(g.has_edge(v, u) for u in clique):
                    clique.append(v)
                if len(clique) == 4:
                    break
            for size in range(1, len(clique) + 1):
                d = tuple(sorted(clique[:size]))
                res = rotate_clique(g, d, 2, 0.3, -1.0, degree_threshold=0.0)
                calls += 1
                if isinstance(res, tuple):
                    assert is_clique(g, res) and res == tuple(sorted(res))
                    assert len(res) == len(d) + 1
                    assert len(set(res) & set(d)) >= len(d) - 1
                else:
                    assert isinstance(res, HypothesisViolation)
                    assert res.kind == "large-independent-set"
                    assert is_independent(g, res.vertices)
    _report(4, f"every one of {calls} rotations produced a clique or an independent witness")


POSITIVE_GRID = [(r, k, n) for r in (2, 3) for k in (2, 3) for n in (50, 100)]


def test_criterion_5_end_to_end_positive():
    for r, k, n in POSITIVE_GRID:
        g = turan_graph(n, 2 * r + 1)
        out, cert = find_odd_fan(g, k, r, 0.2)
        assert isinstance(out, FanEmbedding), f"no embedding for r={r} k={k} n={n}"
        assert verify_fan(g, out, FanShape(k, 2 * r + 1)) is None
        assert replay_certificate(g, cert)
        augments = sum(1 for s in cert.steps if s["kind"] == "augment")
        assert augments <= k ** (r + 1)
    _report(5, f"verified embeddings with replay on all {len(POSITIVE_GRID)} grid points")


def test_criterion_6_end_to_end_negative():
    delta = math.sqrt(2) / 10 * 0.2 ** 2
    for r, k, n in POSITIVE_GRID:
        g = turan_graph(n, 2 * r)  # no clique of order 2r+1 exists
        out, cert = find_odd_fan(g, k, r, 0.2)
        assert isinstance(out, HypothesisViolation), f"unexpected fan for r={r} k={k} n={n}"
        assert check_violation(g, out)
        assert out.kind == "large-independent-set"
        assert out.observed > delta * n
        assert replay_certificate(g, cert)
    _report(6, "every run on the clique-free grid returned a checkable violation")


def test_criterion_7_lower_bound_construction_audit(tmp_path):
    orders = [10, 20, 30, 40, 50, 60]
    for n in orders:
        g = rt_lower_construction(n, 2, "c5")
        assert find_fan(g, FanShape(1, 5)) is None
        part = n // 2
        expected_alpha = catalogued_alpha("c5", part)  # 2 per pentagon copy
        assert expected_alpha == 2 * (part // 5)
        assert len(max_independent_set(g)) == expected_alpha
        between = (n // 2) * (n - n // 2)
        assert between == n * n // 4
        assert g.size >= n * n // 4
        assert g.size == between + n  # pentagon copies add exactly n edges
    table = tmp_path / "audit.tsv"
    assert cli_main(["table", "--n", ",".join(map(str, orders)), "--r", "2",
                     "--parts", "c5", "--out", str(table)]) == 0
    lines = table.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["n", "r", "edges", "bound", "alpha"]
    for line, n in zip(lines[1:], orders):
        n_s, r_s, edges_s, bound_s, alpha_s = line.split("\t")
        assert int(n_s) == n and int(r_s) == 2
        assert int(edges_s) >= float(bound_s) == n * n / 4
        assert int(alpha_s) == catalogued_alpha("c5", n // 2)
    _report(7, "construction is K5-free with exact alpha and edge counts, table agrees")


def test_criterion_8_small_exact_values():
    for n in range(3, 8):
        value, witness = exact_ex(n, FanShape(1, 3), iso_filter=(n == 7))
        assert value == n * n // 4, f"ex({n}) = {value}"
        assert witness.size == value
        assert not naive_contains(witness, fan_graph(FanShape(1, 3))[0])
    assert exact_rt(6, FanShape(1, 3), 2) is None
    value, witness = exact_rt(5, FanShape(1, 3), 2)
    assert value == 5 and witness.size == 5
    _report(8, "Mantel values for n=3..7, rt(6)=infeasible, rt(5)=5 all exact")
