import math
import random
from dataclasses import replace
from heapq import heappop, heappush

import pytest

from cliquefan import finder, witness
from cliquefan.finder import (
    HypothesisViolation,
    SearchInvariantError,
    check_violation,
    extend_clique,
    find_odd_fan,
    peel_dense_subgraph,
    replay_certificate,
    rotate_clique,
    search_thresholds,
    verify_certificate,
)
from cliquefan.generators import (
    FanShape,
    gnp_random,
    rt_lower_construction,
    triangle_free_process,
    turan_graph,
)
from cliquefan.graphio import certificate_to_json
from cliquefan.graphs import Graph, bits, is_clique, is_independent
from cliquefan.invariants import max_independent_set, max_matching
from cliquefan.oracle import graph_from_code, pair_count
from cliquefan.witness import FanEmbedding, find_fan, verify_fan
from util import complete, cycle, empty_witness_rotation, induced_subgraph, petersen, star, wheel4


class TestPeel:
    def test_validation(self):
        for beta, eps, c, msg in (
            (0.6, 0.5, 0.1, "beta must lie"),
            (0.3, 1.5, 0.1, "eps must lie"),
            (0.3, 0.5, 0.4, "retention constant"),  # c >= sqrt(beta eps)
        ):
            with pytest.raises(ValueError, match=msg):
                peel_dense_subgraph(complete(10), beta, eps, c)

    def test_complete_graph_survives_whole(self):
        res = peel_dense_subgraph(complete(10), 0.3, 0.5, 0.3)
        assert res == tuple(range(10))

    def test_star_is_edge_deficient(self):
        res = peel_dense_subgraph(star(99), 0.3, 0.5, 0.3)
        assert isinstance(res, HypothesisViolation)
        assert res.kind == "edge-deficiency"
        assert res.observed == 99
        assert check_violation(star(99), res)

    def test_dense_random_graph_postconditions(self):
        g = gnp_random(500, 0.8, 7)
        beta, eps, c = 0.35, 0.1, 0.15
        assert g.size >= beta * g.n * g.n * (1 + eps)
        res = peel_dense_subgraph(g, beta, eps, c)
        assert isinstance(res, tuple)
        assert len(res) > c * g.n
        sub, _ = induced_subgraph(g, res)
        assert min(map(sub.degree, range(sub.n))) > 2 * beta * (1 + eps / 2) * len(res)

    def test_deterministic(self):
        g = gnp_random(60, 0.4, 19)
        assert peel_dense_subgraph(g, 0.15, 0.4, 0.2) == peel_dense_subgraph(g, 0.15, 0.4, 0.2)

    def test_matches_the_heap_peel(self):
        def params(n, r, eps):
            th = search_thresholds(n, 2, r, eps)
            return th["peel_beta"], th["peel_eps"], th["peel_c"]

        core = turan_graph(480, 5)
        planted = Graph(600, list(core.edges()) + [
            e for e in gnp_random(600, 0.02, 5).edges() if not (e[0] < 480 and e[1] < 480)
        ])
        cases = [
            (gnp_random(800, 0.58, 1), *params(800, 2, 0.2)),
            (gnp_random(700, 0.75, 2), *params(700, 3, 0.2)),
            (planted, *params(600, 2, 0.2)),
            # A cascade of about 700 removals that leaves survivors.
            (gnp_random(2000, 0.605, 1), *params(2000, 2, 0.2)),
            # The degree coefficient 2 beta (1 + eps/2) near its 1.5 supremum.
            (gnp_random(200, 0.9, 7), 0.49, 0.99, 0.5),
        ]
        run_cases = opening_run_cases()
        cases += [case for case, _ in run_cases]
        for i in range(200):
            n, r, p = 8 + i % 47, 2 + i % 2, (0.5, 0.7, 0.85, 0.95)[i % 4]
            cases.append((gnp_random(n, p, 9_000_000 + i), *params(n, r, 0.3)))
        outcomes = set()
        for case in cases:
            got = peel_dense_subgraph(*case)
            assert got == heap_peel(*case)
            outcomes.add(type(got))
        assert outcomes == {tuple, HypothesisViolation}
        assert isinstance(peel_dense_subgraph(*cases[0]), HypothesisViolation)
        assert len(peel_dense_subgraph(*cases[2])) == 480
        assert len(peel_dense_subgraph(*cases[3])) == 1294
        assert isinstance(peel_dense_subgraph(*cases[4]), HypothesisViolation)
        for case, want in run_cases:
            assert peel_dense_subgraph(*case) == want

    def test_opening_run_needs_no_array(self, monkeypatch):
        """A peel in which every removal is the least survivor, down to the
        deficiency, stays on the rows' Python ints: numpy is never reached."""
        runs = [(case, want) for case, want in opening_run_cases()
                if isinstance(want, HypothesisViolation)]
        assert len(runs) == 12
        monkeypatch.setattr(finder, "np", None)
        for case, want in runs:
            assert peel_dense_subgraph(*case) == want


def opening_run_cases():
    """(peel arguments, expected outcome) pairs that pin the opening run of
    least-survivor removals at each of its ends."""
    def params(n, r, eps):
        th = search_thresholds(n, 2, r, eps)
        return th["peel_beta"], th["peel_eps"], th["peel_c"]

    def deficiency(g, beta, eps):
        return HypothesisViolation("edge-deficiency", (), g.size, beta * (1 + eps) * g.n * g.n)

    cases = []
    # The run eats a sparse host down to the deficiency.
    for n, seed in ((60, 11), (150, 12), (400, 13)):
        g = gnp_random(n, 0.3, seed)
        cases.append(((g, *params(n, 3, 0.3)), deficiency(g, *params(n, 3, 0.3)[:2])))
    # The run stops at vertex 0: nothing goes, or the array loop drops 6,
    # whose degree ties at 6 = 0.75 * 8 (coef 0.75), as does 7's.
    cases.append(((complete(12), *params(12, 2, 0.3)), tuple(range(12))))
    g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) != (6, 7)])
    cases.append(((g, 0.3, 0.5, 0.3), (0, 1, 2, 3, 4, 5, 7)))
    # The run takes the isolated 0..9 and stops at the clique on 10..89; the
    # array loop then drops 90..99, each joined to five clique vertices.
    edges = [(u, v) for u in range(10, 90) for v in range(u + 1, 90)]
    edges += [(u, 90 + i) for i in range(10) for u in range(10 + 5 * i, 15 + 5 * i)]
    g = Graph(100, edges)
    cases.append(((g, *params(100, 2, 0.2)), tuple(range(10, 90))))
    # The run leaves exactly 30 > cn = 29.5 vertices: the clique on 70..99.
    g = Graph(100, [(u, v) for u in range(70, 100) for v in range(u + 1, 100)])
    cases.append(((g, 0.3, 0.5, 0.295), tuple(range(70, 100))))
    # coef = 2 beta (1 + eps/2) >= 1: every vertex violates, so the run
    # takes even a complete host to the deficiency.
    for g in (complete(20), gnp_random(40, 0.9, 14)):
        r4 = params(g.n, 4, 0.9 * 3 / 4)
        assert 2 * r4[0] * (1 + r4[1] / 2) >= 1
        cases.append(((g, *r4), deficiency(g, *r4[:2])))
        cases.append(((g, 0.45, 0.9, 0.6), deficiency(g, 0.45, 0.9)))
    # coef = 0.75 exactly: vertex 0 has degree 6 = 0.75 * 8 and still goes,
    # as does vertex 4 with degree 3 = 0.75 * 4, at m = 4.
    g = Graph(8, [(0, v) for v in range(1, 7)] + [(4, 5), (4, 6), (4, 7)])
    assert 2 * 0.3 * (1 + 0.5 / 2) == 0.75
    cases.append(((g, 0.3, 0.5, 0.3), deficiency(g, 0.3, 0.5)))
    # The smallest hosts.
    for g in (Graph(0, []), Graph(1, []), Graph(2, []), complete(2)):
        cases.append(((g, *params(g.n, 2, 0.3)), deficiency(g, *params(g.n, 2, 0.3)[:2])))
    return cases


def heap_peel(g: Graph, beta: float, eps: float, c: float):
    """The peel as a heap of candidates, re-queued when they lose a neighbour."""
    n = g.n
    coef = 2.0 * beta * (1.0 + eps / 2.0)
    deficiency = HypothesisViolation("edge-deficiency", (), g.size, beta * (1.0 + eps) * n * n)
    if n == 0:
        return deficiency
    deg = [g.degree(v) for v in range(n)]
    alive = bytearray([1]) * n
    m, heap = n, list(range(n))
    while heap:
        v = heappop(heap)
        if not alive[v] or deg[v] > coef * m:
            continue
        alive[v] = 0
        m -= 1
        if m <= c * n:
            return deficiency
        for u in bits(g.neighbor_mask(v)):
            if alive[u]:
                deg[u] -= 1
                heappush(heap, u)
    return tuple(v for v in range(n) if alive[v])


class TestCheckViolation:
    def test_extension_failure_needs_its_observed_count_and_threshold(self):
        g = gnp_random(19, 0.95, 9_000_071)
        out, _ = find_odd_fan(g, 3, 3, 0.3)
        assert out.kind == "clique-extension-failure" and check_violation(g, out)
        assert not check_violation(g, replace(out, observed=99))
        assert not check_violation(g, replace(out, threshold=-3.0))
        assert not check_violation(g, replace(out, observed=99, threshold=-3.0))
        assert not check_violation(g, replace(out, observed=1))

    def test_edge_deficiency_has_no_vertices(self):
        g = star(99)
        res = peel_dense_subgraph(g, 0.3, 0.5, 0.3)
        assert check_violation(g, res)
        assert not check_violation(g, replace(res, vertices=(0,)))
        assert not check_violation(g, replace(res, vertices=(3, 5)))

    def test_edge_deficiency_threshold_bounds_the_edge_count(self):
        g = star(99)
        at = HypothesisViolation("edge-deficiency", (), 99, 99.0)
        assert check_violation(g, at)
        assert not check_violation(g, replace(at, threshold=98.0))

    def test_independent_set_witness_holding_an_edge_rejected(self):
        g = Graph(4, [(1, 2)])
        assert check_violation(g, HypothesisViolation("large-independent-set", (0, 1), 2, 1.5))
        assert not check_violation(g, HypothesisViolation("large-independent-set", (1, 2), 2, 1.5))

    def test_extension_failure_needs_a_clique(self):
        # Neither set has a common neighbour; only the first is a clique.
        g, kind = Graph(3, []), "clique-extension-failure"
        assert check_violation(g, HypothesisViolation(kind, (0,), 0, 1.0))
        assert not check_violation(g, HypothesisViolation(kind, (0, 1), 0, 1.0))

    def test_strict_kinds_reject_observed_equal_to_threshold(self):
        g = star(5)
        low = HypothesisViolation("low-degree-vertex", (1,), 1, 1.5)
        large = HypothesisViolation("large-independent-set", (1, 2, 3), 3, 2.5)
        for v in (low, large):
            assert check_violation(g, v)
            assert not check_violation(g, replace(v, threshold=v.observed))


class TestExtendClique:
    def test_complete_graph(self):
        assert extend_clique(complete(6), (0, 1, 2), 3, 0.3) == 3

    def test_complete_tripartite(self):
        g = rt_lower_construction(9, 3, "empty")  # parts {0,1,2}, {3,4,5}, {6,7,8}
        assert extend_clique(g, (0, 3), 2, 0.3) == 6

    def test_low_degree_violation(self):
        g = cycle(4)
        res = extend_clique(g, (0,), 2, 0.3)
        assert isinstance(res, HypothesisViolation)
        assert res.kind == "low-degree-vertex"
        assert res.observed == 2 and res.threshold == pytest.approx(2.4)
        assert check_violation(g, res)

    def test_extension_failure_violation(self):
        g = Graph(3, [(0, 1)])
        res = extend_clique(g, (0, 1), 2, 0.3, degree_threshold=0.0)
        assert isinstance(res, HypothesisViolation)
        assert res.kind == "clique-extension-failure"
        assert check_violation(g, res)

    def test_restriction_mask(self):
        g = complete(6)
        assert extend_clique(g, (0, 1), 3, 0.3, within=0b110011, degree_threshold=0.0) == 4

    def test_empty_clique_seeds_smallest_vertex(self):
        assert extend_clique(complete(4), (), 2, 0.3) == 0

    def test_oversized_clique_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            extend_clique(complete(6), (0, 1, 2, 3), 3, 0.3)

    def test_non_clique_rejected(self):
        with pytest.raises(ValueError, match="not a clique"):
            extend_clique(cycle(5), (0, 2), 2, 0.3)

    def test_repeated_vertices_merge_and_out_of_range_rejected(self):
        assert extend_clique(complete(5), (1, 1), 2, 0.3) == 0
        assert rotate_clique(complete(5), (2, 0, 2), 2, 0.3, 1.0) == (0, 1, 2)
        for clique in ((0, 5), (-1, 0)):
            with pytest.raises(ValueError, match="out of range for n=5"):
                extend_clique(complete(5), clique, 2, 0.3)

    def test_restriction_mask_outside_the_host_rejected(self):
        g = complete(6)
        for within in (1 << 6 | 0b11, -1, -0b100):
            for step in (extend_clique, lambda *a, **kw: rotate_clique(*a[:4], 1.0, **kw)):
                with pytest.raises(ValueError, match="restriction mask"):
                    step(g, (0, 1), 3, 0.3, within=within, degree_threshold=0.0)

    def test_clique_leaving_the_pool_or_nonpositive_r_rejected(self):
        with pytest.raises(ValueError, match=r"clique \(0, 1\) leaves the restriction"):
            extend_clique(complete(6), (0, 1), 3, 0.3, within=0b111110)
        with pytest.raises(ValueError, match="r must be positive"):
            rotate_clique(complete(3), (0,), 0, 0.3, 0.01)


class TestRotateClique:
    def test_common_neighbor_branch(self):
        g = rt_lower_construction(6, 3, "empty")  # parts {0,1}, {2,3}, {4,5}
        res = rotate_clique(g, (0, 3), 2, 0.3, 0.01)
        assert res == (0, 3, 4)

    def test_swap_branch(self):
        # x and y sit in the bucket of the first vertex; the swap trades
        # it for the adjacent pair.
        g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        res = rotate_clique(g, (0, 1), 2, 0.3, 0.01, degree_threshold=0.0)
        assert res == (1, 2, 3)
        assert len(set(res) & {0, 1}) >= 1

    def test_triangle_free_graph_yields_independent_witness(self):
        g = cycle(5)
        res = rotate_clique(g, (0, 1), 2, 0.3, 0.0, degree_threshold=0.0)
        assert isinstance(res, HypothesisViolation)
        assert res.kind == "large-independent-set"
        assert res.vertices == (2,)
        assert check_violation(g, res)

    def test_low_degree_violation(self):
        res = rotate_clique(cycle(6), (0, 1), 2, 0.3, 0.01)
        assert isinstance(res, HypothesisViolation)
        assert res.kind == "low-degree-vertex"

    def test_dichotomy_on_turan_and_dense_samples(self):
        graphs = [turan_graph(n, q) for q in range(2, 7) for n in (12, 25)]
        graphs += [gnp_random(20, 0.7, 300 + s) for s in range(30)]
        for g in graphs:
            for size in (1, 2, 3):
                d = _greedy_clique(g, size)
                if d is None:
                    continue
                res = rotate_clique(g, d, 2, 0.3, 0.0, degree_threshold=0.0)
                if isinstance(res, tuple):
                    assert is_clique(g, res) and res == tuple(sorted(res))
                    assert len(res) == len(d) + 1
                    assert len(set(res) & set(d)) >= len(d) - 1
                else:
                    assert res.kind == "large-independent-set"
                    assert is_independent(g, res.vertices)

    def test_small_bucket_is_an_extension_failure_in_the_pool(self):
        # Every bucket independent, the largest not above the bound: the
        # clique has no common neighbor in the pool, which is what it says.
        g = cycle(5)
        res = rotate_clique(g, (0, 1), 2, 0.3, 1.0, within=0b1111, degree_threshold=0.0)
        assert res == HypothesisViolation("clique-extension-failure", (0, 1), 0, 1.0, (0, 1, 2, 3))
        assert check_violation(g, res)

    def test_clique_size_bounds(self):
        with pytest.raises(ValueError):
            rotate_clique(complete(8), (0, 1, 2, 3, 4), 2, 0.3, 0.01)
        with pytest.raises(ValueError):
            rotate_clique(complete(3), (), 1, 0.3, 0.01)

    def test_mask_buckets_match_the_list_buckets(self):
        hosts = [(gnp_random(n, p, 4_400 + n), r) for n in range(8, 41, 4)
                 for p in (0.5, 0.7, 0.85, 0.95) for r in (1, 2, 3)]
        hosts += [(turan_graph(n, q), r) for n in (9, 16, 25) for q in (2, 3, 5) for r in (2, 3)]
        hosts += [(rt_lower_construction(5 * r * m, r, parts), r)
                  for m in (1, 2, 3) for r in (2, 3) for parts in ("c5", "empty")]
        seen = set()
        for i, (g, r) in enumerate(hosts):
            for size in range(1, 2 * r + 1):
                for start in range(0, g.n, 3):
                    d = _greedy_clique(g, size, start)
                    if d is None:
                        continue
                    outside = sum(1 << v for v in range(g.n) if v % 3 != i % 3)
                    for within in (None, outside | sum(1 << v for v in d)):
                        for alpha_bound in (0.0, 2.0):
                            args = (g, d, r, 0.3, alpha_bound)
                            kw = {"within": within, "degree_threshold": 0.0}
                            got = rotate_clique(*args, **kw)
                            assert got == list_bucket_rotation(*args, **kw), (i, d, within)
                            seen.add(got.kind if isinstance(got, HypothesisViolation) else
                                     "swap" if set(d) - set(got) else "common")
        assert seen == {"common", "swap", "large-independent-set", "clique-extension-failure"}


def list_bucket_rotation(g, clique, r, eps, alpha_bound, *, within=None, degree_threshold=None):
    """The rotation with one ascending vertex list per bucket, scanned
    pair by pair: the reference for the bitmask buckets. It takes a clique
    inside ``within`` and a zero degree threshold, so no check fails, and
    shares no code with the search."""
    assert degree_threshold == 0.0 and is_clique(g, clique)
    mask = (1 << g.n) - 1 if within is None else within
    d = tuple(sorted(set(clique)))
    within_t = None if within is None else tuple(bits(mask))
    common = [w for w in bits(mask) if w not in d and all(g.has_edge(w, v) for v in d)]
    if common:
        return tuple(sorted(d + (common[0],)))
    dmask = sum(1 << v for v in d)
    buckets = {v: [] for v in d}
    for w in bits(mask & ~dmask):
        row = g.neighbor_mask(w) & dmask
        if row.bit_count() == len(d) - 1:
            buckets[(dmask & ~row).bit_length() - 1].append(w)
    for v in d:
        group = buckets[v]
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                if g.has_edge(x, y):
                    return tuple(sorted(set(d) - {v} | {x, y}))
    best = d[0]
    for v in d[1:]:
        if len(buckets[v]) > len(buckets[best]):
            best = v
    witness = tuple(buckets[best])
    if len(witness) <= alpha_bound:
        return HypothesisViolation("clique-extension-failure", d, 0, 1.0, within_t)
    return HypothesisViolation("large-independent-set", witness, len(witness), alpha_bound)


def _greedy_clique(g, size, start=0):
    clique: list[int] = []
    for v in (*range(start, g.n), *range(start)):
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
            if len(clique) == size:
                return tuple(clique)
    return None


class TestFanAtVertexR1:
    """find_odd_fan at r = 1: find_fan's triangle fan, or else the
    leftovers of a maximum matching of the densest neighbourhood."""

    def test_wheel(self):
        emb, _ = find_odd_fan(wheel4(), 2, 1, 0.2)
        assert isinstance(emb, FanEmbedding)
        assert emb.center == 0
        assert verify_fan(wheel4(), emb, FanShape(2, 3)) is None

    def test_star_reports_leaf_independent_set(self):
        out, _ = find_odd_fan(star(99), 1, 1, 0.2)
        leaves = tuple(range(1, 100))
        assert out == HypothesisViolation("large-independent-set", leaves, 99, 0.2 * 100)

    def test_petersen_is_triangle_free(self):
        g = petersen()
        out, _ = find_odd_fan(g, 1, 1, 0.2)
        assert out == HypothesisViolation("large-independent-set", (1, 4, 5), 3, 0.2 * 10)
        assert all(is_independent(g, g.neighbors(x)) for x in range(g.n))

    def test_uncovered_edge_in_the_report_raises(self, monkeypatch):
        # A matching that is not maximal leaves an edge of N(x) uncovered.
        monkeypatch.setattr(finder, "max_matching", lambda g, within: ())
        hub = Graph(6, list(cycle(5).edges()) + [(v, 5) for v in range(5)])
        with pytest.raises(SearchInvariantError, match=r"N\(5\) leaves an edge uncovered"):
            find_odd_fan(hub, 3, 1, 0.1)

    def test_edge_deficiency_matches_no_neighbourhood(self, monkeypatch):
        def unused(g, within):
            raise AssertionError("the edge-deficiency outcome needs no matching")

        monkeypatch.setattr(finder, "max_matching", unused)
        for g, k in ((wheel4(), 3), (complete(5), 3), (cycle(30), 1), (Graph(0, []), 1)):
            out, _ = find_odd_fan(g, k, 1, 0.2)
            assert out.kind == "edge-deficiency" and check_violation(g, out)

    @staticmethod
    def pass_hosts():
        """Hosts on which the scan starts its count pass, with their k.
        K_{40,40} on sides {0..39} and {40..79} plus an m-matching in the
        first side: centre 40 is the first with m disjoint edges, and
        t(40) = 2m exactly. With sides {0, 1, 4..41} and {2, 3, 42..79}
        and two matching edges in the first, the pass starts after
        centre 1 and the fan is at centre 2."""
        bipartite = [(u, v) for u in range(40) for v in range(40, 80)]
        hosts = [(Graph(80, bipartite + [(2 * i, 2 * i + 1) for i in range(m)]), (1, 2, m, m + 1))
                 for m in (1, 2, 3)]
        side = [0, 1, *range(4, 42)]
        early = [(u, v) for u in side for v in range(80) if v not in side] + [(4, 5), (6, 7)]
        hosts.append((Graph(80, early), (1, 2, 3)))
        hosts += [(triangle_free_process(120, s), (1, 2, 3)) for s in (5, 6)]
        return hosts + [(gnp_random(400, 0.01, 93_001), (1, 2))]

    def test_screen_matches_the_matching_scan(self):
        # Reference: a maximum matching of every neighbourhood, in order,
        # then of the densest one if its leftovers can beat eps n.
        def reference(g, k, eps):
            spent = 0  # neighbours walked by the rejected centres of degree >= 2k
            for x in range(g.n):
                sub, mapping = induced_subgraph(g, g.neighbors(x))
                back = {i: v for v, i in mapping.items()}
                mm = max_matching(sub)
                d, greedy = g.degree(x), 0
                free = set(g.neighbors(x))
                for v in g.neighbors(x):
                    u = min((u for u in free if u != v and g.has_edge(u, v)), default=None)
                    if v in free and u is not None:
                        free -= {u, v}
                        greedy += 1
                non_isolated = sum(1 for v in range(sub.n) if sub.degree(v))
                if d < 2 * k:
                    hit.add("d < 2k")
                elif spent >= g.n and non_isolated < 2 * k:
                    hit.add("t < 2k")
                elif 2 * greedy < k:
                    hit.add("2g < k")
                else:
                    hit.add("full, nu >= k" if len(mm) >= k else "full, nu < k")
                if len(mm) >= k:
                    blades = sorted(tuple(sorted((back[a], back[b]))) for a, b in mm)
                    return FanEmbedding(x, tuple(blades[:k]))
                spent += d if d >= 2 * k else 0
            bound = eps * g.n + 2 * (k - 1)
            x = min(range(g.n), key=lambda v: (-g.degree(v), v), default=None)
            if x is None or g.degree(x) <= bound:
                outcomes.add("edge-deficiency")
                return HypothesisViolation("edge-deficiency", (), g.size, bound * g.n / 2.0)
            sub, mapping = induced_subgraph(g, g.neighbors(x))
            back = {i: v for v, i in mapping.items()}
            matched = {back[i] for e in max_matching(sub) for i in e}
            left = tuple(sorted(set(mapping) - matched))
            outcomes.add("large-independent-set")
            return HypothesisViolation("large-independent-set", left, len(left), eps * g.n)

        hosts = [gnp_random(4 + s % 20, (0.2, 0.4, 0.6, 0.8)[s % 4], 91_000 + s) for s in range(60)]
        for a in (4, 6, 9):
            bipartite = [(u, v) for u in range(a) for v in range(a, 2 * a)]
            for m in range(a // 2 + 1):
                hosts.append(Graph(2 * a, bipartite + [(2 * i, 2 * i + 1) for i in range(m)]))
        cases = [(g, range(1, max(map(g.degree, range(g.n)), default=0) // 2 + 2)) for g in hosts]
        hit: set[str] = set()
        outcomes: set[str] = set()
        for g, ks in cases + self.pass_hosts():
            for k in ks:
                want = reference(g, k, 0.01)
                assert find_odd_fan(g, k, 1, 0.01)[0] == want
                assert find_fan(g, FanShape(k, 3)) == (want if isinstance(want, FanEmbedding) else None)
        assert hit == {"d < 2k", "t < 2k", "2g < k", "full, nu < k", "full, nu >= k"}
        assert outcomes == {"edge-deficiency", "large-independent-set"}

    def test_count_pass_runs_only_past_a_rejected_centre(self, monkeypatch):
        counted = witness.triangle_counts
        passes: list[int] = []

        def counting(g, first, least):
            passes.append(0)
            assert least == 2 * k
            for x, t in counted(g, first, least):
                assert g.degree(x) >= least
                passes[-1] += 1
                yield x, t

        monkeypatch.setattr(witness, "triangle_counts", counting)
        for g, ks in self.pass_hosts():
            k = ks[-1]  # the first centre fails
            passes.clear()
            find_fan(g, FanShape(k, 3))
            assert len(passes) == 1 and passes[0] > 0
        # The first centre succeeds; no centre has degree 2k.
        for g, k in ((wheel4(), 2), (complete(8), 3), (turan_graph(80, 2), 21), (petersen(), 2)):
            passes.clear()
            find_fan(g, FanShape(k, 3))
            assert passes == []

    def test_degree_bound_from_report(self):
        # Wherever no fan exists, d(x) <= alpha(N(x)) + 2 (k - 1).
        for seed in range(60):
            g = gnp_random(24, 0.12, 61_000 + seed)
            k = 1 + seed % 3
            if find_fan(g, FanShape(k, 3)) is not None:
                continue
            for x in range(g.n):
                sub, _ = induced_subgraph(g, g.neighbors(x))
                alpha = len(max_independent_set(sub))
                assert g.degree(x) <= alpha + 2 * (k - 1)

    @staticmethod
    def agrees_with_find_fan(g, k):
        a, _ = find_odd_fan(g, k, 1, 0.2)
        b = find_fan(g, FanShape(k, 3))
        if isinstance(a, FanEmbedding):
            assert a == b
        else:
            assert b is None and check_violation(g, a)

    def test_agrees_with_find_fan_exhaustively(self):
        for n in range(5):
            for code in range(1 << pair_count(n)):
                for k in (1, 2):
                    self.agrees_with_find_fan(graph_from_code(n, code), k)

    def test_agrees_with_find_fan_on_samples(self):
        for seed in range(150):
            g = gnp_random(6 + seed % 4, (0.25, 0.5, 0.75)[seed % 3], 71_000 + seed)
            for k in (1, 2, 3):
                self.agrees_with_find_fan(g, k)


class TestThresholds:
    def test_delta_value(self):
        th = search_thresholds(100, 2, 2, 0.2)
        assert th["delta"] == pytest.approx(math.sqrt(2) / 10 * 0.04)
        assert th["delta"] == pytest.approx(0.005656854249, abs=1e-9)

    def test_deletion_bound(self):
        assert search_thresholds(100, 2, 2, 0.2)["deletion_bound"] == 15

    def test_boundary_eps_rejected(self):
        with pytest.raises(ValueError):
            search_thresholds(10, 1, 2, 0.0)

    def test_peel_degree_exceeds_clique_step_needs(self):
        for r in (2, 3, 4):
            for eps in (0.1, 0.2, 0.3):
                th = search_thresholds(50, 2, r, eps)
                assert th["peel_degree_coef"] >= th["degree_coef"]
                assert th["peel_c"] < math.sqrt(th["peel_beta"] * th["peel_eps"])

    def test_keys_in_the_documented_certificate_order(self):
        keys = ["delta", "edge_threshold", "degree_coef", "deletion_bound", "alpha_bound",
                "peel_beta", "peel_eps", "peel_c", "peel_degree_coef"]
        for r in (1, 2, 3):
            th = search_thresholds(30, 2, r, 0.2)
            assert list(th) == keys
            peel = [th[key] for key in keys if key.startswith("peel_")]
            assert all(v is None for v in peel) if r == 1 else None not in peel

    def test_edge_threshold_matches_peel_hypothesis(self):
        th = search_thresholds(40, 2, 3, 0.2)
        assert th["edge_threshold"] == pytest.approx(
            th["peel_beta"] * (1 + th["peel_eps"]) * 40 * 40
        )


class TestFindOddFan:
    def test_turan_positive(self):
        g = turan_graph(25, 5)
        out, cert = find_odd_fan(g, 2, 2, 0.2)
        assert isinstance(out, FanEmbedding)
        assert verify_fan(g, out, FanShape(2, 5)) is None
        assert replay_certificate(g, cert)
        augments = sum(1 for s in cert.steps if s["kind"] == "augment")
        assert augments <= 2 ** 3

    def test_turan_negative(self):
        g = turan_graph(20, 4)
        out, cert = find_odd_fan(g, 1, 2, 0.2)
        assert isinstance(out, HypothesisViolation)
        assert check_violation(g, out)
        assert cert.outcome["type"] == "violation"
        assert replay_certificate(g, cert)

    def test_complete_host_is_tight(self):
        g = complete(9)
        out, _ = find_odd_fan(g, 2, 2, 0.2)
        assert isinstance(out, FanEmbedding)
        assert verify_fan(g, out, FanShape(2, 5)) is None

    def test_tuple_sequence_strictly_increases(self):
        g = turan_graph(49, 7)
        out, cert = find_odd_fan(g, 3, 3, 0.2)
        assert isinstance(out, FanEmbedding)
        tuples = [tuple(s["tuple_before"]) for s in cert.steps if s["kind"] == "augment"]
        tuples.append(tuple(cert.steps[-1]["tuple_after"])
                      if cert.steps[-1]["kind"] == "augment" else None)
        seq = [t for t in tuples if t is not None]
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_r1_delegates_to_triangle_scan(self):
        out, cert = find_odd_fan(wheel4(), 2, 1, 0.2)
        assert isinstance(out, FanEmbedding)
        assert cert.steps[0]["kind"] == "r1-scan"

    def test_r1_violation_checks(self):
        g = star(60)
        out, _ = find_odd_fan(g, 1, 1, 0.2)
        assert isinstance(out, HypothesisViolation)
        assert check_violation(g, out)

    def test_r1_sparse_graph_is_edge_deficient(self):
        g = cycle(30)
        out, _ = find_odd_fan(g, 1, 1, 0.2)
        assert isinstance(out, HypothesisViolation)
        assert out.kind == "edge-deficiency"
        assert check_violation(g, out)

    def test_every_violation_on_random_hosts_checks(self):
        for seed in range(40):
            g = gnp_random(30, (0.2, 0.5, 0.8)[seed % 3], 81_000 + seed)
            out, cert = find_odd_fan(g, 2, 2, 0.2)
            if isinstance(out, HypothesisViolation):
                assert check_violation(g, out)
            else:
                assert verify_fan(g, out, FanShape(2, 5)) is None
            assert replay_certificate(g, cert)

    def test_extension_never_fails_inside_the_search(self):
        # extend_clique's docstring: with the derived degree bound some
        # pool vertex always extends the base, so every extension failure
        # comes from a rotation, whose clique has more than r vertices.
        rng = random.Random(22_000)
        rotation_failures = 0
        for _ in range(1000):
            n, r, k = rng.randint(10, 60), rng.choice((2, 3)), rng.randint(1, 4)
            eps = rng.uniform(0.01, 0.9 * (r - 1) / r)
            g = gnp_random(n, rng.uniform(0.4, 0.98), rng.randrange(1 << 30))
            out, _ = find_odd_fan(g, k, r, eps)
            if isinstance(out, HypothesisViolation) and out.kind == "clique-extension-failure":
                assert len(out.vertices) > r, (n, r, k, eps)
                rotation_failures += 1
        assert rotation_failures

    def test_lower_bound_construction_never_yields_fan(self):
        g = rt_lower_construction(30, 2, "c5")
        out, _ = find_odd_fan(g, 1, 2, 0.2)
        assert isinstance(out, HypothesisViolation)
        assert check_violation(g, out)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="k >= 1, r >= 1"):
            find_odd_fan(complete(5), 0, 2, 0.2)
        with pytest.raises(ValueError, match="k >= 1, r >= 1"):
            find_odd_fan(complete(5), 1, 0, 0.2)
        with pytest.raises(ValueError):
            find_odd_fan(complete(5), 1, 2, 0.7)  # peel slack would leave (0, 1)


# Found by flipping edges of a G(22, 0.75) draw: base vertex 6 gets a blade,
# is swapped out by a rotation, is extended again and stays in the base, so
# a stale blade mask on it would shrink the next pass's pool. No G(n, p)
# draw of the grid below drops a base vertex that holds a blade and
# extends it again. Run at k = 3, r = 2, eps = 0.1.
REEXTENDED_HOST = graph_from_code(22, 0x57B7FF972B7EDEDBD5EED27D5B67A3EA6D356AECEECC5257301CCEFEB8)


def rebuilt_pool_search(g: Graph, k: int, r: int, eps: float):
    """The r >= 2 search with the pool rebuilt from every blade on each
    pass, through the public clique steps: the reference for the blade
    masks the search keeps. Returns its certificate and how many times it
    extended a vertex that had left the base holding a blade."""
    th = search_thresholds(g.n, k, r, eps)
    cert = finder.SearchCertificate({"n": g.n, "edges": g.size, "k": k, "r": r, "eps": eps},
                                    th, [], {})
    peeled = peel_dense_subgraph(g, th["peel_beta"], th["peel_eps"], th["peel_c"])
    if isinstance(peeled, HypothesisViolation):
        return finder._finish_violation(cert, peeled)[1], 0
    cert.steps.append({"kind": "peel", "survivors": list(peeled)})
    core = sum(1 << v for v in peeled)
    base, blades, left_holding, again = [], {}, set(), 0
    for _ in range(k ** (r + 1) + 1):
        free = core & ~sum(1 << v for lst in blades.values() for b in lst for v in b)
        while len(base) < r + 1:
            res = extend_clique(g, base, r, eps, within=free)
            if isinstance(res, HypothesisViolation):
                return finder._finish_violation(cert, res)[1], again
            again += res in left_holding
            base.append(res)
            blades[res] = []
            cert.steps.append({"kind": "extend", "added": res, "clique": sorted(base)})
        order = sorted(base, key=lambda v: (-len(blades[v]), v))
        ks = tuple(len(blades[v]) for v in order)
        rotated = tuple(sorted(base))
        for _ in range(r):
            res = rotate_clique(g, rotated, r, eps, th["alpha_bound"], within=free)
            if isinstance(res, HypothesisViolation):
                return finder._finish_violation(cert, res)[1], again
            cert.steps.append({"kind": "rotate", "from": list(rotated), "to": list(res)})
            rotated = res
        v_s = next(v for v in order if v in rotated)
        s = order.index(v_s) + 1
        new_blade = tuple(v for v in rotated if v != v_s)
        left_holding |= {v for v in order[s:] if blades[v]}
        base = order[:s]
        blades = {v: blades[v] for v in base}
        blades[v_s].append(new_blade)
        after = sorted((len(blades[v]) for v in base), reverse=True)
        after += [0] * (r + 1 - len(after))
        cert.steps.append({"kind": "augment", "s": s, "center": v_s, "blade": list(new_blade),
                           "tuple_before": list(ks), "tuple_after": after})
        if len(blades[v_s]) >= k:
            cert.outcome = finder._embedding_dict(FanEmbedding(v_s, tuple(blades[v_s])))
            return cert, again
    raise AssertionError("the augmentation loop ran past its cap")


class TestKeptBladeMasks:
    def test_certificates_match_the_pool_rebuilt_from_every_blade(self):
        rng = random.Random(33_300)
        hosts = [(REEXTENDED_HOST, 3, 2, 0.1)]
        for _ in range(300):
            n, r, k = rng.randint(8, 60), rng.choice((2, 3)), rng.randint(1, 3)
            g = gnp_random(n, rng.uniform(0.6, 0.98), rng.randrange(1 << 30))
            hosts.append((g, k, r, rng.choice((0.2, 0.3))))
        outcomes, again = set(), []
        for g, k, r, eps in hosts:
            want, times = rebuilt_pool_search(g, k, r, eps)
            _, got = find_odd_fan(g, k, r, eps)
            assert certificate_to_json(got) == certificate_to_json(want), (g.n, k, r, eps)
            outcomes.add(want.outcome.get("kind", "embedding"))
            again.append(times)
        assert again[0] == 1
        assert outcomes == {"embedding", "edge-deficiency", "low-degree-vertex",
                            "large-independent-set", "clique-extension-failure"}


class TestVerifyCertificate:
    def test_accepts_embeddings_and_violations(self):
        for g, k in ((turan_graph(25, 5), 2), (turan_graph(20, 4), 1)):
            _, cert = find_odd_fan(g, k, 2, 0.2)
            assert verify_certificate(g, cert) is None

    def test_reports_a_replay_divergence(self):
        g = turan_graph(25, 5)
        _, cert = find_odd_fan(g, 2, 2, 0.2)
        moved = replace(cert, outcome={**cert.outcome, "center": 1 - cert.outcome["center"]})
        assert verify_certificate(g, moved) == "replay diverges from the certificate"

    def test_reports_a_checker_rejection(self, monkeypatch):
        # The faulty rotation replays, so only the checker can reject it.
        monkeypatch.setattr(finder, "_step_kernel", empty_witness_rotation(finder._step_kernel))
        g = gnp_random(19, 0.95, 9_000_071)
        _, cert = find_odd_fan(g, 3, 3, 0.3)
        assert cert.outcome["vertices"] == []
        assert verify_certificate(g, cert) == "large-independent-set witness fails its check"
