import random
from importlib import resources
from itertools import permutations

import pytest

from cliquefan.generators import FanShape, fan_graph, gnp_random, rt_lower_construction
from cliquefan.graphs import Graph
from cliquefan.oracle import (
    brute_alpha,
    canonical_code,
    edge_code,
    exact_ex,
    exact_rt,
    graph_from_code,
    naive_contains,
    nonisomorphic_graph_codes,
    pair_count,
)
from cliquefan.witness import find_clique, find_fan
from util import complete, cycle, petersen

TRIANGLE = FanShape(1, 3)


class TestNaiveContains:
    def test_complete_contains_cycle(self):
        assert naive_contains(complete(5), cycle(5))

    def test_petersen_has_no_triangle(self):
        assert not naive_contains(petersen(), complete(3))

    def test_lower_bound_construction_avoids_k5(self):
        g = rt_lower_construction(10, 2, "c5")
        pattern, _ = fan_graph(FanShape(1, 5))
        assert not naive_contains(g, pattern)

    def test_oversized_pattern(self):
        assert not naive_contains(complete(3), complete(4))

    def test_agrees_with_clique_search(self):
        for seed in range(60):
            g = gnp_random(8, 0.5, 200 + seed)
            for q in range(2, 6):
                assert (find_clique(g, q) is not None) == naive_contains(g, complete(q))


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        k22 = rt_lower_construction(4, 2, "empty")
        assert canonical_code(k22) == canonical_code(cycle(4))
        assert canonical_code(complete(4)) == (1 << pair_count(4)) - 1

    def test_class_counts(self):
        # Known numbers of unlabeled simple graphs (OEIS A000088).
        for n, want in ((2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)):
            assert len(nonisomorphic_graph_codes(n)) == want

    def test_matches_brute_force_minimum(self):
        def brute(g):
            return min(
                edge_code(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
                for perm in permutations(range(g.n))
            )

        for n in range(2, 7):
            for seed in range(12):
                g = gnp_random(n, (0.3, 0.5, 0.7)[seed % 3], 31_000 + 100 * n + seed)
                assert canonical_code(g) == brute(g), (n, seed)
        for seed in range(3):
            g = gnp_random(7, 0.5, 32_000 + seed)
            assert canonical_code(g) == brute(g), seed

    def test_relabeled_order_eight_graphs_share_a_code(self):
        for seed in range(4):
            g = gnp_random(8, 0.5, 33_000 + seed)
            perm = random.Random(seed).sample(range(8), 8)
            h = Graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
            assert h != g
            assert canonical_code(h) == canonical_code(g)

    def test_codes_are_canonical_and_sorted(self):
        codes = nonisomorphic_graph_codes(4)
        assert list(codes) == sorted(codes)
        for code in codes:
            assert canonical_code(graph_from_code(4, code)) == code


class TestExactEx:
    def test_triangle_free_counts_match_turan(self):
        for n in range(3, 7):
            value, witness = exact_ex(n, TRIANGLE)
            assert value == n * n // 4
            assert witness.size == value
            assert not naive_contains(witness, complete(3))

    def test_tiny_case(self):
        assert exact_ex(3, TRIANGLE)[0] == 2

    def test_iso_filter_matches_full_scan(self):
        for n in range(2, 6):
            for shape in (TRIANGLE, FanShape(2, 3), FanShape(1, 4)):
                assert exact_ex(n, shape) == exact_ex(n, shape, iso_filter=True)
        assert exact_ex(6, TRIANGLE) == exact_ex(6, TRIANGLE, iso_filter=True)

    def test_two_triangle_fan_value_frozen(self):
        # Frozen from the exhaustive reference run over all 2^15 graphs.
        value, witness = exact_ex(6, FanShape(2, 3))
        assert value == 10
        assert edge_code(witness) == 4061

    def test_monotone_in_order(self):
        values = [exact_ex(n, TRIANGLE)[0] for n in range(2, 7)]
        assert values == sorted(values)

    def test_antitone_in_shape_strengthening(self):
        # More blades of the same clique order only relax the constraint.
        for n in (5, 6):
            assert exact_ex(n, TRIANGLE)[0] <= exact_ex(n, FanShape(2, 3))[0]

    def test_ceiling_guard(self):
        with pytest.raises(ValueError, match="ceiling"):
            exact_ex(8, TRIANGLE)

    def test_lower_bound_mode(self):
        value, witness = exact_ex(9, TRIANGLE, lower_bound_only=True, seed=5, restarts=8)
        assert value == witness.size <= 9 * 9 // 4
        assert not naive_contains(witness, complete(3))


class TestExactRt:
    def test_ramsey_r33_infeasible(self):
        assert exact_rt(6, TRIANGLE, 2) is None

    def test_pentagon_is_extremal(self):
        value, witness = exact_rt(5, TRIANGLE, 2)
        assert value == 5
        assert witness.size == 5
        assert brute_alpha(witness) == 2
        assert canonical_code(witness) == canonical_code(cycle(5))

    def test_inactive_cap_reduces_to_ex(self):
        assert exact_rt(4, TRIANGLE, 4)[0] == exact_ex(4, TRIANGLE)[0] == 4
        for n in range(2, 6):
            assert exact_rt(n, TRIANGLE, n)[0] == exact_ex(n, TRIANGLE)[0]

    def test_iso_filter_matches_full_scan(self):
        for n in range(2, 6):
            assert exact_rt(n, TRIANGLE, 2) == exact_rt(n, TRIANGLE, 2, iso_filter=True)


class TestReferenceTable:
    def test_frozen_values_recompute(self):
        text = (
            resources.files("cliquefan").joinpath("data/reference_values.tsv").read_text()
        )
        rows = [line.split("\t") for line in text.strip().splitlines()[1:]]
        assert rows, "reference table is empty"
        for n_s, k_s, r_s, cap_s, value_s, code_s in rows:
            n, shape = int(n_s), FanShape(int(k_s), int(r_s))
            iso = n >= 7
            if cap_s == "-":
                value, witness = exact_ex(n, shape, iso_filter=iso)
                assert value == int(value_s), (n_s, k_s, r_s)
                assert edge_code(witness) == int(code_s)
            else:
                res = exact_rt(n, shape, int(cap_s), iso_filter=iso)
                if value_s == "infeasible":
                    assert res is None
                else:
                    assert res[0] == int(value_s)
                    assert edge_code(res[1]) == int(code_s)


def test_fan_search_agreement_with_oracle():
    patterns = {s: fan_graph(s)[0] for s in (TRIANGLE, FanShape(2, 3), FanShape(1, 5))}
    for seed in range(80):
        g = gnp_random(7, 0.5, 90_000 + seed)
        for shape, pattern in patterns.items():
            assert (find_fan(g, shape) is not None) == naive_contains(g, pattern)
