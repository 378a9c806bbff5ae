import random

import pytest

from cliquefan.generators import gnp_random
from cliquefan.graphs import Graph, is_independent
from cliquefan.invariants import (
    BudgetExceeded,
    Matching,
    greedy_independent_from_matching,
    max_independent_set,
    max_matching,
)
from cliquefan.oracle import brute_alpha, brute_nu, graph_from_code, pair_count
from util import complete, cycle, petersen, star


class TestMaxMatching:
    def test_odd_cycle(self):
        assert len(max_matching(cycle(5))) == 2

    def test_perfect_on_k4(self):
        mm = max_matching(complete(4))
        assert len(mm) == 2
        assert mm.covered() == (0, 1, 2, 3)

    def test_petersen_perfect(self):
        assert len(max_matching(petersen())) == 5

    def test_deterministic(self):
        g = gnp_random(30, 0.2, 9)
        assert max_matching(g) == max_matching(g)

    def test_matches_brute_force_exhaustively(self):
        # Every graph on up to 5 vertices.
        for n in range(6):
            for code in range(1 << pair_count(n)):
                g = graph_from_code(n, code)
                assert len(max_matching(g)) == brute_nu(g), f"n={n} code={code}"

    def test_matches_brute_force_on_samples(self):
        for seed in range(300):
            n = 6 + seed % 3
            g = gnp_random(n, (0.2, 0.5, 0.8)[seed % 3], 7000 + seed)
            assert len(max_matching(g)) == brute_nu(g), f"seed={seed}"

    def test_isolated_vertices_match_brute_force(self):
        for seed in range(120):
            core = gnp_random(6 + seed % 3, (0.3, 0.6)[seed % 2], 7500 + seed)
            # Spread core vertices over a larger order, leaving the rest isolated.
            n = core.n + 1 + seed % 4
            place = sorted(random.Random(seed).sample(range(n), core.n))
            g = Graph(n, [(place[u], place[v]) for u, v in core.edges()])
            mm = max_matching(g)
            assert len(mm) == brute_nu(g), f"seed={seed}"
            assert set(mm.covered()) <= set(place)

    def test_dense_graphs_match_brute_force(self):
        # Dense neighbourhoods lean hardest on the greedy warm start.
        for seed in range(150):
            g = gnp_random(7 + seed % 4, (0.7, 0.85, 0.95)[seed % 3], 7700 + seed)
            assert len(max_matching(g)) == brute_nu(g), f"seed={seed}"

    def test_output_is_a_matching(self):
        for seed in range(50):
            g = gnp_random(12, 0.5, 500 + seed)
            mm = max_matching(g)
            assert all(g.has_edge(u, v) for u, v in mm.edges)
            covered = mm.covered()
            assert len(covered) == len(set(covered))


class TestMaxIndependentSet:
    def test_odd_cycle(self):
        assert len(max_independent_set(cycle(5))) == 2

    def test_complete(self):
        assert len(max_independent_set(complete(7))) == 1

    def test_petersen(self):
        # Exhaustive enumeration over all 2^10 subsets agrees.
        assert brute_alpha(petersen()) == 4
        assert len(max_independent_set(petersen())) == 4

    def test_matches_brute_force_exhaustively(self):
        for n in range(6):
            for code in range(1 << pair_count(n)):
                g = graph_from_code(n, code)
                assert len(max_independent_set(g)) == brute_alpha(g)

    def test_matches_brute_force_on_samples(self):
        for seed in range(200):
            n = 6 + seed % 5
            g = gnp_random(n, (0.2, 0.5, 0.8)[seed % 3], 9000 + seed)
            assert len(max_independent_set(g)) == brute_alpha(g)

    def test_witness_is_independent_and_maximal(self):
        for seed in range(50):
            g = gnp_random(10, 0.4, 750 + seed)
            ind = max_independent_set(g)
            assert is_independent(g, ind.members)
            assert len(ind) == brute_alpha(g)

    def test_ceiling_guard(self):
        g = gnp_random(80, 0.1, 1)
        with pytest.raises(ValueError, match="ceiling"):
            max_independent_set(g)

    def test_budget_exceeded_carries_lower_bound(self):
        g = gnp_random(40, 0.3, 2)
        with pytest.raises(BudgetExceeded) as info:
            max_independent_set(g, budget=5)
        assert is_independent(g, info.value.best.members)
        assert len(info.value.best) >= 1

    def test_deterministic(self):
        g = gnp_random(25, 0.3, 11)
        assert max_independent_set(g) == max_independent_set(g)


class TestMatchingIndependenceInequality:
    def test_alpha_at_least_n_minus_two_nu(self):
        # The leftover bound holds exactly on 1000 seeded graphs.
        for seed in range(1000):
            n = 1 + seed % 12
            g = gnp_random(n, (0.15, 0.35, 0.6, 0.85)[seed % 4], 30_000 + seed)
            alpha = len(max_independent_set(g))
            nu = len(max_matching(g))
            assert alpha >= g.n - 2 * nu, f"seed={seed}"


class TestGreedyIndependentFromMatching:
    def test_odd_cycle_leftover(self):
        g = cycle(5)
        ind = greedy_independent_from_matching(g, max_matching(g))
        assert len(ind) == 1
        assert is_independent(g, ind.members)

    def test_perfect_matching_leaves_nothing(self):
        g = complete(4)
        assert greedy_independent_from_matching(g, max_matching(g)).members == ()

    def test_star_leaves_other_leaves(self):
        g = star(5)
        ind = greedy_independent_from_matching(g, Matching(((0, 1),)))
        assert ind.members == (2, 3, 4, 5)

    def test_size_bound(self):
        for seed in range(100):
            g = gnp_random(14, 0.4, 41_000 + seed)
            mm = max_matching(g)
            ind = greedy_independent_from_matching(g, mm)
            assert len(ind) == g.n - 2 * len(mm)

    def test_rejects_non_maximal_matching(self):
        with pytest.raises(ValueError, match="not maximal"):
            greedy_independent_from_matching(cycle(6), Matching(((0, 1),)))

    def test_rejects_foreign_edges(self):
        with pytest.raises(ValueError, match="not an edge"):
            greedy_independent_from_matching(cycle(5), Matching(((0, 2),)))
