import random

import pytest

from cliquefan.generators import gnp_random, rt_lower_construction
from cliquefan.graphs import (
    Graph,
    common_neighbors,
    induced_subgraph,
    is_clique,
    is_independent,
    min_degree,
    vertex_set,
)
from util import complete, cycle, petersen, star


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_degree_sum_is_twice_size(self):
        for seed in range(40):
            g = gnp_random(1 + seed % 13, 0.4, seed)
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.size

    def test_edges_are_sorted_and_complete(self):
        g = petersen()
        es = list(g.edges())
        assert es == sorted(es)
        assert len(es) == g.size == 15


class TestInducedSubgraph:
    def test_clique_is_hereditary(self):
        sub, mapping = induced_subgraph(complete(4), [0, 1, 2])
        assert sub == complete(3)
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_non_adjacent_pair_in_cycle(self):
        sub, _ = induced_subgraph(cycle(5), [0, 2])
        assert sub.n == 2 and sub.size == 0

    def test_petersen_outer_cycle(self):
        sub, mapping = induced_subgraph(petersen(), [0, 1, 2, 3, 4])
        assert sub == cycle(5)
        assert sorted(mapping) == [0, 1, 2, 3, 4]

    def test_full_set_is_identity(self):
        g = petersen()
        sub, mapping = induced_subgraph(g, range(10))
        assert sub == g
        assert all(mapping[v] == v for v in range(10))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(complete(3), [0, 5])


def loop_induced_subgraph(g, vertices):
    """The pairwise double loop the bit extract replaced, kept as reference."""
    vs = vertex_set(g, vertices)
    masks, size = [], 0
    for v in vs:
        row, m = g.neighbor_mask(v), 0
        for j, u in enumerate(vs):
            if (row >> u) & 1:
                m |= 1 << j
        masks.append(m)
        size += m.bit_count()
    return tuple(masks), size // 2, {v: i for i, v in enumerate(vs)}


class TestInducedSubgraphKernel:
    """The bit extract agrees with the double loop on masks, size and mapping."""

    @staticmethod
    def assert_same(g, vertices):
        sub, mapping = induced_subgraph(g, vertices)
        masks, size, want = loop_induced_subgraph(g, vertices)
        assert (sub._adj, sub.size, mapping) == (masks, size, want), sorted(set(vertices))
        assert sub.n == len(want)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 200, 1000])
    def test_random_subsets(self, n):
        rng = random.Random(n)
        for trial, p in enumerate((0.1, 0.5, 0.9)):
            g = gnp_random(n, p, 31_000 + 10 * n + trial)
            for _ in range(6 if n < 1000 else 2):
                self.assert_same(g, rng.sample(range(n), rng.randint(0, n)))
            self.assert_same(g, range(n))

    def test_unsorted_and_duplicated_input(self):
        g = gnp_random(40, 0.5, 31_500)
        self.assert_same(g, [33, 2, 17, 2, 39, 9, 33, 10])
        assert induced_subgraph(g, [5, 3, 3, 9]) == induced_subgraph(g, [3, 5, 9])

    def test_empty_set_and_singletons(self):
        g = gnp_random(20, 0.6, 31_501)
        self.assert_same(g, [])
        assert induced_subgraph(g, [])[0] == Graph(0)
        for v in range(g.n):
            self.assert_same(g, [v])

    def test_last_vertex_with_ragged_byte(self):
        for n in (13, 66, 203):
            assert n % 8 != 0
            g = gnp_random(n, 0.7, 31_600 + n)
            self.assert_same(g, [n - 1])
            self.assert_same(g, [0, n - 2, n - 1])
            self.assert_same(g, range(n // 2, n))

    def test_window_starting_inside_a_byte(self):
        g = gnp_random(90, 0.5, 31_700)
        for lo in (3, 13, 61):
            assert lo % 8 != 0
            self.assert_same(g, range(lo, lo + 20))
            self.assert_same(g, [lo, lo + 1, 89])


class TestMinDegree:
    def test_complete(self):
        assert min_degree(complete(5)) == (0, 4)

    def test_star_tie_breaks_to_smallest_leaf(self):
        assert min_degree(star(4)) == (1, 1)

    def test_petersen_regular(self):
        assert min_degree(petersen()) == (0, 3)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            min_degree(Graph(0))


class TestCommonNeighbors:
    def test_complete(self):
        assert common_neighbors(complete(5), [0, 1]) == (2, 3, 4)

    def test_cycle_has_no_triangle(self):
        assert common_neighbors(cycle(5), [0, 1]) == ()

    def test_complete_tripartite(self):
        g = rt_lower_construction(9, 3, "empty")  # parts {0,1,2}, {3,4,5}, {6,7,8}
        assert common_neighbors(g, [0, 3]) == (6, 7, 8)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            common_neighbors(complete(3), [])

    def test_result_disjoint_from_input(self):
        for seed in range(30):
            g = gnp_random(8, 0.5, 100 + seed)
            if g.size == 0:
                continue
            u, v = next(g.edges())
            hit = common_neighbors(g, [u, v])
            assert not set(hit) & {u, v}


def test_membership_predicates():
    g = cycle(5)
    assert is_clique(g, [0, 1])
    assert not is_clique(g, [0, 1, 2])
    assert is_independent(g, [0, 2])
    assert not is_independent(g, [0, 1])
