import re
from itertools import accumulate, combinations, product

import numpy as np
import pytest

from cliquefan.generators import (
    PART_CATALOG,
    FanShape,
    TupleShape,
    catalogued_alpha,
    fan_graph,
    generalized_fan,
    gnp_random,
    part_sizes,
    rt_lower_construction,
    triangle_free_process,
    turan_graph,
)
from cliquefan.graphs import Graph, is_clique
from cliquefan.invariants import max_independent_set, max_matching
from cliquefan.witness import GeneralizedFanEmbedding, find_fan, verify_generalized_fan
from util import brute_alpha, complete, cycle, induced_subgraph, min_code


class TestShapes:
    def test_fan_shape_validation(self):
        with pytest.raises(ValueError):
            FanShape(0, 3)
        with pytest.raises(ValueError):
            FanShape(1, 1)

    def test_tuple_shape_validation(self):
        with pytest.raises(ValueError):
            TupleShape((), 2)
        with pytest.raises(ValueError):
            TupleShape((1, 2), 2)  # increasing
        with pytest.raises(ValueError):
            TupleShape((1, 0), 0)


class TestTuran:
    def test_two_parts_of_four_is_c4(self):
        assert turan_graph(4, 2) == Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
        assert turan_graph(4, 2).size == 4

    def test_octahedron_edge_count(self):
        assert turan_graph(6, 3).size == 12

    def test_bipartite_odd(self):
        assert turan_graph(7, 2).size == 12  # floor(49 / 4)

    def test_closed_form_matches_part_products(self):
        for n in range(0, 30):
            for r in range(1, 7):
                g = turan_graph(n, r)
                sizes = [len([v for v in range(n) if v % r == p]) for p in range(r)]
                cross = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
                assert g.size == cross
                assert g.size == int((1 - 1 / r) * n * n / 2 + 1e-9)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError):
            turan_graph(5, 0)


class TestFanGraph:
    def test_single_triangle(self):
        g, center = fan_graph(FanShape(1, 3))
        assert center == 0 and g == complete(3)

    def test_two_triangles(self):
        g, _ = fan_graph(FanShape(2, 3))
        assert g.n == 5 and g.size == 6

    def test_two_k5(self):
        g, _ = fan_graph(FanShape(2, 5))
        assert g.n == 9 and g.size == 20

    def test_exactly_k_cliques_through_center(self):
        for k in (1, 2, 3):
            for r in (3, 4):
                g, center = fan_graph(FanShape(k, r))
                through = sum(
                    1
                    for vs in combinations(range(1, g.n), r - 1)
                    if is_clique(g, vs + (center,))
                )
                assert through == k

    def test_center_neighborhood_matching_counts_blades(self):
        for k in (1, 2, 4):
            g, center = fan_graph(FanShape(k, 3))
            sub, _ = induced_subgraph(g, g.neighbors(center))
            assert len(max_matching(sub)) == k


class TestGeneralizedFan:
    def test_all_zero_counts_is_base_clique(self):
        g, base = generalized_fan(TupleShape((0, 0, 0), 2))
        assert g == complete(3) and base == (0, 1, 2)

    def test_single_blade_r1_is_triangle(self):
        g, base = generalized_fan(TupleShape((1,), 1))
        assert g == complete(3) and base == (0,)

    def test_vertex_count_formula(self):
        shape = TupleShape((2, 1), 2)
        g, base = generalized_fan(shape)
        assert g.n == shape.vertex_count == 14

    def test_generator_output_verifies(self):
        shape = TupleShape((2, 1, 0), 2)
        g, base = generalized_fan(shape)
        blades: list[tuple[tuple[int, ...], ...]] = []
        nxt = len(base)
        for count in shape.ks:
            mine = []
            for _ in range(count):
                mine.append(tuple(range(nxt, nxt + 2 * shape.r)))
                nxt += 2 * shape.r
            blades.append(tuple(mine))
        emb = GeneralizedFanEmbedding(base, tuple(blades))
        assert verify_generalized_fan(g, emb, shape.r) is None
        assert tuple(sorted(map(len, emb.blades_by_center), reverse=True)) == shape.ks


class TestLowerBoundConstruction:
    def test_ten_vertices_two_parts(self):
        g = rt_lower_construction(10, 2, "c5")
        assert g.size == 35  # 25 between + 2 * 5 inside
        assert find_fan(g, FanShape(1, 5)) is None
        assert len(max_independent_set(g)) == 2

    def test_c13_parts(self):
        g = rt_lower_construction(26, 2, "c13-power")
        assert find_fan(g, FanShape(1, 5)) is None
        # An independent set cannot cross the complete join, so it lives
        # inside one part and matches the catalogued value.
        assert len(max_independent_set(g)) == catalogued_alpha("c13-power", 13) == 4

    def test_degenerate_empty_parts(self):
        g = rt_lower_construction(4, 2, "empty")
        assert min_code(g) == min_code(cycle(4))

    def test_multiple_copies_per_part(self):
        g = rt_lower_construction(20, 2, "c5")
        assert find_fan(g, FanShape(1, 5)) is None
        assert len(max_independent_set(g)) == catalogued_alpha("c5", 10) == 4

    def test_incompatible_part_size(self):
        with pytest.raises(ValueError, match="incompatible"):
            rt_lower_construction(11, 2, "c5")

    def test_unknown_catalog_key(self):
        with pytest.raises(ValueError, match="unknown"):
            rt_lower_construction(10, 2, "moebius")

    def test_c13_atom_is_triangle_free_with_alpha_4(self):
        atom = rt_lower_construction(26, 2, "c13-power")
        part, _ = induced_subgraph(atom, range(13))
        assert find_fan(part, FanShape(1, 3)) is None
        assert brute_alpha(part) == 4

    def test_triangle_free_process_parts(self):
        g = rt_lower_construction(14, 2, "tf-process:5")
        assert find_fan(g, FanShape(1, 5)) is None
        assert g == rt_lower_construction(14, 2, "tf-process:5")

    def test_part_sizes_balanced(self):
        assert part_sizes(10, 3) == [4, 3, 3]
        assert part_sizes(9, 3) == [3, 3, 3]

    def test_masks_match_the_edge_list_construction(self):
        # The construction as it was when it listed every cross-part pair.
        def edge_list(n, r, part_key):
            if r < 2:
                raise ValueError("need at least two parts")
            sizes = part_sizes(n, r)
            edges = []
            starts = list(accumulate(sizes[:-1], initial=0))
            for part, other in combinations([range(a, a + s) for a, s in zip(starts, sizes)], 2):
                edges += product(part, other)
            for idx, (off, s) in enumerate(zip(starts, sizes)):
                if part_key.startswith("tf-process:"):
                    sample = triangle_free_process(s, int(part_key.split(":", 1)[1]) + idx)
                    edges.extend((off + u, off + v) for u, v in sample.edges())
                    continue
                if part_key not in PART_CATALOG:
                    raise ValueError(f"unknown part graph {part_key!r}")
                catalogued_alpha(part_key, s)
                atom = PART_CATALOG[part_key]
                for copy in range(s // atom["order"]):
                    base = off + copy * atom["order"]
                    edges.extend((base + u, base + v) for u, v in atom["edges"])
            return Graph(n, edges)

        cases = [(0, 2, "empty"), (4, 2, "empty"), (7, 3, "empty"), (10, 2, "c5"), (60, 3, "c5"),
                 (26, 2, "c13-power"), (156, 3, "c13-power"), (14, 2, "tf-process:5"),
                 (41, 4, "tf-process:2"), (100, 2, "tf-process:1"),
                 # the errors, each where the edge-list version raised it first
                 (10, 1, "c5"), (10, 1, "moebius"), (10, 2, "moebius"), (11, 2, "c5"),
                 (12, 2, "c13-power"), (-5, 2, "c5"), (-5, 2, "empty"), (-5, 2, "tf-process:3")]
        for case in cases:
            try:
                want = edge_list(*case)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    rt_lower_construction(*case)
                continue
            g = rt_lower_construction(*case)
            assert g._adj == want._adj and g.size == want.size, case


class TestGnpRandom:
    def test_extreme_probabilities(self):
        assert gnp_random(8, 0.0, 3).size == 0
        assert gnp_random(8, 1.0, 3) == complete(8)

    def test_seed_reproducibility(self):
        assert gnp_random(20, 0.5, 42) == gnp_random(20, 0.5, 42)
        assert gnp_random(20, 0.5, 42) != gnp_random(20, 0.5, 43)

    def test_frozen_regression_value(self):
        # Reference-run freeze; a drift here means the sampling procedure
        # or the generator stream changed.
        assert gnp_random(20, 0.5, 42).size == 98

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            gnp_random(5, 1.5, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 128, 129, 182])
    def test_chunked_draws_match_the_per_row_draws(self, n):
        # The sampler as it was when it drew one row of the upper triangle
        # at a time; n = 129 and 182 put 8,192 and 16,384 draws mid-row.
        def per_row(n, p, seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n - 1):
                adj[i, i + 1:] = rng.random(n - 1 - i) < p
            adj |= adj.T
            masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in adj]
            return masks, int(adj.sum()) // 2

        for p in (0.0, 0.3, 1.0):
            for seed in (0, 2**32 - 1):
                g = gnp_random(n, p, seed)
                assert (list(g._adj), g.size) == per_row(n, p, seed)


def test_triangle_free_process_is_triangle_free():
    for seed in (0, 1, 7):
        g = triangle_free_process(16, seed)
        assert find_fan(g, FanShape(1, 3)) is None
        assert g == triangle_free_process(16, seed)


def test_triangle_free_process_matches_the_pair_list_reference():
    # The process once walked a Python list of all pairs; the graph must
    # be the same bit for bit.
    def reference(n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        adj = [0] * n
        for idx in rng.permutation(len(pairs)):
            u, v = pairs[idx]
            if not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return adj

    for n in (0, 1, 2, 3, 7, 40, 257, 300):
        for seed in (0, 5, 2**32 - 1):
            g = triangle_free_process(n, seed)
            assert g._adj == tuple(reference(n, seed))
            assert g.size == sum(m.bit_count() for m in g._adj) // 2
