from importlib import resources
from itertools import permutations

import class_table
import numpy as np
import pytest

from cliquefan import oracle
from cliquefan.generators import FanShape, fan_graph, gnp_random, rt_lower_construction
from cliquefan.oracle import (
    CLASS_TABLE,
    _pair_images,
    _pairs,
    _placements,
    _relabelings,
    edge_code,
    exact_ex,
    exact_rt,
    graph_from_code,
    naive_contains,
    nonisomorphic_graph_codes,
    pair_count,
)
from cliquefan.witness import find_fan
from util import brute_alpha, complete, cycle, gray_class_codes, min_code, petersen

TRIANGLE = FanShape(1, 3)


def per_code_scan(n, shape, cap, iso):
    """exact_rt one graph at a time: (value, witness code) or None.

    Each code is built by graph_from_code and tested by brute_alpha and
    naive_contains, so the raw scan shares no placement table with
    exact_rt.
    """
    pattern, _ = fan_graph(shape)
    best_count, best_code = -1, None
    for code in nonisomorphic_graph_codes(n) if iso else range(1 << pair_count(n)):
        if code.bit_count() <= best_count:
            continue
        g = graph_from_code(n, code)
        if cap is not None and brute_alpha(g) > cap:
            continue
        if not naive_contains(g, pattern):
            best_count, best_code = code.bit_count(), code
    return None if best_code is None else (best_count, best_code)


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
                assert (find_fan(g, FanShape(1, q)) is not None) == naive_contains(g, complete(q))


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        k22 = rt_lower_construction(4, 2, "empty")
        assert min_code(k22) == min_code(cycle(4))
        assert min_code(complete(4)) == (1 << pair_count(4)) - 1

    def test_class_counts(self):
        # Known numbers of unlabeled simple graphs (OEIS A000088).
        for n, want in enumerate((1, 1, 2, 4, 11, 34, 156, 1044, 12346)):
            codes = nonisomorphic_graph_codes(n)
            assert len(codes) == want, n
            assert list(codes) == sorted(set(codes)), n

    def test_codes_are_canonical_and_sorted(self):
        codes = nonisomorphic_graph_codes(4)
        assert list(codes) == sorted(codes)
        for code in codes:
            assert min_code(graph_from_code(4, code)) == code

    def test_codes_are_their_class_minima(self):
        for n in range(8):
            for code in nonisomorphic_graph_codes(n):
                edges = [_pairs(n)[i] for i in range(pair_count(n)) if code >> i & 1]
                assert int(_relabelings(n, edges).min()) == code, (n, code)

    def test_table_matches_full_augmentation(self):
        # The shipped table is what `python3 tests/class_table.py` writes.
        assert class_table.main(["--check"]) == 0
        for n in range(9):
            assert nonisomorphic_graph_codes(n) == gray_class_codes(n), n

    def test_eight_vertex_classes(self):
        known = set(nonisomorphic_graph_codes(8))
        rng = np.random.default_rng(8)
        for _ in range(300):
            density = rng.random()
            edges = [p for p in _pairs(8) if rng.random() < density]
            assert int(_relabelings(8, edges).min()) in known, edges


class TestClassTable:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        nonisomorphic_graph_codes.cache_clear()
        yield
        nonisomorphic_graph_codes.cache_clear()

    def test_read_without_enumeration(self, monkeypatch):
        want = gray_class_codes(8)

        def refuse(*args):
            raise AssertionError(f"relabelling called with {args}")

        monkeypatch.setattr(oracle, "_pair_images", refuse)
        monkeypatch.setattr(oracle, "_relabelings", refuse)
        assert nonisomorphic_graph_codes(8) == want

    @pytest.mark.parametrize("cut", [slice(-1), slice(-4), slice(-4 * 12346), slice(0)],
                             ids=["byte", "code", "section", "all"])
    def test_short_table_raises(self, monkeypatch, tmp_path, cut):
        short = tmp_path / "class_codes.u32"
        short.write_bytes(CLASS_TABLE.read_bytes()[cut])
        monkeypatch.setattr(oracle, "CLASS_TABLE", short)
        for n in (0, 7, 8):
            with pytest.raises(ValueError, match="class table holds"):
                nonisomorphic_graph_codes(n)

    def test_missing_table_raises(self, monkeypatch, tmp_path):
        monkeypatch.setattr(oracle, "CLASS_TABLE", tmp_path / "class_codes.u32")
        with pytest.raises(FileNotFoundError):
            nonisomorphic_graph_codes(8)


def reference_patterns():
    """(n, order, edges) of every pattern an n <= 7 reference row places:
    its fan and, under a cap below n, K_{cap+1}."""
    text = resources.files("cliquefan").joinpath("data/reference_values.tsv").read_text()
    for line in text.strip().splitlines()[1:]:
        n, k, r, cap = line.split("\t")[:4]
        n = int(n)
        pattern, _ = fan_graph(FanShape(int(k), int(r)))
        yield n, pattern.n, list(pattern.edges())
        if cap != "-" and int(cap) < n:
            yield n, int(cap) + 1, list(_pairs(int(cap) + 1))


class TestPlacementTables:
    def test_pair_images_follow_itertools_permutations(self):
        # Row p maps pair (u, v) to the bit of (perm[u], perm[v]), with the
        # permutations in itertools order; 28 pairs fit uint32 at n = 8.
        for n in range(9):
            perms = np.array(list(permutations(range(n))), dtype=np.int64)
            lo, hi = np.array(_pairs(n), dtype=np.int64).reshape(-1, 2).T
            a = np.minimum(perms[:, lo], perms[:, hi])
            b = np.maximum(perms[:, lo], perms[:, hi])
            want = np.left_shift(1, a * (2 * n - a - 1) // 2 + b - a - 1)
            got = _pair_images(n)
            assert got.dtype == np.uint32 and got.shape == want.shape, n
            assert np.array_equal(got, want), n
        with pytest.raises(ValueError, match="at most 8"):
            _pair_images(9)

    def test_placements_are_the_codes_of_every_permutation(self):
        checked = 0
        for n, order, edges in reference_patterns():
            if order > n:
                assert _placements(n, order, edges) == []
                continue
            want = {sum(1 << _pairs(n).index(tuple(sorted((p[u], p[v])))) for u, v in edges)
                    for p in permutations(range(n))}
            got = _placements(n, order, edges)
            assert sorted(got) == sorted(want), (n, order, edges)
            checked += 1
        assert checked >= 15


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
        for shape in (TRIANGLE, FanShape(2, 3), FanShape(1, 5)):
            assert exact_ex(7, shape) == exact_ex(7, shape, iso_filter=True)

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


class TestExactRt:
    def test_ramsey_r33_infeasible(self):
        assert exact_rt(6, TRIANGLE, 2) is None

    def test_pentagon_is_extremal(self):
        value, witness = exact_rt(5, TRIANGLE, 2)
        assert value == 5
        assert witness.size == 5
        assert brute_alpha(witness) == 2
        assert min_code(witness) == min_code(cycle(5))

    def test_inactive_cap_reduces_to_ex(self):
        assert exact_rt(4, TRIANGLE, 4)[0] == exact_ex(4, TRIANGLE)[0] == 4
        for n in range(2, 6):
            assert exact_rt(n, TRIANGLE, n)[0] == exact_ex(n, TRIANGLE)[0]

    def test_iso_filter_matches_full_scan(self):
        for n in range(2, 6):
            assert exact_rt(n, TRIANGLE, 2) == exact_rt(n, TRIANGLE, 2, iso_filter=True)
        assert exact_rt(7, TRIANGLE, 3) == exact_rt(7, TRIANGLE, 3, iso_filter=True)

    def test_matches_per_code_reference_scan(self):
        # Orders 0 and 1, fans larger than the host, caps of 0 and past n.
        shapes = [FanShape(k, r) for k in (1, 2, 3) for r in (2, 3, 4, 5)]
        for n in range(6):
            for shape in shapes:
                for cap in (None, *range(n + 2)):
                    for iso in (False, True):
                        want = per_code_scan(n, shape, cap, iso)
                        got = exact_rt(n, shape, cap, iso_filter=iso)
                        got = None if got is None else (got[0], edge_code(got[1]))
                        assert got == want, (n, shape, cap, iso)

    def test_negative_order_or_cap_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            exact_rt(-1, TRIANGLE, None)
        with pytest.raises(ValueError, match="non-negative"):
            exact_rt(5, TRIANGLE, -1)
        with pytest.raises(ValueError, match="out of range"):
            graph_from_code(-1, 0)
        for n in (-1, 9):
            with pytest.raises(ValueError, match="order from 0 to 8"):
                nonisomorphic_graph_codes(n)


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
