import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefan import witness
from cliquefan.generators import FanShape, fan_graph, gnp_random, turan_graph
from cliquefan.graphs import Graph, bits
from cliquefan.oracle import graph_from_code, naive_contains, pair_count
from cliquefan.witness import (
    FanEmbedding,
    GeneralizedFanEmbedding,
    find_fan,
    triangle_counts,
    verify_fan,
    verify_generalized_fan,
)
from util import complete, cycle, petersen, wheel4

SHAPES = [FanShape(1, 3), FanShape(2, 3), FanShape(1, 5), FanShape(2, 2), FanShape(1, 4)]


class TestFindClique:
    """A q-clique is a fan of one K_q, so find_fan(g, FanShape(1, q)) finds it."""

    def test_complete(self):
        assert find_fan(complete(5), FanShape(1, 5)) == FanEmbedding(0, ((1, 2, 3, 4),))

    def test_turan_is_k5_free(self):
        assert find_fan(turan_graph(20, 4), FanShape(1, 5)) is None

    def test_petersen_has_girth_five(self):
        assert find_fan(petersen(), FanShape(1, 3)) is None

    def test_lexicographically_first(self):
        g = Graph(6, [(1, 2), (2, 5), (1, 5), (3, 4), (0, 3), (0, 4)])
        assert find_fan(g, FanShape(1, 3)) == FanEmbedding(0, ((3, 4),))

    def test_absence_is_monotone_in_size(self):
        for seed in range(40):
            g = gnp_random(9, 0.55, 600 + seed)
            for q in range(2, 8):
                if find_fan(g, FanShape(1, q)) is None:
                    assert all(find_fan(g, FanShape(1, q2)) is None for q2 in range(q + 1, 10))
                    break

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            find_fan(complete(3), FanShape(1, 0))


class TestFindFan:
    def test_wheel_has_two_triangles_at_hub(self):
        emb = find_fan(wheel4(), FanShape(2, 3))
        assert emb is not None and emb.center == 0
        assert verify_fan(wheel4(), emb, FanShape(2, 3)) is None

    def test_k9_holds_two_k5(self):
        g = complete(9)
        emb = find_fan(g, FanShape(2, 5))
        assert emb is not None
        assert verify_fan(g, emb, FanShape(2, 5)) is None

    def test_cycle_is_triangle_free(self):
        assert find_fan(cycle(5), FanShape(1, 3)) is None

    def test_star_shape(self):
        emb = find_fan(cycle(4), FanShape(2, 2))
        assert emb is not None and len(emb.blades) == 2

    def test_agrees_with_naive_injection_exhaustively(self):
        patterns = {s: fan_graph(s)[0] for s in SHAPES}
        for n in range(6):
            for code in range(1 << pair_count(n)):
                g = graph_from_code(n, code)
                for shape, pattern in patterns.items():
                    found = find_fan(g, shape)
                    expected = naive_contains(g, pattern)
                    assert (found is not None) == expected, (n, code, shape)
                    if found is not None:
                        assert verify_fan(g, found, shape) is None

    def test_agrees_with_naive_injection_on_samples(self):
        patterns = {s: fan_graph(s)[0] for s in SHAPES}
        for seed in range(120):
            g = gnp_random(6 + seed % 2, (0.3, 0.5, 0.8)[seed % 3], 52_000 + seed)
            for shape, pattern in patterns.items():
                assert (find_fan(g, shape) is not None) == naive_contains(g, pattern)

    def test_truncation_of_accepted_fan_is_accepted(self):
        g = turan_graph(12, 6)
        emb = find_fan(g, FanShape(3, 3))
        assert emb is not None
        for k in (1, 2):
            cut = FanEmbedding(emb.center, emb.blades[:k])
            assert verify_fan(g, cut, FanShape(k, 3)) is None


def per_edge_counts(g: Graph) -> list[int]:
    # Each edge (v, u) whose ends share a neighbour x puts v, and u, among
    # the non-isolated vertices of G[N(x)].
    ends = [set() for _ in range(g.n)]
    for v, u in g.edges():
        for x in bits(g._adj[v] & g._adj[u]):
            ends[x] |= {v, u}
    return [len(e) for e in ends]


class TestTriangleCounts:
    """t(x) counts the non-isolated vertices of G[N(x)]: both ends of each
    edge uv with a common neighbour x."""

    @pytest.mark.parametrize("block", [witness.TRIANGLE_BLOCK_WORDS, 1])
    def test_counts_match_a_per_edge_count(self, block, monkeypatch):
        monkeypatch.setattr(witness, "TRIANGLE_BLOCK_WORDS", block)
        for n in (0, 1, 2, 63, 64, 65, 129, 200):
            for p in (0.03, 0.2, 0.6):
                g = gnp_random(n, p, 71_000 + n)
                want = per_edge_counts(g)
                assert list(triangle_counts(g, 0, 0)) == list(enumerate(want)), (n, p)
                for first, least in ((0, 5), (n // 2, 2), (n, 0)):
                    got = list(triangle_counts(g, first, least))
                    assert got == [(x, want[x]) for x in range(first, n) if g.degree(x) >= least]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_counts_match_a_per_edge_count_on_drawn_hosts(self, data):
        n = data.draw(st.one_of(st.sampled_from((0, 1, 63, 64, 65, 128, 129, 200)), st.integers(0, 200)))
        p = data.draw(st.sampled_from((0.0, 0.02, 0.08, 0.25, 0.5)))
        g = gnp_random(n, p, data.draw(st.integers(0, 2**32 - 1)))
        first = data.draw(st.integers(0, n))
        least = data.draw(st.integers(0, max(map(g.degree, range(n)), default=0) + 1))
        block = data.draw(st.sampled_from((1, witness.TRIANGLE_BLOCK_WORDS)))
        want = per_edge_counts(g)
        with mock.patch.object(witness, "TRIANGLE_BLOCK_WORDS", block):
            got = list(triangle_counts(g, first, least))
        assert got == [(x, want[x]) for x in range(first, n) if g.degree(x) >= least]

    def test_pass_memory_stays_blocked(self):
        # K_{500, 500}: every centre past the first few is settled by the
        # counts; an unblocked pass would gather about 128 MB of rows.
        g = turan_graph(1000, 2)
        tracemalloc.start()
        try:
            assert find_fan(g, FanShape(1, 3)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    def test_pass_stops_after_the_block_of_a_live_centre(self, monkeypatch):
        # K_{200, 200} on the even and odd ids, plus the odd edge (5, 7),
        # without (0, 5) and (2, 5): centres 0-2 fail, which starts the
        # pass at 3, and 4 is the first live centre. Its block is the first
        # of about five, so the search returns with the rest unread: the
        # pass unpacks the bits of one block per np.unpackbits call.
        edges = [(u, v) for u in range(0, 400, 2) for v in range(1, 400, 2)]
        g = Graph(400, [e for e in edges if e not in ((0, 5), (2, 5))] + [(5, 7)])
        unpack, blocks = np.unpackbits, []

        def counting(*args, **kwargs):
            blocks.append(0)
            return unpack(*args, **kwargs)

        monkeypatch.setattr(np, "unpackbits", counting)
        list(triangle_counts(g, 3, 2))
        every = len(blocks)
        blocks.clear()
        assert find_fan(g, FanShape(1, 3)) == FanEmbedding(4, ((5, 7),))
        assert every >= 4 and blocks == [0]


class TestVerifyFan:
    def test_round_trip(self):
        g = wheel4()
        emb = find_fan(g, FanShape(2, 3))
        assert verify_fan(g, emb, FanShape(2, 3)) is None

    def test_overlapping_blades_rejected(self):
        g = wheel4()
        emb = FanEmbedding(0, ((1, 2), (2, 3)))
        assert "duplicate" in verify_fan(g, emb, FanShape(2, 3))

    def test_missing_edge_rejected(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        emb = FanEmbedding(0, ((1, 2), (3, 4)))
        assert "missing edge" in verify_fan(g, emb, FanShape(2, 3))

    def test_first_missing_edge_in_scan_order_is_named(self):
        # The second blade misses (4, 6) and (5, 6); pairs are scanned from
        # the center through the blade in its given order.
        g = complete_minus(7, ((4, 6), (5, 6)))
        shape = FanShape(2, 4)
        assert verify_fan(g, FanEmbedding(0, ((1, 2, 3), (4, 5, 6))), shape) == "missing edge (4, 6)"
        assert verify_fan(g, FanEmbedding(0, ((1, 2, 3), (6, 5, 4))), shape) == "missing edge (6, 5)"

    def test_valid_blades_are_accepted_on_row_masks(self, monkeypatch):
        def no_pair_walk(*_):
            raise AssertionError("a valid blade walked its pairs")

        monkeypatch.setattr(Graph, "has_edge", no_pair_walk)
        emb = FanEmbedding(0, ((1, 2, 3, 4), (8, 7, 6, 5)))
        assert verify_fan(complete(9), emb, FanShape(2, 5)) is None
        gen = GeneralizedFanEmbedding((0, 1), (((2, 3),), ((5, 4), (6, 7))))
        assert verify_generalized_fan(complete(8), gen, 1) is None

    def test_wrong_blade_size_rejected(self):
        g = wheel4()
        emb = FanEmbedding(0, ((1, 2), (3,)))
        assert "blade size" in verify_fan(g, emb, FanShape(2, 3))

    def test_wrong_blade_count_rejected(self):
        g = wheel4()
        emb = FanEmbedding(0, ((1, 2),))
        assert "blade count" in verify_fan(g, emb, FanShape(2, 3))
        # Exactly k blades: k + 1 valid ones are rejected too.
        emb = FanEmbedding(0, ((1, 2), (3, 4), (5, 6)))
        assert verify_fan(complete(7), emb, FanShape(3, 3)) is None
        assert "blade count" in verify_fan(complete(7), emb, FanShape(2, 3))


class TestVerifyGeneralizedFan:
    def test_base_must_be_clique(self):
        from cliquefan.witness import GeneralizedFanEmbedding

        g = cycle(5)
        emb = GeneralizedFanEmbedding((0, 2), ((), ()))
        assert "not a clique" in verify_generalized_fan(g, emb, 1)

    def test_blade_size_checked(self):
        from cliquefan.witness import GeneralizedFanEmbedding

        g = complete(6)
        emb = GeneralizedFanEmbedding((0,), (((1, 2, 3),),))
        assert "blade size" in verify_generalized_fan(g, emb, 2)
        assert verify_generalized_fan(g, GeneralizedFanEmbedding((0,), (((1, 2),),)), 1) is None

    def test_first_missing_edge_in_scan_order_is_named(self):
        # Center 1's blade misses (4, 6) and (5, 6); center 0's blade is whole.
        g = complete_minus(10, ((4, 6), (5, 6)))
        emb = GeneralizedFanEmbedding((0, 1), (((2, 3, 7, 8),), ((4, 5, 6, 9),)))
        assert verify_generalized_fan(g, emb, 2) == "missing edge (4, 6)"
        emb = GeneralizedFanEmbedding((0, 1), (((2, 3, 7, 8),), ((6, 5, 4, 9),)))
        assert verify_generalized_fan(g, emb, 2) == "missing edge (6, 5)"


def complete_minus(n: int, missing) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing])


K6 = complete(6)


@pytest.mark.parametrize(
    "check, reason",
    [
        (lambda: verify_generalized_fan(K6, GeneralizedFanEmbedding((), ()), 1), "empty base"),
        (lambda: verify_generalized_fan(K6, GeneralizedFanEmbedding((0, 0), ((), ())), 1),
         "duplicate vertex in base"),
        (lambda: verify_generalized_fan(K6, GeneralizedFanEmbedding((0, 6), ((), ())), 1),
         "vertex 6 out of range"),
        (lambda: verify_generalized_fan(K6, GeneralizedFanEmbedding((0, 1), ((),)), 1),
         "blade lists misaligned with base"),
        (lambda: verify_fan(K6, FanEmbedding(6, ((1, 2),)), FanShape(1, 3)), "center 6 out of range"),
        (lambda: verify_fan(K6, FanEmbedding(0, ((1, 6),)), FanShape(1, 3)), "vertex 6 out of range"),
        (lambda: verify_fan(K6, FanEmbedding(0, ((1, -1),)), FanShape(1, 3)), "vertex -1 out of range"),
    ],
    ids=[
        "gfan-empty-base", "gfan-duplicate-base", "gfan-base-out-of-range", "gfan-misaligned",
        "fan-center-out-of-range", "fan-blade-out-of-range", "fan-blade-negative",
    ],
)
def test_verifier_rejection_reasons(check, reason):
    assert check() == reason
