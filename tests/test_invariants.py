import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquefan import witness
from cliquefan.generators import FanShape, gnp_random, rt_lower_construction, triangle_free_process
from cliquefan.finder import HypothesisViolation, find_odd_fan
from cliquefan.graphs import Graph, bits, is_independent, mask_from
from cliquefan.invariants import (
    BudgetExceeded,
    IndependentSet,
    _augment_from,
    greedy_matching,
    max_independent_set,
    max_matching,
)
from cliquefan.oracle import graph_from_code, pair_count
from cliquefan.witness import find_fan
from util import brute_alpha, brute_nu, complete, cycle, induced_subgraph, petersen, star


class TestMaxMatching:
    def test_odd_cycle(self):
        assert len(max_matching(cycle(5))) == 2

    def test_perfect_on_k4(self):
        mm = max_matching(complete(4))
        assert len(mm) == 2
        assert sorted(v for e in mm for v in e) == [0, 1, 2, 3]

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
            assert {v for e in mm for v in e} <= set(place)

    def test_dense_graphs_match_brute_force(self):
        # Dense neighbourhoods lean hardest on the greedy warm start.
        for seed in range(150):
            g = gnp_random(7 + seed % 4, (0.7, 0.85, 0.95)[seed % 3], 7700 + seed)
            assert len(max_matching(g)) == brute_nu(g), f"seed={seed}"

    def test_output_is_a_matching(self):
        for seed in range(50):
            g = gnp_random(12, 0.5, 500 + seed)
            mm = max_matching(g)
            assert all(g.has_edge(u, v) for u, v in mm)
            covered = [v for e in mm for v in e]
            assert len(covered) == len(set(covered))


    def test_edges_match_the_loop_over_every_root(self):
        # The matching loop skips a root with no exposed root after it;
        # the edges must equal those of the loop that tries every root.
        def every_root(g):
            n, match = g.n, [-1] * g.n
            free = (1 << n) - 1
            for v in range(n):
                m = g.neighbor_mask(v) & free
                if m and (free >> v) & 1:
                    u = (m & -m).bit_length() - 1
                    match[v], match[u] = u, v
                    free ^= (1 << v) | (1 << u)
            for v in range(n):
                if match[v] == -1 and g.neighbor_mask(v):
                    _augment_from(g._adj, (1 << n) - 1, v, match)
            return tuple(sorted((v, match[v]) for v in range(n) if match[v] > v))

        for seed in range(320):
            n = 5 + seed % 24
            g = gnp_random(n, (0.05, 0.15, 0.3, 0.6, 0.9)[seed % 5], 7900 + seed)
            assert max_matching(g) == every_root(g), f"seed={seed}"

    def test_greedy_matching_is_maximal_within_its_mask(self):
        for seed in range(100):
            g = gnp_random(20, (0.1, 0.3, 0.6)[seed % 3], 8200 + seed)
            mask = random.Random(seed).getrandbits(20)
            pairs = greedy_matching(g._adj, mask)
            covered = mask_from(v for e in pairs for v in e)
            assert all(v < u and g.has_edge(v, u) for v, u in pairs)
            assert covered & mask == covered and len(pairs) * 2 == covered.bit_count()
            rest = mask & ~covered
            assert all(not g.neighbor_mask(v) & rest for v in bits(rest))
            assert len(pairs) <= len(max_matching(g, mask)) <= 2 * len(pairs)

    def test_within_matches_the_induced_copy(self):
        # The matching inside a mask is the matching of the induced copy,
        # which numbers the mask's vertices in ascending order, mapped back.
        def copy_matching(g, mask):
            sub, mapping = induced_subgraph(g, bits(mask))
            back = {i: v for v, i in mapping.items()}
            return tuple((back[a], back[b]) for a, b in max_matching(sub))

        rng = random.Random(8300)
        for seed in range(1200):
            n = 1 + seed % 48
            g = gnp_random(n, (0.1, 0.25, 0.5, 0.75, 0.95)[seed % 5], 8300 + seed)
            full = (1 << n) - 1
            mask = (0, full, rng.getrandbits(n))[min(seed % 8, 2)]
            want = copy_matching(g, mask)
            assert max_matching(g, mask) == want, f"seed={seed}"
            if mask == full:
                assert max_matching(g) == want, f"seed={seed}"

    def test_within_with_a_bit_outside_the_host_rejected(self):
        g = cycle(5)
        for within in (1 << 5, 1 << 5 | 0b11, -1):
            with pytest.raises(ValueError, match="restriction mask"):
                max_matching(g, within)


def reference_matching(adj: tuple[int, ...], mask: int) -> tuple[tuple[int, int], ...]:
    """The maximum matching as computed before the warm start was passed in:
    a match list over the whole host, its own greedy warm start, a search
    from every root with an exposed root after it, and no early return."""
    match = [-1] * len(adj)
    for v, u in greedy_matching(adj, mask):
        match[v], match[u] = u, v
    roots = [v for v in bits(mask) if match[v] == -1 and adj[v] & mask]
    for i, v in enumerate(roots):
        if match[v] == -1 and any(match[w] == -1 for w in roots[i + 1:]):
            _augment_from(adj, mask, v, match)
    return tuple((v, match[v]) for v in bits(mask) if match[v] > v)


# Greedy matches 0-1 and 2-3 and leaves the roots 4 and 5; the search from
# 4 meets the triangle 1-2-3 and must contract it to reach 5 through 2.
BLOSSOM = Graph(6, [(0, 4), (0, 1), (1, 2), (1, 3), (2, 3), (2, 5)])


@st.composite
def masked_graphs_with_odd_cycles(draw):
    """A seeded G(n, p), an odd cycle through drawn vertices laid over it,
    and a vertex mask: empty, one vertex, every vertex or any subset."""
    n = draw(st.integers(0, 24))
    p = draw(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.8)))
    g = gnp_random(n, p, draw(st.integers(0, 2**32 - 1)))
    edges = set(g.edges())
    if n >= 3:
        ring = draw(st.permutations(range(n)))[:2 * draw(st.integers(1, (n - 1) // 2)) + 1]
        edges |= {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
    full = (1 << n) - 1
    single = st.integers(0, n - 1).map(lambda v: 1 << v) if n else st.just(0)
    mask = draw(st.one_of(st.just(0), single, st.just(full), st.integers(0, full)))
    return Graph(n, sorted(edges)), mask


class TestMatchingWarmStart:
    """max_matching hands its greedy warm start to the blossom search, which
    returns it as it stands when fewer than two roots remain."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(masked_graphs_with_odd_cycles())
    @example((Graph(0), 0))
    @example((Graph(1), 1))
    @example((BLOSSOM, 0b111111))
    @example((BLOSSOM, 0b011111))
    @example((cycle(5), 0b11111))
    @example((petersen(), (1 << 10) - 1))
    def test_matches_the_reference_edge_for_edge_and_networkx_in_size(self, case):
        import networkx as nx

        g, mask = case
        got = max_matching(g, mask)
        assert got == reference_matching(g._adj, mask)
        sub = nx.Graph((u, v) for u, v in g.edges() if mask >> u & mask >> v & 1)
        assert len(got) == len(nx.max_weight_matching(sub, maxcardinality=True))

    def test_blossom_needs_the_search_past_the_warm_start(self):
        assert greedy_matching(BLOSSOM._adj, 0b111111) == [(0, 1), (2, 3)]
        assert max_matching(BLOSSOM) == ((0, 4), (1, 3), (2, 5))
        # Without 5, one root is left and the warm start comes back as it is.
        assert max_matching(BLOSSOM, 0b011111) == ((0, 1), (2, 3))

    def test_triangle_fans_on_the_golden_grid_hosts_are_unchanged(self, monkeypatch):
        hosts = [(gnp_random(8 + i % 60, (0.5, 0.7, 0.85, 0.95)[i % 4], 9_000_000 + i),
                  1 + (i // 3) % 3) for i in range(0, 3000, 3)]
        got = [find_fan(g, FanShape(k, 3)) for g, k in hosts]
        monkeypatch.setattr(witness, "_max_matching_from",
                            lambda adj, mask, warm: reference_matching(adj, mask))
        assert got == [find_fan(g, FanShape(k, 3)) for g, k in hosts]
        assert sum(e is not None for e in got) > 500


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


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()])


def join(a: Graph, b: Graph) -> Graph:
    across = [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    return Graph(a.n + b.n, list(disjoint_union(a, b).edges()) + across)


def relabel(g: Graph, seed: int) -> Graph:
    # Spread each block over scattered ids so no part is a contiguous range.
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()])


def connected(g: Graph) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def complement(g: Graph) -> Graph:
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not g.has_edge(u, v)])


def components(g: Graph, mask: int, flip: int) -> list[int]:
    """Components of G[mask], or of its complement if flip = -1, by least id."""
    found = []
    while mask:
        comp, stack = 0, [(mask & -mask).bit_length() - 1]
        while stack:
            v = stack.pop()
            if not comp >> v & 1:
                comp |= 1 << v
                stack.extend(bits(mask & ~comp & (g._adj[v] ^ flip)))
        found.append(comp)
        mask &= ~comp
    return found


def split_reference(g: Graph, mask: int) -> int:
    """The component and co-component split with no stripping: a union
    takes every part's witness, a join the largest (first on ties), and a
    part that splits neither way the unsplit branch and bound."""
    for flip in (0, -1):
        parts = components(g, mask, flip)
        if len(parts) > 1:
            found = [split_reference(g, p) for p in parts]
            return sum(found) if flip == 0 else max(found, key=int.bit_count)
    vs = list(bits(mask))
    return mask_from(vs[i] for i in unsplit_search(induced_subgraph(g, vs)[0])[0])


def unsplit_search(g: Graph, budget: int | None = None) -> tuple[tuple[int, ...], int]:
    """The branch and bound run on the whole graph, without any split, with
    the first-fit clique cover built vertex by vertex, each vertex tried
    against every class so far: the witness and the number of node
    expansions. Past ``budget`` expansions it raises BudgetExceeded with
    the best set so far, extended by ascending id to a maximal one."""
    adj, full = g._adj, (1 << g.n) - 1

    def greedy(chosen):
        m = full
        for v in bits(chosen):
            m &= ~adj[v]
        while m:
            low = m & -m
            chosen |= low
            m &= ~(adj[low.bit_length() - 1] | low)
        return chosen

    best_mask = greedy(0)
    best = [best_mask, best_mask.bit_count()]
    expansions = 0

    def cover_bound(mask):
        covers = []
        for v in bits(mask):
            for i, cm in enumerate(covers):
                if cm & ~adj[v] == 0:
                    covers[i] = cm | (1 << v)
                    break
            else:
                covers.append(1 << v)
        return len(covers)

    def rec(mask, size, chosen):
        nonlocal expansions
        expansions += 1
        if budget is not None and expansions > budget:
            raise BudgetExceeded(IndependentSet(tuple(bits(greedy(best[0])))))
        if mask == 0:
            if size > best[1]:
                best[:] = [chosen, size]
            return
        if size + cover_bound(mask) <= best[1]:
            return
        pick = max(bits(mask), key=lambda v: ((adj[v] & mask).bit_count(), -v))
        bit = 1 << pick
        rec(mask & ~(adj[pick] | bit), size + 1, chosen | bit)
        rec(mask & ~bit, size, chosen)

    rec(full, 0, 0)
    return tuple(bits(best[0])), expansions


class TestComponentSplit:
    def block(self, seed: int, n: int) -> Graph:
        return gnp_random(n, (0.2, 0.5, 0.8)[seed % 3], 52_000 + seed)

    def check(self, g: Graph) -> None:
        ind = max_independent_set(g)
        assert len(ind) == brute_alpha(g)
        assert is_independent(g, ind.members)
        assert max_independent_set(g) == ind

    def test_disjoint_unions(self):
        for seed in range(40):
            g = disjoint_union(self.block(seed, 2 + seed % 5), self.block(seed + 1, 3 + seed % 7))
            self.check(relabel(disjoint_union(g, self.block(seed + 2, 1 + seed % 3)), seed))

    def test_joins(self):
        for seed in range(40):
            g = join(self.block(seed, 2 + seed % 6), self.block(seed + 1, 3 + seed % 7))
            self.check(relabel(join(g, self.block(seed + 2, 1 + seed % 3)), seed))

    def test_nested_join_of_union_of_join(self):
        for seed in range(40):
            inner = join(self.block(seed, 1 + seed % 3), self.block(seed + 1, 2 + seed % 3))
            union = disjoint_union(inner, self.block(seed + 2, 1 + seed % 4))
            self.check(relabel(join(union, self.block(seed + 3, 2 + seed % 5)), seed))

    def test_join_ties_go_to_the_smallest_id(self):
        # K_{2,2,2} with parts {0, 5}, {1, 4}, {2, 3}: every part has alpha 2.
        parts = ({0, 5}, {1, 4}, {2, 3})
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                      if not any({u, v} == p for p in parts)])
        assert max_independent_set(g).members == (0, 5)

    def test_unsplit_graphs_keep_the_unsplit_witness(self):
        checked = 0
        for seed in range(150):
            g = gnp_random(8 + seed % 20, (0.3, 0.5, 0.7)[seed % 3], 53_000 + seed)
            if connected(g) and connected(complement(g)):
                checked += 1
                assert max_independent_set(g).members == unsplit_search(g)[0], f"seed={seed}"
        assert checked >= 50

    def test_budget_runs_out_in_a_later_component(self):
        easy = Graph(6, [(0, 1), (2, 3), (4, 5)])
        g = disjoint_union(easy, gnp_random(40, 0.3, 2))
        with pytest.raises(BudgetExceeded) as info:
            max_independent_set(g, budget=30)
        best = info.value.best.members
        assert is_independent(g, best)
        # The solved edges each keep a vertex in the reported set.
        assert len(set(best) & set(range(6))) == 3

    def test_deep_cograph(self):
        # Each odd vertex joins all earlier ones, so the split tree nests
        # about n levels deep, beyond Python's default recursion limit.
        n = 1100
        g = Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])
        assert max_independent_set(g, budget=10_000).members == tuple(range(0, n, 2))

    def test_threshold_graph_of_order_2000_is_stripped_whole(self):
        # Every level of this cograph has an isolated or a universal vertex,
        # so stripping leaves no branch and bound at all: one expansion of
        # budget is plenty.
        n = 2000
        g = Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])
        ind = max_independent_set(g, budget=1)
        assert len(ind) == 1000 and ind.members == tuple(range(0, n, 2))

    def test_stripping_keeps_the_split_witness(self):
        rng = random.Random(61)
        hosts = []
        for n in (1, 2, 3, 9, 40, 150):
            for rule in range(4):
                # Vertex v joins every earlier vertex with probability 1/2.
                joins = [v for v in range(n) if rng.random() < 0.5 or rule == 3]
                hosts.append(Graph(n, [(u, v) for v in joins for u in range(v)]))
        for seed in range(60):
            g = gnp_random(5 + seed % 30, (0.2, 0.5, 0.8)[seed % 3], 54_000 + seed)
            edges = set(g.edges())
            for v in rng.sample(range(g.n), 3):
                edges = {e for e in edges if v not in e}
                if rng.random() < 0.5:
                    edges |= {(min(u, v), max(u, v)) for u in range(g.n) if u != v}
            hosts.append(relabel(Graph(g.n, sorted(edges)), seed))
            hosts.append(join(self.block(seed, 1 + seed % 4), complete(1 + seed % 3)))
        for g in hosts:
            want = tuple(bits(split_reference(g, (1 << g.n) - 1)))
            assert max_independent_set(g, budget=10**6).members == want, list(g.edges())

    def test_c13_power_construction_needs_a_small_budget(self):
        g = rt_lower_construction(156, 3, "c13-power")
        ind = max_independent_set(g, budget=10_000)
        assert len(ind) == 16
        assert is_independent(g, ind.members)


def ascending_greedy(g: Graph) -> int:
    """Size of the maximal independent set taken by ascending id."""
    mask, size = (1 << g.n) - 1, 0
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= ~(g._adj[v] | 1 << v)
        size += 1
    return size


class TestJoinFloor:
    """A join's later part is searched only above the best of the parts
    before it; witnesses must be those of the search without that floor."""

    def short_greedy_blocks(self) -> list[tuple[Graph, int]]:
        # Connected, co-connected blocks whose ascending greedy set falls
        # short of alpha, so a search from the greedy set differs from one
        # started at a floor; each with its alpha.
        blocks = []
        for seed in range(120):
            g = gnp_random(8 + seed % 13, (0.3, 0.5, 0.7)[seed % 3], 56_000 + seed)
            if connected(g) and connected(complement(g)):
                alpha = len(unsplit_search(g)[0])
                if ascending_greedy(g) < alpha:
                    blocks.append((g, alpha))
        return blocks

    def test_lower_construction_keeps_the_split_witness(self):
        for n, r in ((30, 2), (45, 3), (48, 2), (60, 2), (60, 3), (80, 4), (90, 3)):
            for s in (1, 2, 3):
                g = rt_lower_construction(n, r, f"tf-process:{s}")
                for host in (g, relabel(g, 100 * n + s)):
                    want = tuple(bits(split_reference(host, (1 << n) - 1)))
                    assert max_independent_set(host, budget=10**7).members == want, (n, r, s)

    def test_ties_between_parts_go_to_the_earlier_one(self):
        blocks = {}
        for seed in range(150):
            g = gnp_random(5 + seed % 12, (0.3, 0.5, 0.7)[seed % 3], 57_000 + seed)
            blocks.setdefault(len(max_independent_set(g)), []).append(g)
        checked = 0
        for alpha, same in blocks.items():
            for a, b, c in zip(same, same[1:], same[2:]):
                for g in (join(a, b), join(join(a, b), c), join(c, disjoint_union(a, b))):
                    g = relabel(g, checked)
                    want = tuple(bits(split_reference(g, (1 << g.n) - 1)))
                    assert max_independent_set(g).members == want, list(g.edges())
                    checked += 1
        assert checked >= 300

    def test_later_part_one_above_the_earlier_wins(self):
        # Off by one, the floor would hide the later part's alpha-sized set
        # behind its shorter greedy set.
        blocks = self.short_greedy_blocks()
        first = {alpha: g for g, alpha in reversed(blocks)}
        checked = 0
        for b, alpha in blocks:
            if alpha - 1 in first:
                g = join(first[alpha - 1], b)
                ind = max_independent_set(g)
                assert len(ind) == alpha
                assert ind.members == tuple(bits(split_reference(g, (1 << g.n) - 1)))
                checked += 1
        assert checked >= 20

    def test_floor_counts_only_the_joins_own_parts(self):
        # A component before the join, with a larger alpha, must not raise
        # the floor of the join's parts.
        for b, alpha in self.short_greedy_blocks():
            g = disjoint_union(cycle(21), join(cycle(5), b))
            assert len(max_independent_set(g)) == 10 + max(2, alpha)

    def test_second_copy_of_a_join_is_cheaper_than_the_first(self):
        # Without the floor the join costs exactly twice the block. The
        # second copy starts at the first's alpha, above its own greedy set,
        # and on these blocks that saves at least one expansion.
        checked = 0
        for g, _ in self.short_greedy_blocks():
            want, count = unsplit_search(g)
            got = max_independent_set(join(g, g), budget=2 * count - 1)
            assert got.members == want
            checked += 1
        assert checked >= 20


class TestLeafBound:
    def hosts(self):
        for seed in range(60):
            g = gnp_random(8 + seed % 33, (0.3, 0.5, 0.7)[seed % 3], 55_000 + seed)
            if connected(g) and connected(complement(g)):
                yield g
        for n in (40, 50, 60, 70):
            for seed in (1, 2):
                g = triangle_free_process(n, seed)
                assert connected(g) and connected(complement(g))
                yield g

    def test_cover_built_by_class_keeps_the_tree(self):
        # Same witness within exactly the reference's expansions, and the
        # same best set one expansion short: the same tree, not only alpha.
        checked = 0
        for g in self.hosts():
            want, count = unsplit_search(g)
            assert max_independent_set(g, budget=count).members == want, list(g.edges())
            with pytest.raises(BudgetExceeded) as ref:
                unsplit_search(g, budget=count - 1)
            with pytest.raises(BudgetExceeded) as got:
                max_independent_set(g, budget=count - 1)
            assert got.value.best == ref.value.best, list(g.edges())
            checked += 1
        assert checked >= 40

    def test_negative_budget_is_rejected(self):
        # The split alone solves this host, so budget 0 is enough for it.
        g = rt_lower_construction(10, 2, "tf-process:1")
        assert len(max_independent_set(g, budget=0)) == len(max_independent_set(g))
        for host in (g, gnp_random(30, 0.4, 3)):
            with pytest.raises(ValueError, match="negative"):
                max_independent_set(host, budget=-1)


class TestAlphaAtPaperScale:
    def test_triangle_free_process_matches_networkx(self):
        import networkx as nx

        for n, seed in ((60, 1), (60, 2), (80, 1)):
            g = triangle_free_process(n, seed)
            ind = max_independent_set(g, budget=10**7)
            assert is_independent(g, ind.members)
            co = nx.Graph(complement(g).edges())
            co.add_nodes_from(range(n))
            clique, size = nx.max_weight_clique(co, weight=None)
            assert len(ind) == size == len(clique), (n, seed)

    def test_alpha_of_the_roadmap_hosts(self):
        assert len(max_independent_set(triangle_free_process(100, 1), budget=10**7)) == 23
        g = rt_lower_construction(200, 2, "tf-process:1")
        assert len(max_independent_set(g, budget=10**7)) == 25


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
    """The vertices a maximum matching of N(x) leaves, as find_odd_fan at
    r = 1 reports them for the densest x: independent, and deg - 2 nu of
    them."""

    def test_odd_cycle_leftover(self):
        g = Graph(6, list(cycle(5).edges()) + [(v, 5) for v in range(5)])  # hub 5 over C5
        out, _ = find_odd_fan(g, 3, 1, 0.1)
        assert out == HypothesisViolation("large-independent-set", (4,), 1, 0.1 * 6)

    def test_perfect_matching_leaves_nothing(self):
        # Nothing left cannot beat eps n, so the outcome is an edge deficiency.
        g = complete(5)
        assert {v for e in max_matching(g, g.neighbor_mask(0)) for v in e} == {1, 2, 3, 4}
        out, _ = find_odd_fan(g, 3, 1, 0.1)
        assert out.kind == "edge-deficiency"

    def test_star_leaves_other_leaves(self):
        g = Graph(6, list(star(5).edges()) + [(1, 2)])
        out, _ = find_odd_fan(g, 2, 1, 0.2)
        assert out == HypothesisViolation("large-independent-set", (3, 4, 5), 3, 0.2 * 6)

    def test_size_bound(self):
        seen = 0
        for seed in range(400):
            g = gnp_random(8 + seed % 12, (0.2, 0.4, 0.6)[seed % 3], 41_000 + seed)
            out, _ = find_odd_fan(g, 1 + seed % 4, 1, 0.01)
            if getattr(out, "kind", None) != "large-independent-set":
                continue
            seen += 1
            x, left = min(range(g.n), key=lambda v: (-g.degree(v), v)), out.vertices
            assert is_independent(g, left), f"seed={seed}"
            assert set(left) <= set(g.neighbors(x))
            nu = len(max_matching(induced_subgraph(g, g.neighbors(x))[0]))
            assert len(left) == g.degree(x) - 2 * nu, f"seed={seed}"
        assert seen >= 50
