"""Each benchmark check accepts the program's answer and rejects it mutated.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cliquefan import finder, generators, invariants, oracle  # noqa: E402
from layertrace import Tracer  # noqa: E402


def _adjacency(g):
    return checks.adjacency(g.n, np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2))


def test_fan_check_rejects_a_blade_with_a_missing_edge():
    g = generators.turan_graph(30, 5)
    adj = _adjacency(g)
    emb, _ = finder.find_odd_fan(g, 2, 2, 0.2)
    blades = [list(b) for b in emb.blades]
    checks.check_fan(adj, emb.center, blades, 2, 5)
    used = {emb.center, *blades[0], *blades[1]}
    # Same part as the centre (v mod 5), hence not adjacent to it.
    stranger = next(v for v in range(g.n) if v % 5 == emb.center % 5 and v not in used)
    blades[1][0] = stranger
    with pytest.raises(CheckFailed, match="missing edge"):
        checks.check_fan(adj, emb.center, blades, 2, 5)


def test_alpha_check_rejects_a_witness_containing_an_edge():
    g = generators.rt_lower_construction(40, 2, "c5")
    adj = _adjacency(g)
    members = list(invariants.max_independent_set(g).members)
    checks.check_alpha(adj, members, 8)
    outsider = next(v for v in range(g.n) if v not in members and adj[v, members[1:]].any())
    with pytest.raises(CheckFailed, match="holds edge"):
        checks.check_alpha(adj, [outsider] + members[1:], 8)


def test_class_count_check_rejects_a_count_off_by_one():
    counts = [len(oracle.nonisomorphic_graph_codes(n)) for n in range(7)]
    checks.check_class_counts(counts)
    counts[6] += 1
    with pytest.raises(CheckFailed, match="157 classes on 6 vertices"):
        checks.check_class_counts(counts)


def test_extremal_check_rejects_an_ex_value_one_too_high():
    value, witness = oracle.exact_ex(5, generators.FanShape(1, 3))
    edges = sorted(witness.edges())
    checks.check_extremal(5, 1, 3, None, value, edges)
    with pytest.raises(CheckFailed, match="want 6"):
        checks.check_extremal(5, 1, 3, None, value + 1, edges)


def test_extremal_check_rejects_a_witness_holding_the_fan():
    with pytest.raises(CheckFailed, match="contains the fan"):
        checks.check_extremal(4, 1, 3, None, 4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def test_violation_check_rejects_a_wrong_edge_count():
    g = generators.turan_graph(12, 2)
    adj = _adjacency(g)
    outcome = {"kind": "edge-deficiency", "vertices": [], "observed": g.size, "threshold": 100.0, "within": None}
    checks.check_violation(adj, g.size, outcome)
    outcome["observed"] += 1
    with pytest.raises(CheckFailed, match="host has"):
        checks.check_violation(adj, g.size, outcome)


def test_matching_check_rejects_a_neighbourhood_with_k_disjoint_edges():
    g = generators.turan_graph(9, 3)
    adj = _adjacency(g)
    checks.check_nu_below(adj, [0], 4)
    with pytest.raises(CheckFailed, match="matching of size 3"):
        checks.check_nu_below(adj, [0], 3)


@pytest.mark.parametrize("atom", sorted(checks.ATOM_ALPHA))
def test_atom_alpha_matches_networkx(atom):
    order, alpha = checks.ATOM_ALPHA[atom]
    g = generators.rt_lower_construction(2 * order, 2, atom)
    part = nx.Graph(list(g.edges())).subgraph(range(order))
    clique, _ = nx.max_weight_clique(nx.complement(part), weight=None)
    assert len(clique) == alpha


def test_tracer_wraps_every_binding_and_restores_them():
    original = finder.induced_subgraph
    tracer = Tracer("cliquefan")
    tracer.install()
    try:
        assert finder.induced_subgraph is not original
        finder.fan_at_vertex_r1(generators.turan_graph(10, 2), 1)
    finally:
        tracer.uninstall()
    assert finder.induced_subgraph is original
    # One neighbourhood per vertex, plus the densest one again.
    assert tracer.stat("graphs.induced_subgraph").calls == 11
    assert tracer.stat("invariants.max_matching").calls == 11
    assert tracer.stat("finder.fan_at_vertex_r1").calls == 1
