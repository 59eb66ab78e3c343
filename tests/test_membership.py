"""The compiled membership probe and the channel-move cell search against
the state search they replace.

``_Membership(g)(mask)`` decides cell membership by a matching search on the
internal nodes; ``kekule_states_for`` enumerates the states of the assignment
by backtracking.  Both must agree on every mask, of either parity.
``kekule_cell`` walks channel moves from one state and must find exactly the
assignments of the enumerated states.
"""

import random

import networkx as nx
import pytest

from kekulec import (Assignment, Graph, KekulecError, enumerate_kekule_states,
                     has_kekule_state_for, is_omniconjugated, kekule_cell,
                     kekule_states_for, make_A, make_delta, port_assignment,
                     realized_assignment_count, signature)
from kekulec.kekule import _Membership
from kekulec.smallgraphs import atlas_graphs, random_connected_graph

# an isolated port pair next to a triangle with a pendant tail and a square
PORT_PAIR_GRAPH = Graph([("q1", "q2"), ("a", "b"), ("b", "c"), ("a", "c"), ("c", "p1"),
                         ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"), ("x", "p2"),
                         ("z", "p3")])


def assert_probe_agrees(g):
    probe = _Membership(g)
    for mask in range(1 << len(g.ports)):
        a = Assignment(g.ports, mask)
        want = bool(kekule_states_for(g, a))
        assert probe(mask) == want, (g.edges, a)
        assert has_kekule_state_for(g, a) == want


def assert_cell_agrees(g):
    want = {port_assignment(g, w).mask for w in enumerate_kekule_states(g)}
    assert kekule_cell(g).masks == want, g.edges


def hex_patch(m, n, ports, rng):
    """Hexagonal-lattice patch with pendant ports on degree-2 boundary nodes."""
    h = nx.hexagonal_lattice_graph(m, n)
    label = {v: f"c{v[0]:02d}{v[1]:02d}" for v in h}
    spots = sorted(label[v] for v in h if h.degree[v] == 2)
    chosen = sorted(rng.sample(spots, ports))
    return Graph([(label[u], label[v]) for u, v in h.edges]
                 + [(f"p{i:02d}", s) for i, s in enumerate(chosen)])


def test_probe_agrees_on_the_atlas():
    for g in atlas_graphs():
        assert_probe_agrees(g)


@pytest.mark.parametrize("n", range(2, 8))
def test_probe_agrees_on_delta(n):
    assert_probe_agrees(make_delta(n))


@pytest.mark.parametrize("m, n, ports, seed", [
    (2, 2, 4, 1), (2, 2, 6, 2), (3, 3, 6, 3), (3, 3, 8, 4),
])
def test_probe_agrees_on_hex_patches(m, n, ports, seed):
    assert_probe_agrees(hex_patch(m, n, ports, random.Random(seed)))


def test_probe_agrees_with_port_port_edges():
    assert len(_Membership(PORT_PAIR_GRAPH)._port_pairs) == 1
    assert_probe_agrees(PORT_PAIR_GRAPH)


def test_omni_scans_match_the_cell_on_the_atlas():
    for g in atlas_graphs():
        if len(g.ports) < 2:
            continue
        cell = kekule_cell(g)
        assert realized_assignment_count(g) == len(cell)
        space = 1 << (len(g.ports) - 1)
        missing = sorted((Assignment(g.ports, m) for m in range(1 << len(g.ports))
                          if m.bit_count() % 2 == signature(g) and m not in cell.masks),
                         key=Assignment.sort_key)
        verdict = is_omniconjugated(g)
        assert verdict.omniconjugated == (len(cell) == space)
        assert verdict.witness == (missing[0] if missing else None)


# -- the channel-move cell search -----------------------------------------------

def test_cell_agrees_on_the_atlas():
    for g in atlas_graphs():
        assert_cell_agrees(g)


@pytest.mark.parametrize("g", [make_delta(n) for n in range(2, 8)]
                         + [make_A(n) for n in range(2, 13)],
                         ids=[f"delta{n}" for n in range(2, 8)]
                         + [f"a{n}" for n in range(2, 13)])
def test_cell_agrees_on_families(g):
    assert_cell_agrees(g)


@pytest.mark.parametrize("m, n, ports, seed", [
    (2, 2, 4, 1), (2, 2, 6, 2), (3, 3, 6, 3), (3, 3, 8, 4), (3, 3, 10, 5),
])
def test_cell_agrees_on_hex_patches(m, n, ports, seed):
    assert_cell_agrees(hex_patch(m, n, ports, random.Random(seed)))


def test_cell_agrees_with_port_port_edges():
    assert_cell_agrees(PORT_PAIR_GRAPH)


def test_cell_refuses_too_many_port_pairs():
    g = Graph([(f"p{i:02d}", f"q{i:02d}") for i in range(25)])
    with pytest.raises(KekulecError, match="free port-port edges"):
        kekule_cell(g)
    assert len(kekule_cell(Graph(g.edges[:4]))) == 16


def test_cell_of_a_graph_without_states_is_empty(no_state_graph):
    assert kekule_cell(no_state_graph).masks == frozenset()
    assert_cell_agrees(no_state_graph)


def test_cell_past_the_enumeration_range():
    # cycle rank 36: enumerating its states is out of reach, the cell is not
    g = hex_patch(6, 6, 12, random.Random(2))
    cell = kekule_cell(g, allow_large=True)
    assert len(cell) == realized_assignment_count(g) == 637
    probe = _Membership(g)
    assert all(probe(mask) for mask in cell.masks)


# -- forced-move propagation in the matching search ------------------------------

@pytest.mark.parametrize("n", [1200, 3000])
def test_probe_on_long_chains(n):
    g = make_A(n)
    probe = _Membership(g)
    for mask in range(4):
        assert probe(mask) == bool(kekule_states_for(g, Assignment(g.ports, mask)))


def test_probe_agrees_on_random_graphs():
    rng = random.Random(14)
    for _ in range(200):
        assert_probe_agrees(random_connected_graph(rng, max_edges=14))


def test_probe_backtracks_out_of_a_forced_cascade():
    # hubs v01 and v02 joined by v04 and by v08, and by the path
    # v01-v03-v07-v06-v05-v02.  The search branches on v03 and tries v01
    # first; that forces v04-v02, then v05-v06, and leaves v07 without a
    # partner, so the branch must be undone before v03-v07 succeeds.
    g = Graph([("v01", "v03"), ("v01", "v04"), ("v01", "v08"), ("v02", "v04"),
               ("v02", "v05"), ("v02", "v08"), ("v03", "v07"), ("v05", "v06"),
               ("v06", "v07")])
    assert g.ports == ()
    assert _Membership(g)(0) is True
    assert_probe_agrees(g)
