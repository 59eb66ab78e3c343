"""The compiled membership probe against the state search it replaces.

``_Membership(g)(mask)`` decides cell membership by a matching search on the
internal nodes; ``kekule_states_for`` enumerates the states of the assignment
by backtracking.  Both must agree on every mask, of either parity.
"""

import random

import networkx as nx
import pytest

from kekulec import (Assignment, Graph, has_kekule_state_for, is_omniconjugated,
                     kekule_cell, kekule_states_for, make_delta,
                     realized_assignment_count, signature)
from kekulec.kekule import _Membership
from kekulec.smallgraphs import atlas_graphs


def assert_probe_agrees(g):
    probe = _Membership(g)
    for mask in range(1 << len(g.ports)):
        a = Assignment(g.ports, mask)
        want = bool(kekule_states_for(g, a))
        assert probe(mask) == want, (g.edges, a)
        assert has_kekule_state_for(g, a) == want


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
    # an isolated port pair next to a triangle with a pendant tail and a square
    g = Graph([("q1", "q2"), ("a", "b"), ("b", "c"), ("a", "c"), ("c", "p1"),
               ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"), ("x", "p2"),
               ("z", "p3")])
    assert len(_Membership(g)._port_pairs) == 1
    assert_probe_agrees(g)


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
