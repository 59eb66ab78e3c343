import random

import pytest
from hypothesis import given, settings, strategies as st

from kekulec import (Assignment, Graph, KekulecError, enumerate_kekule_states,
                     enumerate_semi_kekule, hsk_basis, is_kekule_state,
                     is_semi_kekule, kekule_states_for, kekule_states_via_span,
                     make_A, make_delta, signature, solve_semi_kekule)
from kekulec.smallgraphs import atlas_graphs, random_connected_graph

import oracle


def test_kekule_states_are_semi(house5, ethene3, phenantrene):
    for g in (house5, ethene3, phenantrene):
        for w in enumerate_kekule_states(g):
            assert is_semi_kekule(g, w)


def test_is_semi_kekule_house5_counterexample(house5):
    w = house5.subset([("n1", "n2"), ("n2", "n3"), ("n2", "n5"),
                       ("n3", "n5"), ("n3", "n4")])
    assert not is_semi_kekule(house5, w)  # n5 has even degree


def test_empty_subset_semi_on_portless_free_graph():
    g = Graph([("a", "b")])
    assert is_semi_kekule(g, g.subset())


def test_solve_parity_mismatch_is_none():
    g = make_delta(3)  # signature 1
    assert solve_semi_kekule(g, Assignment(g.ports, 0)) is None


@pytest.mark.parametrize("mask", [0b100, -1])
def test_solve_rejects_masks_outside_the_ports(mask):
    g = make_A(4)
    with pytest.raises(KekulecError, match="outside the port set"):
        solve_semi_kekule(g, Assignment(g.ports, mask))


def test_solve_finds_non_kekule_semi_state(ethene3):
    a = Assignment.of(ethene3.ports, ("p0", "p2"))
    w = solve_semi_kekule(ethene3, a)
    assert w is not None
    assert is_semi_kekule(ethene3, w)
    assert not is_kekule_state(ethene3, w)


def test_solve_on_tree_is_unique():
    tree = Graph([("a", "b"), ("b", "c"), ("b", "d")])
    for a in (Assignment.of(tree.ports, ("a", "c", "d")),
              Assignment.of(tree.ports, ("a",))):
        states = enumerate_semi_kekule(tree, a)
        assert len(states) == 1


def test_solve_requires_connected():
    g = Graph([("a", "b"), ("c", "d")])
    with pytest.raises(KekulecError, match="connected"):
        solve_semi_kekule(g, Assignment(g.ports, 0))


def test_hsk_dimension_phenantrene(phenantrene):
    basis = hsk_basis(phenantrene)
    assert len(basis) == 3
    empty = Assignment(phenantrene.ports, 0)
    assert len(enumerate_semi_kekule(phenantrene, empty)) == 8
    assert len(oracle.semi_kekule_states(phenantrene.edges)) == 8


def test_hsk_dimension_tree_and_delta4():
    ytree = Graph([("pa", "u1"), ("pab", "u2"), ("pb", "u3"), ("u1", "u2"),
                   ("u2", "u3"), ("u3", "pt1"), ("u1", "pt2")])
    assert hsk_basis(ytree) == []
    assert len(hsk_basis(make_delta(4))) == 3


def test_enumerate_counts_phenantrene(phenantrene):
    empty = Assignment(phenantrene.ports, 0)
    semi = enumerate_semi_kekule(phenantrene, empty)
    assert len(semi) == 8
    assert sum(is_kekule_state(phenantrene, w) for w in semi) == 5


def test_enumerate_wrong_parity_raises():
    g = make_delta(3)
    with pytest.raises(KekulecError, match="parity"):
        enumerate_semi_kekule(g, Assignment(g.ports, 0))


def test_enumerate_ethene_t_assignment(ethene3):
    a = Assignment.of(ethene3.ports, ("p0", "p2"))
    states = enumerate_semi_kekule(ethene3, a)
    assert len(states) == 1
    assert not is_kekule_state(ethene3, states[0])


def test_solution_space_structure(house5):
    empty_house = Assignment.of(house5.ports, ("n1",))
    w0 = solve_semi_kekule(house5, empty_house)
    span = {w.mask for w in enumerate_semi_kekule(house5, empty_house)}
    brute = {w for w in oracle.semi_kekule_states(house5.edges)
             if oracle.assignment_of(house5.edges, w) == frozenset({"n1"})}
    assert span == {house5.subset(w).mask for w in brute}
    assert w0.mask in span


def test_span_route_matches_backtracking():
    for g in atlas_graphs(max_edges=8, connected=True)[:120]:
        for a in (Assignment(g.ports, 0),
                  Assignment(g.ports, (1 << len(g.ports)) - 1)):
            if len(a) % 2 != signature(g):
                continue
            via_span = [w.mask for w in kekule_states_via_span(g, a)]
            direct = [w.mask for w in kekule_states_for(g, a)]
            assert via_span == direct


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(0, 2 ** 20))
def test_parity_identity_random(seed, wbits):
    """#violations + #(W|P) has the parity of the internal node count."""
    g = random_connected_graph(random.Random(seed), max_edges=12, max_nodes=8)
    mask = wbits & ((1 << len(g.edges)) - 1)
    vio = sum(1 for v in g.internal
              if (mask & g.incidence_mask(v)).bit_count() % 2 == 0)
    touched = sum(1 for p in g.ports if mask & g.incidence_mask(p))
    assert (vio + touched) % 2 == signature(g)


def test_solver_regression_pendant_square():
    g = Graph([("v0", "v4"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3"),
               ("v3", "v4")])
    w = solve_semi_kekule(g, Assignment(g.ports, 0))
    assert w is not None and is_semi_kekule(g, w)


def test_full_enumeration_matches_span_union(phenantrene, ethene3):
    from kekulec import make_B, parity_space
    ytree = Graph([("pa", "u1"), ("pab", "u2"), ("pb", "u3"), ("u1", "u2"),
                   ("u2", "u3"), ("u3", "pt1"), ("u1", "pt2")])
    for g in (phenantrene, ethene3, make_delta(3), make_B(), ytree):
        via_span = []
        for a in parity_space(g.ports, signature(g)).members():
            via_span += [w.mask for w in kekule_states_via_span(g, a)]
        direct = [w.mask for w in enumerate_kekule_states(g)]
        assert sorted(via_span) == direct
