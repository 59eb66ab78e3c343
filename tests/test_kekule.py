import pytest

from kekulec import (Assignment, Graph, KekulecError, alternating_curves,
                     alternating_path, apply_curve, curve_components,
                     cycle_rank, enumerate_kekule_states, has_kekule_state_for,
                     is_alternating,
                     is_kekule_state, is_perfect_matching, kekule_cell,
                     kekule_states_for, make_A, make_delta, port_assignment,
                     state_difference)
from kekulec.smallgraphs import atlas_graphs

import oracle

# the state drawn for phenantrene: both extreme hexagons alternate
PHEN_DEPICTED = [("c01", "c02"), ("c03", "c04"), ("c05", "c14"),
                 ("c06", "c07"), ("c08", "c09"), ("c10", "c11"), ("c12", "c13")]


def test_is_kekule_state_house5(house5):
    assert is_kekule_state(house5, house5.subset([("n2", "n5"), ("n3", "n4")]))
    assert not is_kekule_state(house5, house5.subset())


def test_is_kekule_state_ethene(ethene3):
    assert is_kekule_state(ethene3, ethene3.subset([("u", "v")]))


def test_is_perfect_matching():
    g = Graph([("a", "b")])
    assert is_perfect_matching(g, g.subset([("a", "b")]))


def test_house5_has_no_perfect_matching(house5):
    for w in enumerate_kekule_states(house5):
        assert not is_perfect_matching(house5, w)


def test_house5_with_extra_port():
    g = Graph([("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n2", "n5"),
               ("n3", "n5"), ("n5", "n6")])
    states = enumerate_kekule_states(g)
    assert len(states) == 4
    assert sum(is_perfect_matching(g, w) for w in states) == 1


@pytest.mark.parametrize("name, count", [
    ("phenantrene", 5), ("house5", 2), ("ethene3", 3),
])
def test_state_counts(name, count, request):
    g = request.getfixturevalue(name)
    assert len(enumerate_kekule_states(g)) == count


def test_enumeration_matches_brute_force(house5, ethene3, phenantrene):
    for g in (house5, ethene3, phenantrene, make_delta(3), make_delta(4)):
        got = {frozenset(w.edges()) for w in enumerate_kekule_states(g)}
        assert got == set(oracle.kekule_states(g.edges))


def test_enumeration_matches_brute_force_atlas():
    for g in atlas_graphs(max_edges=6):
        got = {frozenset(w.edges()) for w in enumerate_kekule_states(g)}
        assert got == set(oracle.kekule_states(g.edges))


def test_states_sorted_by_bit_vector(phenantrene):
    masks = [w.mask for w in enumerate_kekule_states(phenantrene)]
    assert masks == sorted(masks)


def test_kekule_cell_ethene(ethene3):
    assert kekule_cell(ethene3).format_lines() == ["{}", "{p0,p1}", "{p1,p2}"]


def test_kekule_cell_house5(house5):
    assert kekule_cell(house5).format_lines() == ["{n1}", "{n4}"]


def test_kekule_cell_phenantrene(phenantrene):
    assert kekule_cell(phenantrene).format_lines() == ["{}"]


def test_kekule_cell_single_edge():
    assert kekule_cell(Graph([("a", "b")])).format_lines() == ["{}", "{a,b}"]


def test_states_for_phenantrene(phenantrene):
    empty = Assignment(phenantrene.ports, 0)
    assert len(kekule_states_for(phenantrene, empty)) == 5


def test_states_for_closed_assignment(ethene3):
    t = Assignment.of(ethene3.ports, ("p0", "p2"))
    assert kekule_states_for(ethene3, t) == []


def test_states_for_delta3_unique():
    g = make_delta(3)
    states = kekule_states_for(g, Assignment.of(g.ports, ("p1",)))
    assert [sorted(w.edges()) for w in states] == \
        [[("p1", "u1"), ("u2", "u3")]]


@pytest.mark.parametrize("mask", [0b100, -1])
def test_has_state_for_rejects_masks_outside_the_ports(mask):
    g = make_A(4)
    with pytest.raises(KekulecError, match="outside the port set"):
        has_kekule_state_for(g, Assignment(g.ports, mask))


@pytest.mark.parametrize("mask", [0b100, -1])
def test_states_for_rejects_masks_outside_the_ports(mask):
    g = make_A(4)
    with pytest.raises(KekulecError, match="outside the port set"):
        kekule_states_for(g, Assignment(g.ports, mask))


def test_states_for_respects_cycle_rank_bound():
    for g in atlas_graphs(max_edges=8, connected=True)[:150]:
        bound = 2 ** cycle_rank(g)
        for k in kekule_cell(g).members():
            assert len(kekule_states_for(g, k)) <= bound


def test_state_difference_identity(house5):
    w = enumerate_kekule_states(house5)[0]
    assert len(state_difference(w, w)) == 0


def test_state_difference_requires_same_graph(house5, ethene3):
    with pytest.raises(KekulecError):
        state_difference(enumerate_kekule_states(house5)[0],
                         enumerate_kekule_states(ethene3)[0])


def test_apply_curve_identity(ethene3):
    w = ethene3.subset([("u", "v")])
    assert apply_curve(w, ethene3.subset()) == w


def test_apply_curve_ethene(ethene3):
    w = ethene3.subset([("u", "v")])
    c = ethene3.subset([("p0", "u"), ("u", "v"), ("v", "p1")])
    assert apply_curve(w, c) == ethene3.subset([("p0", "u"), ("v", "p1")])


def test_apply_curve_rejects_non_alternating(ethene3):
    w = ethene3.subset([("u", "v")])
    c = ethene3.subset([("p0", "u"), ("u", "v")])  # not a curve at u
    with pytest.raises(KekulecError, match="not alternating"):
        apply_curve(w, c)


def test_difference_then_toggle_round_trip(phenantrene):
    states = enumerate_kekule_states(phenantrene)
    for w in states:
        for w2 in states:
            c = state_difference(w, w2)
            assert apply_curve(w, c) == w2


def test_phenantrene_depicted_state_curves(phenantrene):
    w = phenantrene.subset(PHEN_DEPICTED)
    assert is_kekule_state(phenantrene, w)
    curves = alternating_curves(phenantrene, w)
    assert len(curves) == 5
    shapes = sorted((len(c), len(curve_components(phenantrene, c)))
                    for c in curves)
    assert shapes == [(0, 0), (6, 1), (6, 1), (10, 1), (12, 2)]
    (disconnected,) = [c for c in curves
                       if len(curve_components(phenantrene, c)) == 2]
    hexes = [c for c in curves if len(c) == 6]
    assert disconnected == hexes[0] ^ hexes[1]


def test_alternating_curves_match_brute_force(ethene3, house5):
    for g in (ethene3, house5):
        for w in enumerate_kekule_states(g):
            got = {frozenset(c.edges()) for c in alternating_curves(g, w)}
            assert got == set(oracle.alternating_curves(g.edges, w.edges()))


def test_alternating_curves_single_edge():
    g = Graph([("a", "b")])
    w = g.subset([("a", "b")])
    assert [c.mask for c in alternating_curves(g, w)] == [0]


def test_alternating_curves_delta3_port_free():
    g = make_delta(3)
    w = g.subset([("p1", "u1"), ("u2", "u3")])
    assert [c.mask for c in alternating_curves(g, w)] == [0]


def test_alternating_curves_with_ports(ethene3):
    w = ethene3.subset([("u", "v")])
    assert len(alternating_curves(ethene3, w, with_ports=True)) == 3


def test_alternating_path_ethene(ethene3):
    w = ethene3.subset([("u", "v")])
    path = alternating_path(ethene3, w, "p0", "p1")
    assert path is not None
    assert sorted(path.edges()) == [("p0", "u"), ("p1", "v"), ("u", "v")]
    assert alternating_path(ethene3, w, "p0", "p2") is None


def test_alternating_path_follows_the_search_order():
    # toggling {v4, v5} asks for the states without port edges: {v0-v3, v1-v2},
    # giving the path v4-v0-v3-v5, and {v0-v2, v1-v3}, giving v4-v0-v2-v1-v3-v5.
    # The cover search branches first on v1 (least degree, then label) and
    # tries its neighbour v2 first, so it meets the short one first.
    g = Graph([("v0", "v2"), ("v0", "v3"), ("v0", "v4"), ("v1", "v2"), ("v1", "v3"),
               ("v3", "v5")])
    w = g.subset([("v0", "v4"), ("v1", "v2"), ("v3", "v5")])
    path = alternating_path(g, w, "v4", "v5")
    assert path == g.subset([("v0", "v3"), ("v0", "v4"), ("v3", "v5")])


def test_alternating_path_requires_ports(ethene3):
    w = ethene3.subset([("u", "v")])
    with pytest.raises(KekulecError, match="not a port"):
        alternating_path(ethene3, w, "u", "p0")


def test_alternating_path_matches_brute(ethene3, house5):
    for g in (ethene3, house5, make_delta(3)):
        for w in enumerate_kekule_states(g):
            for i, p in enumerate(g.ports):
                for q in g.ports[i + 1:]:
                    got = alternating_path(g, w, p, q)
                    expect = oracle.alternating_path_exists(g.edges, w.edges(), p, q)
                    assert (got is not None) == expect
                    if got is not None:
                        assert is_alternating(g, got, w)
                        comps = curve_components(g, got)
                        assert len(comps) == 1 and comps[0].kind == "path"


def test_states_per_assignment_match_brute_force():
    checked = 0
    for g in atlas_graphs(max_edges=8):
        want = {}
        for w in oracle.kekule_states(g.edges):
            want.setdefault(oracle.assignment_of(g.edges, w), set()).add(w)
        for mask in range(1 << len(g.ports)):
            a = Assignment(g.ports, mask)
            got = {frozenset(w.edges()) for w in kekule_states_for(g, a)}
            assert got == want.get(frozenset(a.labels()), set()), (g.edges, a)
            checked += 1
    assert checked == 1526


def test_parity_invariant_of_states():
    from kekulec import parity_space, signature
    for g in atlas_graphs(max_edges=7):
        space = parity_space(g.ports, signature(g))
        for w in enumerate_kekule_states(g):
            assert port_assignment(g, w) in space


def test_scale_guardrail():
    n = 9  # complete graph: cycle rank 28 exceeds the cap
    edges = [(f"k{i}", f"k{j}") for i in range(n) for j in range(i + 1, n)]
    with pytest.raises(KekulecError, match="allow_large"):
        enumerate_kekule_states(Graph(edges))


def test_scale_refusals_name_the_cli_flag():
    port_pairs = Graph([(f"p{i:02d}", f"q{i:02d}") for i in range(25)])
    for g, reason in ((make_delta(12), "state count bound 2^55 exceeds 2^24"),
                      (port_pairs, "2^25 free port-port edges exceed 2^24")):
        with pytest.raises(KekulecError) as refused:
            kekule_cell(g)
        assert str(refused.value) == (reason + "; pass allow_large=True, or --allow-large "
                                      "where the command has it, to override")


def test_long_chain_needs_no_recursion():
    g = make_A(3000)
    cell = kekule_cell(g)
    assert cell.format_lines() == ["{}", "{a1,a3000}"]
    (w,) = kekule_states_for(g, cell.members()[0])
    assert alternating_path(g, w, "a1", "a3000") is not None
