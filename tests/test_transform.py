import pytest

from kekulec import (Assignment, Cell, Graph, KekulecError, RewriteReport,
                     add_internal_edge, attach_handles, flex,
                     flexible_subgraph, glue_ports, is_omniconjugated,
                     kekule_cell, make_A, make_B, make_delta, merge_node,
                     split_node, subdivide_port_edge, translate, translate_graph)
from kekulec.classify import star_graph

import oracle


def cell_of(g):
    return {frozenset(m) for m in oracle.cell_of(g.edges)}


# -- merge / split ------------------------------------------------------------

def test_merge_path():
    a5 = make_A(5)
    merged = merge_node(a5, "a3")
    assert merged.edges == (("a1", "a2"), ("a2", "a5"))
    assert cell_of(merged) == cell_of(a5) == {frozenset({"a1"}), frozenset({"a5"})}


def test_merge_common_neighbour_degree_bookkeeping():
    # u1, u2 adjacent, sharing neighbour v besides u0; all kept internal
    g = Graph([("u0", "u1"), ("u0", "u2"), ("u1", "u2"), ("u1", "v"),
               ("u2", "v"), ("u1", "w1"), ("u2", "w2"), ("v", "w3")])
    d1, d2 = g.degree["u1"], g.degree["u2"]
    merged = merge_node(g, "u0")
    assert merged.degree["u1"] == d1 + d2 - 2 - 2 * 1 - 1
    assert kekule_cell(merged) == kekule_cell(g)


def test_merge_rejects_port_neighbour():
    a3 = make_A(3)
    with pytest.raises(KekulecError, match="port"):
        merge_node(a3, "a2")


def test_merge_rejects_isolating_triangle():
    tri = Graph([("x", "y"), ("y", "z"), ("x", "z")])
    with pytest.raises(KekulecError, match="isolate"):
        merge_node(tri, "x")


def test_merge_rejects_port_set_change():
    cyc4 = Graph([("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
    with pytest.raises(KekulecError, match="port set"):
        merge_node(cyc4, "1")


def test_split_then_merge_is_identity():
    b = make_B()
    split = split_node(b, "a3", ["a2"], ["a4", "a5"])
    assert kekule_cell(split) == kekule_cell(b)
    assert merge_node(split, "a3#2") == b


def test_split_star_into_figure_tree():
    star = star_graph(("e1", "e2", "e3", "e4", "e5"))
    k1 = kekule_cell(star)
    once = split_node(star, "u", ["e1", "e2"], ["e3", "e4", "e5"])
    assert kekule_cell(once) == k1
    twice = split_node(once, "u#1", ["e3", "u#2"], ["e4", "e5"])
    assert kekule_cell(twice) == k1


def test_figure_tree_realizes_k1():
    tree = Graph([("h1", "h2"), ("h2", "h3"), ("h3", "h4"), ("h4", "h5"),
                  ("h5", "h6"), ("h6", "h7"), ("h2", "q1"), ("h4", "q2"),
                  ("h6", "q3")])
    assert kekule_cell(tree).masks == frozenset(
        1 << i for i in range(len(tree.ports)))


def test_split_until_degree_three():
    g = make_delta(4)
    cell = kekule_cell(g)
    while max(g.degree.values()) > 3:
        node = next(n for n in g.internal if g.degree[n] > 3)
        nbs = [nb for nb, _ in g.neighbors(node)]
        g = split_node(g, node, nbs[:2], nbs[2:])
        assert kekule_cell(g) == cell
    assert max(g.degree.values()) == 3


def test_split_rejects_bad_partition():
    b = make_B()
    with pytest.raises(KekulecError, match="partition"):
        split_node(b, "a3", ["a2"], ["a2", "a4"])
    with pytest.raises(KekulecError, match="partition"):
        split_node(b, "a3", [], ["a2", "a4", "a5"])


# -- subdivision and translation ------------------------------------------------

def test_subdivide_single_edge():
    a2 = Graph([("a", "b")])
    a3 = subdivide_port_edge(a2, "a")
    assert a3.edges == (("a", "a#1"), ("a#1", "b"))
    assert cell_of(a3) == {frozenset({"a"}), frozenset({"b"})}


def test_subdivide_twice_restores_translate():
    eth = Graph([("p0", "u"), ("p2", "u"), ("u", "v"), ("v", "p1")])
    twice = subdivide_port_edge(subdivide_port_edge(eth, "p0"), "p0")
    assert kekule_cell(twice) == kekule_cell(eth)


def test_subdivide_requires_port(house5):
    with pytest.raises(KekulecError, match="not a port"):
        subdivide_port_edge(house5, "n2")


def test_translate_graph_empty_is_identity(house5):
    assert translate_graph(house5, Assignment(house5.ports, 0)) == house5


@pytest.mark.parametrize("mask", [0b100, -1])
def test_translate_graph_rejects_masks_outside_the_ports(mask):
    g = make_A(4)
    with pytest.raises(KekulecError, match="outside the port set"):
        translate_graph(g, Assignment(g.ports, mask))


def test_translate_graph_house5(house5):
    g = translate_graph(house5, Assignment.of(house5.ports, ("n1",)))
    assert cell_of(g) == {frozenset(), frozenset({"n1", "n4"})}


def test_translate_graph_law(ethene3, house5):
    for g in (ethene3, house5):
        for mask in range(1 << len(g.ports)):
            a = Assignment(g.ports, mask)
            assert kekule_cell(translate_graph(g, a)) == translate(a, kekule_cell(g))


# -- flexible subgraph and handles ----------------------------------------------

def test_flexible_subgraph_ethene(ethene3):
    assert flexible_subgraph(ethene3) == ethene3


def test_flexible_subgraph_house5(house5):
    flexible = flexible_subgraph(house5)
    assert set(flexible.edges) == {("n1", "n2"), ("n2", "n5"), ("n3", "n5"),
                                   ("n3", "n4")}
    assert kekule_cell(flexible) == flex(kekule_cell(house5))


def test_flexible_subgraph_single_state(single_state_graph):
    flexible = flexible_subgraph(single_state_graph)
    assert flexible.edges == ()
    assert kekule_cell(flexible) == Cell((), frozenset({0}))


def test_flexible_subgraph_requires_states(no_state_graph):
    with pytest.raises(KekulecError, match="no Kekulé state"):
        flexible_subgraph(no_state_graph)


def test_attach_handles_identity():
    a2 = Graph([("a", "b")])
    assert attach_handles(a2) == a2


def test_attach_handles_always_on():
    a2 = Graph([("a", "b")])
    g = attach_handles(a2, always_on=["x"])
    cell = kekule_cell(g)
    assert all("x" in k for k in cell.members())
    assert cell.format_lines() == ["{x}", "{a,b,x}"]


def test_attach_handles_never_on():
    a2 = Graph([("a", "b")])
    g = attach_handles(a2, never_on=["y"])
    cell = kekule_cell(g)
    assert all("y" not in k for k in cell.members())
    assert len(cell) == 2


def test_attach_handles_label_collision():
    a2 = Graph([("a", "b")])
    with pytest.raises(KekulecError, match="collision"):
        attach_handles(a2, always_on=["a"])


def test_attach_handles_avoids_existing_suffixed_labels():
    g = Graph([("x#1", "b")])  # would clash with a naive gadget name
    out = attach_handles(g, always_on=["x"])
    cell = kekule_cell(out)
    assert set(out.ports) == {"b", "x", "x#1"}
    assert all("x" in k for k in cell.members())


def test_handles_invert_flex(house5, single_state_graph):
    for g in (house5, single_state_graph):
        cell = kekule_cell(g)
        union = 0
        inter = (1 << len(g.ports)) - 1
        for m in cell.masks:
            union |= m
            inter &= m
        always = [p for i, p in enumerate(g.ports) if inter >> i & 1]
        never = [p for i, p in enumerate(g.ports) if not union >> i & 1]
        rebuilt = attach_handles(flexible_subgraph(g), always, never)
        assert kekule_cell(rebuilt) == cell


# -- internal edges and gluing ---------------------------------------------------

def test_add_internal_edges_build_model_b():
    b = add_internal_edge(add_internal_edge(make_A(6), "a2", "a4"), "a3", "a5")
    assert b == make_B()


def test_add_internal_edge_preserves_omni():
    b = make_B()
    assert is_omniconjugated(add_internal_edge(b, "a2", "a5")).omniconjugated


def test_add_internal_edge_errors():
    b = make_B()
    with pytest.raises(KekulecError, match="port"):
        add_internal_edge(b, "a1", "a3")
    with pytest.raises(KekulecError, match="already present"):
        add_internal_edge(b, "a2", "a4")


def test_glue_two_edges():
    g = glue_ports(Graph([("a", "b")]), "a", Graph([("c", "d")]), "d")
    assert g.edges == (("b", "c"),)


def test_glue_delta3_pair_is_omniconjugated():
    left = Graph((f"L{u}", f"L{v}") for u, v in make_delta(3).edges)
    right = Graph((f"R{u}", f"R{v}") for u, v in make_delta(3).edges)
    fused = glue_ports(left, "Lp1", right, "Rp1")
    assert len(fused.ports) == 4
    assert is_omniconjugated(fused).omniconjugated


def test_glue_with_non_omni_is_non_omni(ethene3):
    left = Graph((f"L{u}", f"L{v}") for u, v in make_delta(3).edges)
    right = Graph((f"R{u}", f"R{v}") for u, v in ethene3.edges)
    fused = glue_ports(left, "Lp1", right, "Rp0")
    assert not is_omniconjugated(fused).omniconjugated


def test_glue_label_overlap(house5):
    with pytest.raises(KekulecError, match="overlap"):
        glue_ports(house5, "n1", house5, "n4")


def test_rewrite_report_diff():
    a5 = make_A(5)
    merged = merge_node(a5, "a3")
    report = RewriteReport.diff("merge a3", a5, merged)
    assert report.removed_nodes == ("a3", "a4")
    assert report.added_nodes == ()
    assert ("a2", "a5") in report.added_edges
    assert any("operation: merge a3" in line for line in report.format_lines())


# -- refusals ---------------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: split_node(make_A(4), "zz", ["a1"], ["a3"]), KekulecError,
                 "no node 'zz' in graph", id="split-unknown-node"),
    pytest.param(lambda: add_internal_edge(make_A(4), "a2", "zz"), KekulecError,
                 "no node 'zz' in graph", id="add-edge-unknown-node"),
    pytest.param(lambda: glue_ports(make_A(3), "a2", make_A(3), "a1"), KekulecError,
                 "'a2' is not a port of the first graph", id="glue-first-not-a-port"),
    pytest.param(lambda: glue_ports(make_A(3), "a1", make_delta(2), "zz"), KekulecError,
                 "'zz' is not a port of the second graph", id="glue-second-not-a-port"),
])
def test_transform_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
