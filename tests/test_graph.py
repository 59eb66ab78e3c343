import json

import pytest
from hypothesis import given, strategies as st

from kekulec import (Graph, KekulecError, ParseError, connected_components,
                     curve_components, cycle_basis, cycle_rank, is_curve,
                     make_delta, parse_document, parse_graph, signature)
from kekulec import gf2
from kekulec.graph import normalize_edge
from kekulec.smallgraphs import atlas_graphs

import oracle


def doc(edges, **extra):
    return json.dumps({"edges": [list(e) for e in edges], **extra})


def test_parse_basic():
    g = parse_graph(doc([["p0", "u"], ["u", "v"], ["v", "p1"], ["u", "p2"]]))
    assert len(g.nodes) == 5
    assert g.ports == ("p0", "p1", "p2")


def test_parse_canonical_order():
    g = parse_graph(doc([["v", "u"], ["b", "a"]]))
    assert g.edges == (("a", "b"), ("u", "v"))
    assert g.nodes == ("a", "b", "u", "v")


@pytest.mark.parametrize("bad, message", [
    ([["a", "a"]], "self-loop"),
    ([["a", "b"], ["b", "a"]], "duplicate edge"),
    ([], "empty edge list"),
    ([["a", ""]], "malformed label"),
    ([["a", 3]], "malformed label"),
    ([["a", "b", "c"]], "malformed edge"),
    # a dict row is a whole document, a list row the edges alone
    ({"edges": [["p0", "u"], ["u", "p1"]], "channels": {"A": ["p0", "p0"]}},
     "endpoints must differ"),
    ({"edges": [["p0", "u"], ["u", "p1"]], "channels": {"": ["p0", "p1"]}},
     "malformed channel name"),
    ({"edges": [["p0", "u"], ["u", "p1"]], "initial": ["p0", "p0"]},
     "duplicate label in initial assignment"),
])
def test_parse_errors(bad, message):
    with pytest.raises(ParseError, match=message):
        parse_graph(json.dumps(bad) if isinstance(bad, dict) else doc(bad))


@pytest.mark.parametrize("edge", ["ab", {"x": 1, "y": 2}, {"u": "v", "w": "x"}])
def test_parse_rejects_edges_that_are_not_lists(edge):
    with pytest.raises(ParseError) as exc:
        parse_document(json.dumps({"edges": [["a", "b"], edge]}))
    assert str(exc.value) == f"malformed edge {edge!r}"


def test_parse_unknown_key_warns():
    d = parse_document(doc([["a", "b"]], colour="red"))
    assert d.warnings == ("unknown key 'colour' ignored",)


def test_parse_functional_keys():
    d = parse_document(doc([["a", "u"], ["u", "b"]],
                           channels={"A": ["a", "b"]},
                           sockets={}, initial=["a"]))
    assert d.channels == {"A": ("a", "b")}
    assert d.initial == ("a",)


def test_classify_nodes_house5(house5):
    assert house5.ports == ("n1", "n4")
    assert house5.internal == ("n2", "n3", "n5")
    assert house5.degree == {"n1": 1, "n4": 1, "n5": 2, "n2": 3, "n3": 3}


def test_classify_nodes_single_edge():
    g = Graph([("a", "b")])
    assert g.ports == ("a", "b") and g.internal == ()


def test_classify_nodes_delta3():
    g = make_delta(3)
    assert len(g.ports) == 3 and len(g.internal) == 3
    assert all(g.degree[v] == 3 for v in g.internal)


@pytest.mark.parametrize("edges, expected", [
    ([("a", "b")], 0),
    ([("p0", "u"), ("p2", "u"), ("u", "v"), ("v", "p1")], 0),
])
def test_signature(edges, expected):
    assert signature(Graph(edges)) == expected


def test_signature_delta3():
    assert signature(make_delta(3)) == 1


def test_connected_components():
    two = Graph([("a", "b"), ("c", "d")])
    comps = connected_components(two)
    assert [c.edges for c in comps] == [(("a", "b"),), (("c", "d"),)]


def test_connected_components_house5(house5):
    assert len(connected_components(house5)) == 1


def test_connected_components_two_paths():
    g = Graph([("a", "l1"), ("l1", "l2"), ("l2", "b"),
               ("c", "r1"), ("r1", "r2"), ("r2", "d")])
    assert len(connected_components(g)) == 2


def test_is_curve_empty(phenantrene):
    assert is_curve(phenantrene, phenantrene.subset())


def test_is_curve_single_internal_edge(phenantrene):
    assert not is_curve(phenantrene, phenantrene.subset([("c01", "c02")]))


def test_is_curve_hexagon(phenantrene):
    hexagon = [("c01", "c02"), ("c02", "c03"), ("c03", "c04"),
               ("c04", "c05"), ("c05", "c14"), ("c14", "c01")]
    assert is_curve(phenantrene, phenantrene.subset(hexagon))


def test_curve_components_empty(phenantrene):
    assert curve_components(phenantrene, phenantrene.subset()) == []


def test_curve_components_cycle(phenantrene):
    hexagon = [("c01", "c02"), ("c02", "c03"), ("c03", "c04"),
               ("c04", "c05"), ("c05", "c14"), ("c14", "c01")]
    (comp,) = curve_components(phenantrene, phenantrene.subset(hexagon))
    assert comp.kind == "cycle" and len(comp.subset) == 6


def test_curve_components_path(ethene3):
    c = ethene3.subset([("p0", "u"), ("u", "v"), ("v", "p1")])
    (comp,) = curve_components(ethene3, c)
    assert comp.kind == "path" and comp.endpoints == ("p0", "p1")


def test_curve_components_round_trip(phenantrene):
    two_hex = [("c01", "c02"), ("c02", "c03"), ("c03", "c04"), ("c04", "c05"),
               ("c05", "c14"), ("c14", "c01"),
               ("c06", "c07"), ("c07", "c08"), ("c08", "c09"), ("c09", "c10"),
               ("c10", "c11"), ("c11", "c06")]
    c = phenantrene.subset(two_hex)
    comps = curve_components(phenantrene, c)
    assert len(comps) == 2
    union = 0
    nodes = []
    for comp in comps:
        union |= comp.subset.mask
        nodes.extend(comp.subset.nodes())
    assert union == c.mask
    assert len(nodes) == len(set(nodes))


def test_cycle_basis_tree():
    tree = Graph([("a", "b"), ("b", "c"), ("b", "d")])
    assert cycle_basis(tree) == []


def test_cycle_basis_phenantrene(phenantrene):
    cycles = cycle_basis(phenantrene)
    assert len(cycles) == 16 + 1 - 14
    assert gf2.independent([c.mask for c in cycles])
    for c in cycles:
        comps = curve_components(phenantrene, c)
        assert len(comps) == 1 and comps[0].kind == "cycle"


def test_cycle_basis_delta3():
    (cycle,) = cycle_basis(make_delta(3))
    assert len(cycle) == 3


def test_cycle_basis_requires_connected():
    with pytest.raises(KekulecError, match="connected graph required"):
        cycle_basis(Graph([("a", "b"), ("c", "d")]))


def test_cycle_rank_disconnected():
    assert cycle_rank(Graph([("a", "b"), ("c", "d")])) == 0


def test_edge_lookups_agree_with_the_edge_tuple():
    # every ordered node pair of every atlas graph, u == v included, and
    # labels that sort before and after every node
    for g in atlas_graphs():
        edges = set(g.edges)
        labels = ("a", *g.nodes, "zz")
        for u in labels:
            for v in labels:
                e = normalize_edge(u, v)
                assert ((u, v) in g) == (e in edges)
                if e in edges:
                    assert g.edge_index(u, v) == g.edges.index(e)
                else:
                    with pytest.raises(KekulecError) as exc:
                        g.edge_index(u, v)
                    assert str(exc.value) == f"no edge {e[0]}-{e[1]} in graph"


def test_subset_cross_graph_xor():
    g1, g2 = Graph([("a", "b")]), Graph([("c", "d")])
    with pytest.raises(KekulecError):
        g1.subset() ^ g2.subset()


@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))
               .filter(lambda t: t[0] != t[1]), min_size=1, max_size=14))
def test_odd_degree_count_is_even(pairs):
    g = Graph({(f"n{min(a, b)}", f"n{max(a, b)}") for a, b in pairs})
    odd = sum(1 for n in g.nodes if g.degree[n] % 2 == 1)
    assert odd % 2 == 0


def test_degrees_match_oracle(house5):
    assert dict(house5.degree) == oracle.degree_map(house5.edges)


def test_classification_accounting():
    for g in (Graph([("a", "b")]), make_delta(4)):
        assert len(g.ports) + len(g.internal) == len(g.nodes)
        assert sum(g.degree.values()) == 2 * len(g.edges)


def test_parse_document_must_be_object():
    with pytest.raises(ParseError, match="JSON object"):
        parse_document("[1, 2]")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_document("{nope")
    with pytest.raises(ParseError, match="missing 'edges'"):
        parse_document("{}")
    with pytest.raises(ParseError, match="list of pairs"):
        parse_document('{"edges": 5}')


# nesting past the decoder's recursion, at the top or under an unknown key,
# and integer literals past Python's int-string digit limit
PATHOLOGICAL_JSON = {
    "deep-array": ("[" * 100_000, "JSON nests too deeply to parse"),
    "deep-unknown-key": ('{"edges": [["a", "b"]], "x": ' + "[" * 2000 + "]" * 2000 + "}",
                         "JSON nests too deeply to parse"),
    "long-int": ('{"edges": [["a", "b"]], "x": ' + "7" * 5000 + "}",
                 "JSON integer literal has too many digits to parse"),
    "long-negative-int-edge": ('{"edges": [["a", -' + "7" * 5000 + "]]}",
                               "JSON integer literal has too many digits to parse"),
}


@pytest.mark.parametrize("name", PATHOLOGICAL_JSON)
def test_parse_document_refuses_pathological_json(name):
    text, message = PATHOLOGICAL_JSON[name]
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["channels", "sockets"])
@pytest.mark.parametrize("value", [[1], [["p0", "p1"]], "A", 3, True])
def test_parse_document_named_pairs_must_be_object(key, value):
    text = json.dumps({"edges": [["p0", "u"], ["u", "p1"]], key: value})
    with pytest.raises(ParseError, match=f"'{key}' must be an object"):
        parse_document(text)


def test_parse_document_null_named_pairs_are_absent():
    doc = parse_document('{"edges": [["a", "b"]], "channels": null, "sockets": null}')
    assert doc.channels == {} and doc.sockets == {}


def test_no_state_graph_properties(no_state_graph):
    from kekulec import enumerate_kekule_states, is_omniconjugated, kekule_cell
    assert len(no_state_graph.ports) == 2
    assert enumerate_kekule_states(no_state_graph) == []
    assert len(kekule_cell(no_state_graph)) == 0
    assert not is_omniconjugated(no_state_graph).omniconjugated


def test_single_state_graph_properties(single_state_graph):
    from kekulec import enumerate_kekule_states
    states = enumerate_kekule_states(single_state_graph)
    assert len(states) == 1
    assert sorted(states[0].edges()) == [("b2", "c"), ("t1", "t2")]


# -- refusals ---------------------------------------------------------------------

A3 = Graph([("a1", "a2"), ("a2", "a3")])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: A3.subset_from_mask(4), KekulecError,
                 "mask 0x4 outside edge space", id="mask-past-edges"),
    pytest.param(lambda: A3.subset_from_mask(-1), KekulecError,
                 "mask -0x1 outside edge space", id="mask-negative"),
    pytest.param(lambda: is_curve(A3, make_delta(2).subset()), KekulecError,
                 "edge subset belongs to a different graph", id="curve-other-graph"),
    pytest.param(lambda: curve_components(A3, A3.subset([("a1", "a2")])), KekulecError,
                 "subset is not a curve", id="components-not-a-curve"),
])
def test_graph_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
