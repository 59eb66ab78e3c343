"""Each fast path cross-checked against the route it replaced.

``Graph`` construction against an independent build, the mask-level curve
tests against brute force, the member-only diameter-4 classification against
the full scan over every translation, and the rank guard's pre-check at its
boundary.
"""

import random
from itertools import combinations, permutations

import pytest

from kekulec import (Assignment, Cell, Graph, KekulecError, ParseError, classify_cell,
                     diameter, diameter4_template, enumerate_kekule_states, is_alternating,
                     is_curve, is_flexible, kekule_cell)
from kekulec.classify import BASE_CELLS
from kekulec.smallgraphs import atlas_graphs
from kekulec.transform import translate_graph

import oracle


def _attributes(g):
    return {
        "edges": g.edges,
        "nodes": g.nodes,
        "ports": g.ports,
        "internal": g.internal,
        "degree": dict(g.degree),
        "neighbors": {n: g.neighbors(n) for n in g.nodes},
        "incidence": {n: g.incidence_mask(n) for n in g.nodes},
        "index": {e: g.edge_index(*e) for e in g.edges},
    }


def _seeded_edge_lists(count=200):
    """Random edge lists over labels that sort differently from their
    numbers (p10 < p2), each listed in a shuffled order with shuffled ends."""
    rng = random.Random(8)
    labels = [f"p{i}" for i in range(1, 13)] + ["u", "v10", "v9"]
    out = []
    for _ in range(count):
        pairs = list(combinations(rng.sample(labels, rng.randint(2, len(labels))), 2))
        edges = rng.sample(pairs, rng.randint(1, min(len(pairs), 20)))
        out.append([(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
    return out


def test_graph_attributes_match_an_independent_build():
    lists = [list(g.edges) for g in atlas_graphs()]
    lists += [[(v, u) for u, v in reversed(edges)] for edges in lists]
    lists += _seeded_edge_lists()
    for edges in lists:
        assert _attributes(Graph(edges)) == oracle.graph_attributes(edges), edges


@pytest.mark.parametrize("edges, message", [
    ([("a", "b"), ("c", "c"), ("b", "a")], "self-loop at node 'c'"),
    ([("a", "b"), ("b", "a"), ("c", "c")], "duplicate edge a-b"),
    ([("a", "b"), ("x", ""), ("c", "c")], "malformed label ''"),
    ([("a", "b"), ("", 3), ("c", "c")], "malformed label ''"),
    ([("a", "b"), (3, ""), ("c", "c")], "malformed label 3"),
    ([("a", "b"), ["b", None], ("a", "b")], "malformed label None"),
    ([("a", "b"), "ab", (1, 2)], "malformed edge 'ab'"),
    ([("a", "b"), ("a", "b", "c"), ("c", "c")], "malformed edge ('a', 'b', 'c')"),
    ([("a", "b"), {"x": 1, "y": 2}, ("b", "a")], "malformed edge {'x': 1, 'y': 2}"),
    ([("b", "c"), ("u", "v"), ("v", "u"), ("x", "x")], "duplicate edge u-v"),
    ([("p10", "u"), ("u", "p2"), ("p2", "u")], "duplicate edge p2-u"),
    ([None], "malformed edge None"),
])
def test_first_bad_edge_names_the_error(edges, message):
    with pytest.raises(ParseError) as exc:
        Graph(edges)
    assert str(exc.value) == message


def test_curve_tests_match_brute_force():
    checked = 0
    for g in atlas_graphs(max_edges=8):
        edges = list(g.edges)
        states = [(w, frozenset(w.edges())) for w in enumerate_kekule_states(g)]
        for mask in range(1 << len(edges)):
            c = g.subset_from_mask(mask)
            plain = frozenset(c.edges())
            curve = oracle.is_curve(edges, plain)
            assert is_curve(g, c) == curve, (edges, mask)
            for w, w_edges in states:
                # oracle.is_alternating is False on every non-curve
                want = curve and oracle.is_alternating(edges, plain, w_edges)
                assert is_alternating(g, c, w) == want, (edges, mask, w_edges)
                checked += 1
    assert checked > 10_000


# -- the diameter-4 scan over all 16 translations, as it was --------------------

def _old_classify_diameter4(cell):
    ports = cell.ports
    for gm in sorted(range(16), key=lambda m: (bin(m).count("1"),
                                               [i for i in range(4) if m >> i & 1])):
        for perm in permutations(range(4)):
            image = frozenset(sum(1 << perm[i] for i in range(4) if (gm ^ m) >> i & 1)
                              for m in cell.masks)
            for k, base in enumerate(BASE_CELLS):
                if image == base:
                    inv = tuple(perm.index(j) for j in range(4))
                    plabels = tuple(ports[inv[j]] for j in range(4))
                    template = translate_graph(diameter4_template(k, plabels),
                                               Assignment(ports, gm))
                    return f"k{k}", gm, template.edges
    return None


def test_diameter4_classification_matches_the_full_scan():
    ports = ("a", "b", "c", "d")
    rest = [m for m in range(1, 16) if bin(m).count("1") % 2 == 0]
    cells = set()
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            for gm in range(16):
                cells.add(frozenset(gm ^ m for m in (0, *extra)))
    checked = hits = 0
    for masks in sorted(cells, key=sorted):
        cell = Cell(ports, masks)
        if not is_flexible(cell) or diameter(cell) != 4:
            continue
        want = _old_classify_diameter4(cell)
        got = classify_cell(cell)
        if want is None:
            assert not got.is_kekule
        else:
            assert got.is_kekule
            assert (got.tag, got.translation.mask, got.template.edges) == want
            hits += 1
        checked += 1
    assert (len(cells), checked, hits) == (510, 350, 134)


# -- the rank guard -----------------------------------------------------------------

def _dense(n_edges, n_nodes=10):
    """The first ``n_edges`` edges of K_n in label order: connected, rank E - V + 1."""
    edges = [(f"k{i}", f"k{j}") for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    return Graph(edges[:n_edges])


def test_scale_guard_refuses_rank_25():
    g = _dense(34)
    with pytest.raises(KekulecError, match=r"2\^25 exceeds 2\^24"):
        kekule_cell(g)
    assert len(kekule_cell(g, allow_large=True)) == 1


def test_scale_guard_admits_rank_24_past_the_pre_check():
    g = _dense(33)
    assert len(g.edges) - (len(g.nodes) + 1) // 2 > 24  # the component scan decides
    assert len(kekule_cell(g)) == 1
