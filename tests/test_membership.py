"""The compiled membership probe and the frontier DP against the state
search they replace, and against a closure over probes.

``_Membership(g)(mask)`` decides cell membership by a matching search on the
internal nodes; ``kekule_states_for`` enumerates the states of the assignment
by backtracking.  Both must agree on every mask, of either parity.
``kekule_cell`` takes its parity class from ``signature(g)``, decides a class
of one mask by one probe, and otherwise takes its cell from the frontier DP
(``_Membership.realized``) or from the settled layers and a scan of the open
ones, which is also the fallback past the DP's budget; every route must find
exactly the assignments of the enumerated states.
"""

import functools
import itertools
import random
import time
import tracemalloc
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from kekulec import (Assignment, Graph, KekulecError, enumerate_kekule_states,
                     has_kekule_state_for, is_omniconjugated, kekule_cell,
                     kekule_states_for, make_A, make_delta, parity_space,
                     pendant_core_is_complete, port_assignment,
                     realized_assignment_count, signature)
from kekulec.cells import closure, ordered_masks
from kekulec import kekule
from kekulec.graph import EdgeSubset
from kekulec.kekule import _Membership
from kekulec.smallgraphs import atlas_graphs, random_connected_graph

import oracle

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


@functools.cache
def scanned_hex_cell(m, n, ports, seed):
    """The cell of a seeded hex patch by a route of its own: one probe per
    mask of its parity class, as the scan past the DP's budget makes them."""
    g = hex_patch(m, n, ports, random.Random(seed))
    probe = _Membership(g)
    return frozenset(mask for mask in ordered_masks(ports, signature(g)) if probe(mask))


@pytest.mark.parametrize("m, n, ports, seed", [
    (2, 2, 4, 1), (2, 2, 6, 2), (3, 3, 6, 3), (3, 3, 8, 4), (3, 3, 10, 5),
    (8, 8, 16, 1), (10, 10, 16, 1),
])
def test_cell_agrees_on_hex_patches(m, n, ports, seed):
    g = hex_patch(m, n, ports, random.Random(seed))
    if m * n <= 9:
        assert_cell_agrees(g)
    else:
        # far past the enumeration range: against the scan instead
        assert kekule_cell(g, allow_large=True).masks == scanned_hex_cell(m, n, ports, seed)


def test_cell_agrees_with_port_port_edges():
    assert_cell_agrees(PORT_PAIR_GRAPH)


def compiles(monkeypatch):
    """The graphs ``_Membership`` compiles from here on, in order, with the
    memo of ``kekule._compiled`` emptied first."""
    monkeypatch.setattr(kekule, "_last", (None, None))
    compiled = []
    init = _Membership.__init__

    def counted(self, graph):
        compiled.append(graph)
        init(self, graph)

    monkeypatch.setattr(_Membership, "__init__", counted)
    return compiled


COMPILE_GRAPHS = pytest.mark.parametrize(
    "g", [hex_patch(3, 3, 8, random.Random(4)), make_delta(5), make_A(4), PORT_PAIR_GRAPH],
    ids=["hex3x3", "delta5", "a4", "port-pair"])


@COMPILE_GRAPHS
def test_one_compile_per_cell_and_count(g, monkeypatch):
    # a run of calls on one Graph object compiles it once: the first call
    # compiles, the second shares its probe
    compiled = compiles(monkeypatch)
    kekule_cell(g)
    assert list(map(id, compiled)) == [id(g)]
    compiled.clear()
    realized_assignment_count(g)
    assert compiled == []


@COMPILE_GRAPHS
def test_one_compile_per_verdict_and_count(g, monkeypatch):
    compiled = compiles(monkeypatch)
    is_omniconjugated(g)
    realized_assignment_count(g)
    assert list(map(id, compiled)) == [id(g)]


def test_an_equal_graph_compiles_again(monkeypatch):
    g = hex_patch(3, 3, 8, random.Random(4))
    twin = Graph(g.edges)
    assert twin == g and twin is not g
    compiled = compiles(monkeypatch)
    realized_assignment_count(g)
    realized_assignment_count(twin)
    assert list(map(id, compiled)) == [id(g), id(twin)]


def test_the_memo_holds_one_graph(monkeypatch):
    g1, g2 = make_delta(5), make_A(4)
    compiled = compiles(monkeypatch)
    for g in (g1, g2, g1):
        kekule_cell(g)
    assert list(map(id, compiled)) == [id(g1), id(g2), id(g1)]


def test_one_compile_per_probe_loop(monkeypatch):
    g = hex_patch(3, 3, 10, random.Random(5))
    compiled = compiles(monkeypatch)
    members = {mask for mask in range(1 << 10) if has_kekule_state_for(g, Assignment(g.ports, mask))}
    assert list(map(id, compiled)) == [id(g)]
    assert members == kekule_cell(g).masks


def entry_points(g, masks, before=lambda: None):
    """One call of each membership entry point on ``g``, a result at a time,
    with ``before()`` run ahead of each call."""
    before()
    yield kekule_cell(g).masks
    before()
    yield realized_assignment_count(g)
    if len(g.ports) >= 2:
        before()
        yield is_omniconjugated(g)
    for mask in masks:
        before()
        yield has_kekule_state_for(g, Assignment(g.ports, mask))


def assert_shared_probe_agrees(graphs, seed, monkeypatch):
    """The entry points interleaved over each graph, an equal copy of it,
    the next graph and the graph again, each result against the same call
    after a memo reset, and each probe against the state search."""
    rng = random.Random(seed)

    def reset():
        monkeypatch.setattr(kekule, "_last", (None, None))

    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        run = [g, Graph(g.edges), other, g]
        masks = [range(1 << len(h.ports)) if len(h.ports) <= 3
                 else rng.sample(range(1 << len(h.ports)), 8) for h in run]
        # round-robin over the four runs, so the calls alternate between graphs
        results = [[] for _ in run]
        for step in itertools.zip_longest(*map(entry_points, run, masks)):
            for out, result in zip(results, step):
                out.append(result)
        for h, sample, out in zip(run, masks, results):
            fresh = list(entry_points(h, sample, reset))
            assert out[:len(fresh)] == fresh, h.edges
            assert fresh[1] == len(fresh[0])
            for mask, member in zip(sample, fresh[len(fresh) - len(sample):]):
                assert member == bool(kekule_states_for(h, Assignment(h.ports, mask))), h.edges


def test_shared_probe_agrees_on_the_atlas(monkeypatch):
    assert_shared_probe_agrees([g for g in atlas_graphs() if g.ports], 21, monkeypatch)


def test_shared_probe_agrees_on_random_graphs(monkeypatch):
    rng = random.Random(22)
    graphs = []
    while len(graphs) < 1000:
        g = random_connected_graph(rng, max_edges=14)
        if g.ports:
            graphs.append(g)
    assert_shared_probe_agrees(graphs, 23, monkeypatch)


def test_state_searches_compile_no_probe(monkeypatch):
    # the cover search numbers its own nodes; the probe's tables are built
    # only where a probe or the DP follows, and a portless graph with an odd
    # signature, such as the triangle, has an empty cell without one
    compiled = count_calls(monkeypatch, "__init__")
    for g in (make_A(6), PORT_PAIR_GRAPH, hex_patch(2, 2, 4, random.Random(1))):
        w = enumerate_kekule_states(g)[0]
        assert kekule_states_for(g, port_assignment(g, w))
        kekule.alternating_path(g, w, *g.ports[:2])
    triangle = Graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert signature(triangle) == 1 and kekule_cell(triangle).masks == frozenset()
    assert compiled == {"__init__": 0}


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


# -- the frontier DP, the one cell route ---------------------------------------------
#
# The parametrized tests keep the names they had when the warm-started channel
# moves decided the cells of bipartite cores; the frontier DP replaced those moves.

def channel_moves(k):
    return [1 << i | 1 << j for j in range(k) for i in range(j)]


def probe_cell(g):
    """The cell by a route of its own: the closure over ``_Membership`` probes
    under channel moves from the assignment of the cover search's first
    state, complete by the channel-decomposition law."""
    state = next(kekule._covers(g))
    member = port_assignment(g, EdgeSubset(g, state)).mask
    return closure(member, channel_moves(len(g.ports)), _Membership(g))


def dp_cell(g):
    """The cell by the frontier DP, read bit by bit; None over budget."""
    realized = _Membership(g).realized()
    if realized is None:
        return None
    return {m for m in range(realized.bit_length()) if realized >> m & 1}


def takes_dp_route(g):
    """Whether ``kekule_cell`` ends in the frontier DP: two ports or more, a
    layer of the parity class of ``signature(g)`` left open and the DP
    within budget."""
    if len(g.ports) < 2:
        return False
    probe = _Membership(g)
    return (not all(settled for _, settled in probe.layers())
            and probe.realized() is not None)


def assert_routes_agree(g, enumerable=True):
    """``kekule_cell`` equals the probe closure, the frontier DP where it is
    within budget, and the assignments of the enumerated states."""
    cell = kekule_cell(g, allow_large=True).masks
    assert cell == probe_cell(g), g.edges
    dp = dp_cell(g)
    assert dp is None or dp == cell, g.edges
    if enumerable:
        assert cell == {port_assignment(g, w).mask for w in enumerate_kekule_states(g)}
    return cell


def test_routes_agree_on_the_atlas():
    dp = 0
    for g in atlas_graphs():
        if next(kekule._covers(g), None) is None:
            assert kekule_cell(g).masks == frozenset() == dp_cell(g)
            continue
        assert_routes_agree(g)
        dp += takes_dp_route(g)
    assert dp >= 150


@pytest.mark.parametrize("n", [*range(3, 13), 300, 3000])
def test_warm_route_on_chains(n):
    g = make_A(n)
    assert takes_dp_route(g)
    assert_routes_agree(g)


@pytest.mark.parametrize("n", range(2, 8))
def test_delta_keeps_the_probe_route(n):
    # every layer settles from the triangle on, so the DP checks the parity
    # class there; delta2 is one bipartite edge and takes the DP
    g = make_delta(n)
    assert takes_dp_route(g) == (n == 2)
    assert dp_cell(g) == set(parity_space(g.ports, signature(g)).masks)
    assert len(assert_routes_agree(g)) == 1 << (n - 1)


@pytest.mark.parametrize("m, n, ports, seed", [
    (2, 2, 4, 1), (2, 2, 6, 2), (2, 3, 6, 3), (3, 2, 8, 4), (3, 3, 8, 5),
    (3, 3, 10, 6), (3, 4, 8, 7), (4, 3, 10, 8), (4, 4, 10, 9),
])
def test_warm_route_on_hex_patches(m, n, ports, seed):
    g = hex_patch(m, n, ports, random.Random(seed))
    assert takes_dp_route(g)
    assert_routes_agree(g)


def test_dp_past_the_enumeration_range():
    g = hex_patch(6, 6, 12, random.Random(2))
    assert takes_dp_route(g)
    assert len(assert_routes_agree(g, enumerable=False)) == 637


def test_dp_with_several_ports_on_one_node():
    # a hexagon x1..x6 with two ports on x1, two on x4, one on x2 and x3,
    # and three on the stub node y hanging off x6
    g = Graph([("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x5", "x6"),
               ("x6", "x1"), ("x6", "y"), ("x1", "p1"), ("x1", "p2"), ("x4", "p3"),
               ("x4", "p4"), ("x2", "p5"), ("x3", "p6"), ("y", "p7"), ("y", "p8"),
               ("y", "p9")])
    assert takes_dp_route(g)
    cell = assert_routes_agree(g)
    assert 0 < len(cell) < 1 << (len(g.ports) - 1)


def test_random_bipartite_cores_with_crowded_ports():
    rng = random.Random(21)
    dp = 0
    for _ in range(300):
        left, right = rng.randint(1, 4), rng.randint(1, 4)
        edges = {(f"l{i}", f"r{j}") for i in range(left) for j in range(right)
                 if rng.random() < 0.6}
        nodes = sorted({v for e in edges for v in e})
        if len(nodes) < 2:
            continue
        edges |= {(f"p{i:02d}", rng.choice(nodes)) for i in range(rng.randint(2, 7))}
        g = Graph(sorted(edges))
        if next(kekule._covers(g), None) is None:
            assert dp_cell(g) == set()
            continue
        assert_routes_agree(g)
        dp += takes_dp_route(g)
    assert dp >= 100


def test_port_port_edges_fold_into_the_dp():
    # a square with two ports and an isolated port pair
    g = Graph([("q1", "q2"), ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"),
               ("x", "p1"), ("y", "p2")])
    assert takes_dp_route(g)
    assert assert_routes_agree(g) == {0b0000, 0b0011, 0b1100, 0b1111}
    assert takes_dp_route(PORT_PAIR_GRAPH)
    assert_routes_agree(PORT_PAIR_GRAPH)
    # make_A(2) is a single port-port edge: no internal node, one empty
    # state, and the edge folded in as the mask 0b11
    assert _Membership(make_A(2)).realized() == 1 | 1 << 0b11
    assert assert_routes_agree(make_A(2)) == {0b00, 0b11}


def test_mixed_components():
    square = [("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"), ("x", "p1"), ("y", "p2")]
    triangle = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "p3")]
    hexagon = [(f"h{i}", f"h{(i + 1) % 6}") for i in range(6)] + [("h0", "p4"),
                                                                   ("h3", "p5")]
    # a non-bipartite component, with ports or without
    for edges in (square + triangle, square + triangle[:3] + [("c", "d")]):
        g = Graph(edges)
        assert takes_dp_route(g)
        assert_routes_agree(g)
    # two bipartite components: each keeps its own even share of the ports
    g = Graph(square + hexagon)
    assert takes_dp_route(g)
    assert assert_routes_agree(g) == {0b0000, 0b0011, 0b1100, 0b1111}


def test_no_start_state_no_route(no_state_graph):
    assert next(kekule._covers(no_state_graph), None) is None
    assert kekule_cell(no_state_graph).masks == frozenset()
    probe = _Membership(no_state_graph)
    assert not any(probe(mask) for mask in range(1 << len(no_state_graph.ports)))
    assert probe.realized() == 0


def test_dp_on_dense_cores_with_shared_and_paired_ports():
    rng = random.Random(45)
    dp = 0
    for i in range(200):
        edges = dense_core_with_ports(rng, port_pair=i % 2 == 1)
        g = Graph(edges)
        if next(kekule._covers(g), None) is None:
            assert dp_cell(g) == set()
            continue
        cell = assert_routes_agree(g)
        if len(edges) <= 13:
            assert {frozenset(Assignment(g.ports, m).labels()) for m in cell} \
                == oracle.cell_of(edges), edges
        dp += takes_dp_route(g)
    assert dp >= 150


def test_dp_on_random_non_bipartite_graphs():
    rng = random.Random(46)
    odd = 0
    while odd < 150:
        g = random_connected_graph(rng, max_edges=14)
        core = nx.Graph([e for e in g.edges if not set(e) & set(g.ports)])
        if nx.is_bipartite(core):
            continue
        odd += 1
        if next(kekule._covers(g), None) is None:
            assert dp_cell(g) == set()
            continue
        cell = assert_routes_agree(g)
        if len(g.edges) <= 10:
            assert {frozenset(Assignment(g.ports, m).labels()) for m in cell} \
                == oracle.cell_of(list(g.edges)), g.edges


def c60_with_ports():
    """C60, the truncated icosahedron, with one pendant port per pentagon.

    Each icosahedron vertex v becomes a pentagon of nodes (v, u), one per
    neighbour u in the clockwise order of a planar embedding, and each
    icosahedron edge {u, v} joins (u, v) to (v, u)."""
    ico = nx.icosahedral_graph()
    _, embedding = nx.check_planarity(ico)
    edges = []
    for v in ico:
        ring = list(embedding.neighbors_cw_order(v))
        edges += [(f"c{v:02d}{a:02d}", f"c{v:02d}{b:02d}")
                  for a, b in zip(ring, ring[1:] + ring[:1])]
    edges += [(f"c{u:02d}{v:02d}", f"c{v:02d}{u:02d}") for u, v in ico.edges]
    edges += [(f"p{v:02d}", f"c{v:02d}{min(ico[v]):02d}") for v in ico]
    return Graph(edges)


def fused_ring_chain(sizes, ports, rng):
    """Rings of the given sizes fused in a row, each sharing a rung with the
    next, as pentagons and heptagons fuse in azulene; pendant ports go on
    ``ports`` of the degree-2 nodes."""
    edges = [("t00", "b00")]
    top, bottom = "t00", "b00"
    for r, size in enumerate(sizes):
        up = (size - 3) // 2  # a ring of size s adds s - 4 nodes between its rungs
        upper = [top] + [f"u{r:02d}{i}" for i in range(up)] + [f"t{r + 1:02d}"]
        lower = [bottom] + [f"d{r:02d}{i}" for i in range(size - 4 - up)] + [f"b{r + 1:02d}"]
        edges += list(zip(upper, upper[1:])) + list(zip(lower, lower[1:]))
        top, bottom = upper[-1], lower[-1]
        edges.append((top, bottom))
    degree = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    spots = sorted(rng.sample(sorted(v for v, d in degree.items() if d == 2), ports))
    return Graph(edges + [(f"p{i:02d}", v) for i, v in enumerate(spots)])


def caterpillar(spine):
    """A path of ``spine`` nodes with two pendant ports on each."""
    return Graph([(f"s{i:02d}", f"s{i + 1:02d}") for i in range(spine - 1)]
                 + [(f"p{i:02d}{side}", f"s{i:02d}") for i in range(spine) for side in "ab"])


def caterpillar_cell_size(spine):
    """Each spine node takes one of its two ports or none, and the nodes that
    take none must pair off along the path: runs of even length."""
    total = 0
    for taken in range(1 << spine):
        runs = "".join("1" if taken >> i & 1 else "0" for i in range(spine)).split("1")
        if all(len(run) % 2 == 0 for run in runs):
            total += 2 ** taken.bit_count()
    return total


def test_dp_on_c60_with_pendant_ports():
    g = c60_with_ports()
    assert len(g.internal) == 60 and len(g.edges) == 90 + 12
    assert not nx.is_bipartite(nx.Graph(g.edges))
    cell = assert_routes_agree(g, enumerable=False)
    assert len(cell) == realized_assignment_count(g) == parity_scan_count(g)


def test_dp_on_a_fused_five_seven_ring_chain():
    g = fused_ring_chain([5, 7] * 4, 12, random.Random(1))
    assert not nx.is_bipartite(nx.Graph(g.edges))
    cell = assert_routes_agree(g)
    assert len(cell) == realized_assignment_count(g) == parity_scan_count(g)


@pytest.mark.parametrize("spine", range(2, 7))
def test_dp_on_caterpillars(spine):
    g = caterpillar(spine)
    assert len(assert_routes_agree(g)) == caterpillar_cell_size(spine)


@pytest.mark.parametrize("g", [hex_patch(m, n, k, random.Random(seed))
                               for m, n, k, seed in ((3, 3, 8, 1), (4, 4, 10, 2), (4, 4, 12, 3),
                                                     (6, 6, 12, 4))]
                         + [c60_with_ports(), fused_ring_chain([5, 7] * 4, 12, random.Random(1))],
                         ids=["hex3x3", "hex4x4-10", "hex4x4-12", "hex6x6", "c60", "5-7-chain"])
def test_dp_route_makes_no_probe(g, per_mask_calls):
    cell = kekule_cell(g, allow_large=True)
    assert realized_assignment_count(g) == len(cell)
    assert per_mask_calls == {"__call__": 0, "_completes": 0}


def test_24_port_caterpillar_makes_no_probe(per_mask_calls):
    # past omni's 20-port cap, so only the cell is counted
    assert len(kekule_cell(caterpillar(12))) == caterpillar_cell_size(12) == 33461
    assert per_mask_calls == {"__call__": 0, "_completes": 0}


def traced_realized(g):
    """``_Membership(g).realized()`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        realized = _Membership(g).realized()
        return realized, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_core(nodes, seed):
    """``nodes`` nodes at density 0.5 with 14 ports, two of them on one node."""
    rng = random.Random(seed)
    core = [e for e in complete([f"v{i:02d}" for i in range(nodes)]) if rng.random() < 0.5]
    spots = rng.sample(range(nodes), 13)
    return Graph(core + [(f"p{i:02d}", f"v{s:02d}") for i, s in enumerate(spots)]
                 + [("p13", f"v{spots[0]:02d}")])


def test_dense_core_within_the_budget_takes_the_dp():
    # 24 nodes: the narrow-boundary order keeps the frontier within the
    # budget, so the DP decides the cell
    g = dense_core(24, 3)
    assert takes_dp_route(g)
    cell = assert_routes_agree(g, enumerable=False)
    assert len(cell) == realized_assignment_count(g) == parity_scan_count(g)


def test_dense_core_past_the_budget_falls_back_to_the_probe_closure():
    # 30 nodes: the frontier outgrows the budget in this order too, and the
    # budget is checked while a step's states are made, so the old and new
    # states stay within twice its 8 MB; the cell then comes from the scan
    g = dense_core(30, 3)
    realized, peak = traced_realized(g)
    assert realized is None and not takes_dp_route(g)
    assert peak < kekule._DP_BITS // 4
    cell = assert_routes_agree(g, enumerable=False)
    assert len(cell) == realized_assignment_count(g) == parity_scan_count(g)


def test_dp_decides_a_10x10_hex_patch_with_16_ports():
    # 240 internal nodes, of which the narrow-boundary order keeps at most
    # 11 in the boundary, so the DP decides the cell within its budget
    g = hex_patch(10, 10, 16, random.Random(1))
    assert dp_cell(g) == scanned_hex_cell(10, 10, 16, 1)


def complete_bipartite(m, ports):
    return Graph([(f"a{i:02d}", f"b{j:02d}") for i in range(m) for j in range(m)]
                 + [(f"p{i}", node) for i, node in enumerate(ports)])


def grid_with_ports(width, height, ports):
    """A width x height square grid with pendant ports down its first column."""
    node = "g{:02d}_{:02d}".format
    return Graph([(node(x, y), node(x + 1, y)) for x in range(width - 1) for y in range(height)]
                 + [(node(x, y), node(x, y + 1)) for x in range(width) for y in range(height - 1)]
                 + [(f"p{i}", node(0, i)) for i in range(ports)])


@pytest.mark.parametrize("m", [24, 30])
def test_dense_bipartite_core_with_two_ports_gives_up_early(m):
    # the frontier of K_{m,m} would reach millions of states; with two ports
    # the scan needs two probes, so the DP stops within the steps the budget
    # holds states and leaves the cell to the probes
    for ports, masks in ((("a00", "a01"), {0b00}), (("a00", "b00"), {0b00, 0b11})):
        g = complete_bipartite(m, ports)
        realized, peak = traced_realized(g)
        assert realized is None and peak < kekule._DP_BITS // 4
        assert kekule_cell(g, allow_large=True).masks == masks
        assert realized_assignment_count(g) == len(masks)


def test_a_step_that_multiplies_the_states_stops_within_the_budget():
    # K_{100,100} with ten ports: about 10^4 states after the first node,
    # which the second multiplies by its 99 later neighbours to about
    # 5 x 10^5; the states are counted while they are made, so the DP stops
    # near 5 x 10^4 of them
    g = complete_bipartite(100, [f"a{i:02d}" for i in range(10)])
    realized, peak = traced_realized(g)
    assert realized is None and peak < kekule._DP_BITS // 4
    assert kekule_cell(g, allow_large=True).masks == {0}


def test_wide_grid_with_few_ports_gives_up_early(monkeypatch):
    # a 12-wide grid keeps a few thousand frontier states over 480 steps:
    # within the bit budget, but more steps than the 2^3 masks of its parity
    # class cost as probes; the scan probes each of them at most once and
    # needs no first state
    g = grid_with_ports(12, 40, 4)
    assert _Membership(g).realized() is None
    calls = count_calls(monkeypatch, "_covers", "_completes")
    assert len(kekule_cell(g, allow_large=True)) == 6
    assert calls["_covers"] == 0 and calls["_completes"] <= 8
    assert len(assert_routes_agree(g, enumerable=False)) == 6
    assert realized_assignment_count(g) == 6


def test_port_pair_fold_past_the_budget_falls_back(monkeypatch):
    # with a budget of 2^8 bits, the span of three port pairs (64 masks)
    # fits, and that of five (1024) falls back to the scan
    monkeypatch.setattr(kekule, "_DP_BITS", 1 << 8)
    for pairs, fits in ((3, True), (5, False)):
        g = Graph([(f"p{i}a", f"p{i}b") for i in range(pairs)])
        span = {sum(0b11 << 2 * i for i in range(pairs) if chosen >> i & 1)
                for chosen in range(1 << pairs)}
        assert _Membership(g).realized() == (sum(1 << m for m in span) if fits else None)
        assert kekule_cell(g).masks == span


# -- the omniconjugation scans: the min-degree cut and the counting route ----------

def bits(mask):
    """The set bits of ``mask`` as node numbers, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def core_edges(probe, free):
    """The edges of the compiled (folded) core between nodes in ``free``."""
    return {(i, j) for i in bits(free) for j in bits(probe._adj[i] & free) if i < j}


def free_mask_matchable(probe, free):
    """Whether the core nodes in ``free`` have a perfect matching, by
    networkx's blossom search on the subgraph of the compiled core."""
    sub = nx.Graph()
    sub.add_nodes_from(bits(free))
    sub.add_edges_from(core_edges(probe, free))
    return 2 * len(nx.max_weight_matching(sub, maxcardinality=True)) == free.bit_count()


def assert_matchable_agrees(g):
    """``_matchable`` on every even set of free nodes of the compiled core."""
    probe = _Membership(g)
    core = probe._internal
    free = core
    while True:  # every subset of the core, from the whole core down
        if free.bit_count() % 2 == 0:
            assert probe._matchable(free) == free_mask_matchable(probe, free), (g.edges, free)
        if not free:
            break
        free = free - 1 & core


def complete(labels):
    return [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]


def test_min_degree_cut_on_named_cores():
    triangles = complete(["a", "b", "c"]) + complete(["x", "y", "z"])
    k24 = [(u, v) for u in ("l1", "l2") for v in ("r1", "r2", "r3", "r4")]
    k33 = [(u, v) for u in ("l1", "l2", "l3") for v in ("r1", "r2", "r3")]
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    # the fold leaves one isolated node per triangle, a three-leaf star of
    # K_{2,4} and one edge of the bridged triangles: only the last has a
    # perfect matching, as before the fold
    for edges, want in ((triangles, False), (k24, False), (triangles + [("a", "x")], True),
                        (k33, True), (square, True), (complete("abcd"), True),
                        (complete("abcdef"), True)):
        g = Graph(edges)
        assert g.ports == ()
        probe = _Membership(g)
        assert probe._matchable(probe._internal) is want, edges
        assert_matchable_agrees(g)


def test_min_degree_cut_on_random_dense_cores():
    rng = random.Random(29)
    for _ in range(60):
        n, density = rng.randint(4, 9), rng.choice((0.5, 0.7, 0.9))
        edges = [e for e in complete([f"v{i}" for i in range(n)]) if rng.random() < density]
        if edges:
            assert_matchable_agrees(Graph(edges))


def test_probe_matches_brute_force_on_dense_graphs():
    rng = random.Random(30)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 6)
        core = [e for e in complete([f"v{i}" for i in range(n)]) if rng.random() < 0.8]
        ports = [(f"p{i}", f"v{rng.randrange(n)}") for i in range(rng.randint(2, 4))]
        edges = rng.sample(core, min(len(core), 12 - len(ports))) + ports
        g = Graph(edges)
        probe = _Membership(g)
        got = {frozenset(Assignment(g.ports, mask).labels())
               for mask in range(1 << len(g.ports)) if probe(mask)}
        assert got == oracle.cell_of(edges), edges
        checked += 1


def parity_scan_count(g):
    """The realized assignments counted by one probe per parity-correct mask."""
    probe = _Membership(g)
    return sum(1 for mask in ordered_masks(len(g.ports), signature(g)) if probe(mask))


def assert_counts_agree(g):
    """``realized_assignment_count`` against the parity scan and the cell;
    True when it counted by the frontier DP: no layer settles and the DP
    stays within budget."""
    count = realized_assignment_count(g)
    assert count == parity_scan_count(g) == len(kekule_cell(g, allow_large=True)), g.edges
    probe = _Membership(g)
    return (not any(settled for _, settled in probe.layers())
            and probe.realized() is not None)


def test_counts_agree_on_the_atlas():
    routes = [assert_counts_agree(g) for g in atlas_graphs() if len(g.ports) >= 2]
    assert routes.count(True) >= 150 and routes.count(False) >= 10


@pytest.mark.parametrize("m, n, ports, seed", [
    (2, 2, 4, 1), (2, 4, 8, 2), (3, 3, 8, 3), (3, 4, 8, 4), (4, 3, 8, 5), (3, 3, 10, 6),
])
def test_counts_agree_on_hex_patches(m, n, ports, seed):
    assert assert_counts_agree(hex_patch(m, n, ports, random.Random(seed)))


@pytest.mark.parametrize("g", [make_A(n) for n in range(2, 9)]
                         + [make_delta(n) for n in range(2, 10)])
def test_counts_agree_on_families(g):
    assert_counts_agree(g)
    assert realized_assignment_count(g) == 1 << (len(g.ports) - 1)


# -- the parity-class scan --------------------------------------------------------

def scan(g, parity):
    """``(mask, verdict)`` over the masks of ``g`` with one cardinality
    parity, in member order, one ``probe(mask)`` each: the per-mask
    reference that ``missing()`` is checked against."""
    probe = _Membership(g)
    return [(mask, probe(mask)) for mask in ordered_masks(len(g.ports), parity)]


def assert_scan_agrees(g, edges=None):
    """``missing()`` yields the masks of the parity class that the per-mask
    reference rejects, in member order; with ``edges``, the masks of both
    parities that the reference accepts are also the oracle's cell."""
    scanned = scan(g, signature(g))
    assert list(_Membership(g).missing()) == [mask for mask, ok in scanned if not ok], g.edges
    if edges is not None:
        realized = {frozenset(Assignment(g.ports, mask).labels())
                    for parity in (0, 1) for mask, ok in scan(g, parity) if ok}
        assert realized == oracle.cell_of(edges), edges


def dense_core_with_ports(rng, port_pair):
    """A random dense core with 2-5 ports, some sharing a node, and
    optionally an isolated port-port edge."""
    n = rng.randint(2, 7)
    core = [e for e in complete([f"v{i}" for i in range(n)]) if rng.random() < 0.8]
    nodes = sorted({v for e in core for v in e}) or ["v0"]
    edges = core + [(f"p{i}", rng.choice(nodes[:2])) for i in range(rng.randint(2, 5))]
    if port_pair:
        edges.append(("q1", "q2"))
    return edges


def test_scan_agrees_on_the_atlas():
    for g in atlas_graphs():
        assert_scan_agrees(g, list(g.edges) if len(g.edges) <= 7 else None)


def test_scan_agrees_on_random_graphs():
    rng = random.Random(41)
    for _ in range(150):
        g = random_connected_graph(rng, max_edges=14)
        assert_scan_agrees(g, list(g.edges) if len(g.edges) <= 10 else None)


def test_scan_agrees_on_dense_cores_with_shared_and_paired_ports():
    rng = random.Random(42)
    shared = paired = 0
    for i in range(200):
        edges = dense_core_with_ports(rng, port_pair=i % 2 == 1)
        g = Graph(edges)
        probe = _Membership(g)
        shared += len(set(probe._port_node)) < len(g.ports)
        paired += bool(probe._port_pairs)
        assert_scan_agrees(g, edges if len(edges) <= 13 else None)
    assert shared >= 50 and paired >= 50


@pytest.mark.parametrize("g", [PORT_PAIR_GRAPH, make_delta(9), make_A(7)]
                         + [hex_patch(3, 3, 8, random.Random(seed)) for seed in (4, 5)],
                         ids=["port-pair", "delta9", "a7", "hex-a", "hex-b"])
def test_scan_agrees_on_named_graphs(g):
    assert_scan_agrees(g)


def brute_force_matchable(nodes, edges):
    """Whether ``nodes`` have a perfect matching among ``edges``, by trying
    every partner of the first node."""
    if not nodes:
        return True
    first, rest = nodes[0], nodes[1:]
    return any(brute_force_matchable([v for v in rest if v != other], edges)
               for other in rest if (first, other) in edges or (other, first) in edges)


@st.composite
def dense_free_sets(draw):
    """A dense graph, its compiled form, and an even set of free nodes of
    its compiled core large enough for the degree cut to fire where it can."""
    n = draw(st.integers(4, 10))
    missing = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n // 2))
    edges = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)
             if (i, j) not in missing and (j, i) not in missing]
    g = Graph(edges)
    probe = _Membership(g)
    core = bits(probe._internal)
    m = len(core)
    least = max(0, -probe._degree_cut)
    size = draw(st.sampled_from(range(least + least % 2, m + 1, 2) or [m - m % 2]))
    free = sum(1 << i for i in draw(st.permutations(core))[:size])
    return g, probe, free


@given(dense_free_sets())
@settings(max_examples=300, deadline=None)
def test_degree_cut_only_fires_on_matchable_free_sets(case):
    g, probe, free = case
    balanced = all((free & comp).bit_count() % 2 == 0 if colour is None
                   else 2 * (free & comp & colour).bit_count() == (free & comp).bit_count()
                   for comp, colour in probe._components)
    if balanced and probe._degree_cut + free.bit_count() >= 0:
        assert brute_force_matchable(bits(free), core_edges(probe, free)), (g.edges, free)
        assert probe._completes(0, probe._internal & ~free)


# -- settled layers -----------------------------------------------------------------

def pendant_form(core_edges):
    """The core with one port on each of its nodes."""
    nodes = sorted({v for e in core_edges for v in e})
    return Graph(list(core_edges) + [(f"p{v}", v) for v in nodes])


def settled_layers(g):
    return [j for j, settled in _Membership(g).layers() if settled]


def assert_layers_agree(g):
    """The settled layers, and the verdict, witness, count and cell built on
    them, against the per-mask scan; returns the settled port counts."""
    k = len(g.ports)
    probe = _Membership(g)
    assert [j for j, _ in probe.layers()] == list(range(signature(g), k + 1, 2))
    for j in settled_layers(g):
        assert all(probe(mask) for mask in range(1 << k)
                   if mask.bit_count() == j), (g.edges, j)
    scanned = scan(g, signature(g))
    missing = [mask for mask, realized in scanned if not realized]
    if 2 <= k <= 20:
        verdict = is_omniconjugated(g)
        assert verdict.omniconjugated == (not missing), g.edges
        assert verdict.witness == (Assignment(g.ports, missing[0]) if missing else None)
    assert realized_assignment_count(g) == len(scanned) - len(missing), g.edges
    realized = {mask for parity in (0, 1) for mask, ok in scan(g, parity) if ok}
    assert kekule_cell(g, allow_large=True).masks == realized, g.edges
    return settled_layers(g)


def minus(edges, *gone):
    return [e for e in edges if e not in gone]


def test_layers_agree_on_the_atlas():
    settles = sum(bool(assert_layers_agree(g)) for g in atlas_graphs())
    assert settles >= 80


def test_layers_agree_on_random_graphs():
    rng = random.Random(43)
    for _ in range(150):
        assert_layers_agree(random_connected_graph(rng, max_edges=14))


def test_shared_or_paired_ports_never_settle():
    rng = random.Random(44)
    crowded = 0
    for i in range(200):
        g = Graph(dense_core_with_ports(rng, port_pair=i % 2 == 1))
        probe = _Membership(g)
        if probe._port_pairs or len(set(probe._port_node)) < len(g.ports):
            assert not settled_layers(g), g.edges
            crowded += 1
        assert_layers_agree(g)
    assert crowded >= 150


@pytest.mark.parametrize("n", range(4, 9))
def test_layers_agree_on_cores_one_or_two_edges_short(n):
    core = complete([f"v{i}" for i in range(n)])
    for gone in ([core[0]], [core[0], core[1]], [core[0], core[-1]]):
        g = pendant_form(minus(core, *gone))
        settled = assert_layers_agree(g)
        # two free nodes may be a missing edge's ends: that layer stays open,
        # and with no free node left the last one settles, unless the core
        # is bipartite (K4 less two disjoint edges is a square)
        bipartite = nx.is_bipartite(nx.Graph(minus(core, *gone)))
        assert n - 2 not in settled and (n in settled) != bipartite
        assert not is_omniconjugated(g).omniconjugated


@pytest.mark.parametrize("n", range(2, 13))
def test_layers_agree_on_delta(n):
    settled = assert_layers_agree(make_delta(n))
    # the core of delta2 is one edge, bipartite: it keeps the per-mask route
    assert settled == ([] if n == 2 else list(range(n % 2, n + 1, 2)))


def count_calls(monkeypatch, *names):
    """Counts of calls to the named ``_Membership`` methods, or else
    ``kekule`` module functions, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        owner = _Membership if hasattr(_Membership, name) else kekule
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture()
def per_mask_calls(monkeypatch):
    """Counts of ``_Membership.__call__`` and ``_completes``, by name."""
    return count_calls(monkeypatch, "__call__", "_completes")


@pytest.mark.parametrize("n", range(3, 21))
def test_delta_decided_without_a_per_mask_call(n, per_mask_calls):
    g = make_delta(n)
    assert is_omniconjugated(g).omniconjugated
    assert realized_assignment_count(g) == 1 << (n - 1)
    assert per_mask_calls == {"__call__": 0, "_completes": 0}


@pytest.mark.parametrize("n", range(2, 15))
def test_delta_cell_is_the_parity_space_without_a_probe(n, per_mask_calls):
    g = make_delta(n)
    assert kekule_cell(g, allow_large=True) == parity_space(g.ports, signature(g))
    assert per_mask_calls == {"__call__": 0, "_completes": 0}


@pytest.mark.parametrize("n", range(4, 13))
def test_a_core_one_edge_short_expands_its_open_layer(n, per_mask_calls):
    g = pendant_form(minus(complete([f"v{i:02d}" for i in range(n)]), ("v00", "v01")))
    assert realized_assignment_count(g) == (1 << (n - 1)) - 1
    # only the layer that can leave v00 and v01 free is scanned
    assert per_mask_calls == {"__call__": comb(n, 2), "_completes": comb(n, 2)}
    verdict = is_omniconjugated(g)
    assert set(verdict.witness.labels()) == {f"pv{i:02d}" for i in range(2, n)}
    assert 0 < per_mask_calls["_completes"] <= 2 * comb(n, 2)


def shared_node_hex_patch():
    """A 3x3 hex patch whose first two ports each share their node with a
    second port."""
    g = hex_patch(3, 3, 4, random.Random(5))
    extra = [(f"q{i}", nb) for i, p in enumerate(g.ports[:2]) for nb, _ in g.neighbors(p)]
    return Graph(list(g.edges) + extra)


@pytest.mark.parametrize("shape", ["atlas", "hex"])
def test_missing_makes_one_call_per_mask(shape, per_mask_calls):
    if shape == "atlas":  # the first with four ports, some sharing a node
        g = next(g for g in atlas_graphs() if len(g.ports) >= 4
                 and 1 < len(set(_Membership(g)._port_node)) < len(g.ports))
    else:
        g = shared_node_hex_patch()
    probe = _Membership(g)
    k = len(g.ports)

    def clashes(mask):
        """Whether two ports of ``mask`` hang on one internal node."""
        nodes = [node for i, node in enumerate(probe._port_node) if mask >> i & 1 and node]
        return len(set(nodes)) < len(nodes)

    # ports sharing a node leave every layer of the parity class open
    assert not any(settled for _, settled in probe.layers())
    masks = list(ordered_masks(k, signature(g)))
    missing = list(probe.missing())
    # a clash stops in __call__, before _completes
    clash = sum(map(clashes, masks))
    assert clash
    assert per_mask_calls == {"__call__": len(masks), "_completes": len(masks) - clash}
    assert missing == [mask for mask in masks if not probe(mask)]


def test_pendant_core_law_on_settled_layers():
    checked = 0
    for core in atlas_graphs():
        g = pendant_form(core.edges)
        complete_core = pendant_core_is_complete(g)
        assert is_omniconjugated(g).omniconjugated == complete_core, core.edges
        if len(core.nodes) >= 3:
            assert (settled_layers(g) == list(range(signature(g), len(g.ports) + 1, 2))) \
                == complete_core, core.edges
            checked += 1
        else:  # K2 is bipartite: its layers stay with the per-mask scan
            assert complete_core and settled_layers(g) == []
    assert checked == len(atlas_graphs()) - 1


# -- the route of kekule_cell: the parity class from the signature -------------------

@pytest.fixture()
def route_calls(monkeypatch):
    """Counts of the ``_Membership`` and ``kekule._covers`` calls that take a
    cell's route, by name, and of the ``realized()`` calls that gave up
    (returned None)."""
    calls = count_calls(monkeypatch, "__call__", "_covers", "realized")
    calls["gave_up"] = 0
    counted = _Membership.realized

    def realized(self):
        masks = counted(self)
        calls["gave_up"] += masks is None
        return masks

    monkeypatch.setattr(_Membership, "realized", realized)
    return calls


def oracle_masks(g):
    """The oracle's cell as port masks over ``g.ports``."""
    bit = {p: 1 << i for i, p in enumerate(g.ports)}
    return {sum(bit[p] for p in labels) for labels in oracle.cell_of(list(g.edges))}


def test_cell_agrees_with_the_oracle_on_small_atlas_graphs():
    graphs = atlas_graphs(max_edges=10)
    assert len(graphs) >= 500
    for g in graphs:
        assert kekule_cell(g).masks == oracle_masks(g), g.edges


def test_scan_fallback_agrees_with_the_oracle_on_small_atlas_graphs(monkeypatch, route_calls):
    # with no budget every DP gives up at once, so every graph with two
    # ports or more whose parity class does not settle takes the scan
    monkeypatch.setattr(kekule, "_DP_BITS", 0)
    for g in atlas_graphs(max_edges=10):
        cell = kekule_cell(g)
        assert cell.masks == oracle_masks(g), g.edges
        assert realized_assignment_count(g) == len(cell), g.edges
    assert route_calls["_covers"] == 0
    # some 180 graphs, each scanned once for its cell and once for its count
    assert route_calls["gave_up"] == route_calls["realized"] >= 300


SQUARE = [("w", "x"), ("x", "y"), ("y", "z"), ("w", "z")]
TRIANGLE = [("a", "b"), ("b", "c"), ("a", "c")]
# the two-port graph of the ``no_state_graph`` fixture: two pendant triangles
# on a path, whose middle node a3 carries the stub d2 with the ports d1 and d3
NO_STATE = [("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a1", "u1"),
            ("a2", "u1"), ("a4", "u2"), ("a5", "u2"), ("a3", "d2"), ("d1", "d2"),
            ("d2", "d3")]


@pytest.mark.parametrize("edges, masks", [
    (SQUARE, {0}),
    (TRIANGLE + [("x", "y"), ("y", "z"), ("x", "z")], set()),
    (TRIANGLE, set()),
    (TRIANGLE + [("c", "p1")], {1}),
    # without d3, d2 must take a3 and leaves both triangles odd
    (NO_STATE[:-1], set()),
    (NO_STATE, set()),
    ([("q1", "q2")], {0b00, 0b11}),
    # the square takes both of its ports or neither, the triangle its one port
    (SQUARE + [("p1", "x"), ("p2", "y")] + TRIANGLE + [("c", "p3")], {0b100, 0b111}),
], ids=["k0-even", "k0-even-no-state", "k0-odd", "k1", "k1-no-state", "k2-no-state",
        "port-port-edge", "two-components"])
def test_named_cells_and_their_routes(edges, masks, route_calls):
    g = Graph(edges)
    k = len(g.ports)
    assert kekule_cell(g).masks == masks == oracle_masks(g)
    # below two ports one probe decides the one mask of the class, and no
    # port with an odd parity leaves the class empty; from two ports on, the
    # DP gives every cell here, the empty ones included
    probes = int(signature(g) <= k) if k < 2 else 0
    assert route_calls == {"__call__": probes, "_covers": 0, "realized": int(k >= 2),
                           "gave_up": 0}


def test_cell_route_makes_no_cover_search(route_calls):
    graphs = [*atlas_graphs(), make_delta(6), make_A(40), caterpillar(8),
              hex_patch(4, 4, 10, random.Random(2)),
              complete_bipartite(24, ("a00", "a01")), complete_bipartite(24, ("a00", "b00"))]
    gave_up = 0
    for g in graphs:
        for name in route_calls:
            route_calls[name] = 0
        kekule_cell(g, allow_large=True)
        assert route_calls["_covers"] == 0 and route_calls["gave_up"] <= 1, g.edges
        if len(g.ports) < 2:
            assert route_calls["__call__"] == int(signature(g) <= len(g.ports)), g.edges
            assert route_calls["realized"] == 0
        gave_up += route_calls["gave_up"]
    assert gave_up == 2


def test_caterpillar_past_the_dp_budget_is_refused():
    # cycle rank 0, so only the price of the scan can refuse it: the DP
    # gives up on 26 ports, and the scan of its parity class would take 2^25
    # probes
    g = caterpillar(13)
    start = time.perf_counter()
    with pytest.raises(KekulecError, match=r"^cell search bound 2\^25 probes "
                                           r"exceeds 2\^24; pass allow_large=True"):
        kekule_cell(g)
    assert time.perf_counter() - start < 1
    assert _Membership(g).realized() is None


def test_settled_cell_past_the_member_bound_is_refused_at_once():
    # every layer of Delta_n settles, so its cell is the whole parity class:
    # 2^29 members for n = 30, refused before the 2^30-bit class is built,
    # under allow_large too; Delta_20's 2^19 members are admitted
    assert len(kekule_cell(make_delta(20), allow_large=True)) == 1 << 19
    start = time.perf_counter()
    with pytest.raises(KekulecError) as refused:
        kekule_cell(make_delta(30), allow_large=True)
    assert time.perf_counter() - start < 1
    assert str(refused.value) == ("cell of at least 536870912 members exceeds 2^20; "
                                  "allow_large does not lift this bound")


def test_member_bound_prices_the_settled_layers(monkeypatch):
    # K_8 less a perfect matching, a port on each node: the layers of 0, 2,
    # 4 and 8 ports settle (100 members) and the 28 masks of 6 ports are
    # scanned; the bound counts the settled members, not the class of 128
    g = Graph([(f"u{i}", f"u{j}") for i in range(8) for j in range(i + 1, 8)
               if not (i % 2 == 0 and j == i + 1)] + [(f"p{i}", f"u{i}") for i in range(8)])
    assert [j for j, settled in _Membership(g).layers() if not settled] == [6]
    monkeypatch.setattr(kekule, "_MEMBER_CAP", 7)
    assert_cell_agrees(g)
    monkeypatch.setattr(kekule, "_MEMBER_CAP", 6)
    with pytest.raises(KekulecError, match=r"^cell of at least 100 members exceeds 2\^6;"):
        kekule_cell(g)
    # a class that settles whole is admitted at exactly the bound
    monkeypatch.setattr(kekule, "_MEMBER_CAP", 5)
    assert len(kekule_cell(make_delta(6))) == 32
    with pytest.raises(KekulecError, match=r"^cell of at least 64 members exceeds 2\^5;"):
        kekule_cell(make_delta(7))


def test_scan_price_admits_up_to_twenty_five_ports(monkeypatch):
    # with a budget of 2^8 bits the DP gives up on every caterpillar below;
    # a scan of 2^24 probes is admitted, one of 2^25 is not
    monkeypatch.setattr(kekule, "_DP_BITS", 1 << 8)
    assert len(kekule_cell(caterpillar(8))) == caterpillar_cell_size(8)

    class Admitted(Exception):
        pass

    def missing(self):
        raise Admitted

    monkeypatch.setattr(_Membership, "missing", missing)
    # 25 ports: caterpillar(12) with a third port on its first node
    g = Graph(list(caterpillar(12).edges) + [("p00c", "s00")])
    assert len(g.ports) == 25
    with pytest.raises(Admitted):
        kekule_cell(g)
    with pytest.raises(KekulecError, match=r"2\^25 probes"):
        kekule_cell(caterpillar(13))


# -- the merge-law fold of the compiled core ------------------------------------------
#
# The compile folds every portless node with two internal neighbours into a
# merge of those neighbours.  The references below never see the fold: the
# cover search of ``kekule_states_for`` and networkx's blossom search both
# work on the graph as given.

def folded_away(g):
    """How many internal nodes the compile folded away."""
    return len(g.internal) - _Membership(g)._internal.bit_count()


def test_fold_keeps_every_verdict_on_folding_atlas_graphs():
    folding = [g for g in atlas_graphs() if folded_away(g)]
    assert len(folding) >= 700
    for g in folding:
        assert_probe_agrees(g)


def test_fold_keeps_every_verdict_on_random_graphs_with_ports():
    rng = random.Random(51)
    checked = folding = 0
    while checked < 2000:
        g = random_connected_graph(rng, max_edges=20)
        if g.ports:
            assert_probe_agrees(g)
            checked += 1
            folding += folded_away(g) > 0
    assert folding >= 1000


def blossom_member(g, mask):
    """Whether some Kekulé state has the assignment ``mask``, by networkx's
    blossom search on the unfolded graph: the chosen ports cover their
    nodes, each at most once, and the other internal nodes need a perfect
    matching among themselves.  For graphs without port-port edges."""
    taken = [g.neighbors(p)[0][0] for i, p in enumerate(g.ports) if mask >> i & 1]
    if len(set(taken)) < len(taken):
        return False
    free = set(g.internal) - set(taken)
    sub = nx.Graph()
    sub.add_nodes_from(free)
    sub.add_edges_from((u, v) for u, v in g.edges if u in free and v in free)
    return 2 * len(nx.max_weight_matching(sub, maxcardinality=True)) == len(free)


@pytest.mark.parametrize("m", [8, 10])
def test_fold_agrees_with_blossom_on_large_hex_patches(m):
    g = hex_patch(m, m, 16, random.Random(1))
    assert all(g.degree[g.neighbors(p)[0][0]] > 1 for p in g.ports)
    assert folded_away(g) >= 40
    probe = _Membership(g)
    masks = random.Random(m).sample(list(ordered_masks(16, signature(g))), 200)
    verdicts = [probe(mask) for mask in masks]
    assert verdicts == [blossom_member(g, mask) for mask in masks]
    assert 20 <= sum(verdicts) <= 180


FOLDS_ONTO_A_PORT = [
    # folding the cycle v0-v2-v3-v6-v5 leaves v0 alone with both ports
    ([("v0", "v1"), ("v0", "v2"), ("v0", "v4"), ("v0", "v5"), ("v2", "v3"), ("v3", "v6"),
      ("v5", "v6")], {0b01, 0b10}),
    # folding v4 moves the port of v0 onto v3, which then has two internal
    # neighbours, v1 and v2, and must stay; folding v1 leaves v3 alone
    ([("v0", "v4"), ("v0", "v5"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v4")],
     {0b1}),
]


@pytest.mark.parametrize("edges, masks", FOLDS_ONTO_A_PORT, ids=["two-ports", "triangle-tail"])
def test_fold_skips_a_node_given_a_port_by_a_merge(edges, masks):
    g = Graph(edges)
    assert kekule_cell(g).masks == masks == oracle_masks(g)
    probe = _Membership(g)
    assert probe._internal.bit_count() == 1
    assert probe._port_node == [probe._internal] * len(g.ports)
    assert_probe_agrees(g)


@pytest.mark.parametrize("n", [300, 700, 1200, 2000])
def test_fold_leaves_at_most_two_nodes_of_a_chain(n):
    g = make_A(n)
    probe = _Membership(g)
    assert probe._internal.bit_count() <= 2
    assert all(node & probe._internal for node in probe._port_node)
    assert probe.realized() == 1 | 1 << 0b11


def test_fold_leaves_dense_cores_whole():
    cores = [make_delta(n) for n in range(2, 21)]
    cores += [Graph(complete([f"v{i}" for i in range(n)])) for n in range(4, 11)]
    cores += [pendant_form([(f"u{i}", f"u{j}") for i in range(n) for j in range(i + 1, n)
                            if not (i % 2 == 0 and j == i + 1)]) for n in range(6, 11, 2)]
    for g in cores:
        assert folded_away(g) == 0, g.edges
    for n in range(3, 21):
        assert settled_layers(make_delta(n)) == list(range(n % 2, n + 1, 2))


def broom(arms):
    """A hub with ``arms`` arms hub-x-y-port."""
    return Graph([edge for i in range(arms) for edge in
                  (("hub", f"x{i:04d}"), (f"x{i:04d}", f"y{i:04d}"), (f"y{i:04d}", f"p{i:04d}"))])


def test_fold_of_a_broom_keeps_the_hub_with_every_port():
    # each fold absorbs y, of degree 1, into the hub, so only y's adjacency
    # is walked
    arms = 5000
    g = broom(arms)
    assert len(g.internal) == 2 * arms + 1 and len(g.ports) == arms
    probe = _Membership(g)
    assert probe._internal.bit_count() == 1
    assert probe._port_node == [probe._internal] * arms
    assert probe(1 << 1234) and not probe(0) and not probe(0b11)


def test_fold_keeps_the_parity_of_the_core():
    # layers() takes the parity class from the compile: each fold step drops
    # two nodes, so the folded core has as many nodes, mod 2, as g has
    # internal nodes, and every layer of the class leaves an even number free
    rng = random.Random(52)
    graphs = [*atlas_graphs(), *(random_connected_graph(rng, max_edges=20) for _ in range(200)),
              *(Graph(edges) for edges, _ in FOLDS_ONTO_A_PORT), make_A(300), make_A(301),
              broom(50), broom(51), hex_patch(8, 8, 16, random.Random(1))]
    assert sum(folded_away(g) > 0 for g in graphs) >= 800
    for g in graphs:
        probe = _Membership(g)
        assert probe._internal.bit_count() % 2 == signature(g), g.edges
        assert [j for j, _ in probe.layers()] == list(range(signature(g), len(g.ports) + 1, 2))
