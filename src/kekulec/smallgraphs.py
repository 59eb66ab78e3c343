"""Graph universes for exhaustive and randomized checking.

The exhaustive universe is every isomorphism class of graphs on at most 7
nodes (via the networkx graph atlas), without isolated nodes, optionally
filtered by edge count and connectivity.  Randomized suites use
a seeded generator so every run is reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import KekulecError
from .graph import Graph, cycle_rank, is_connected, normalize_edge


@lru_cache(maxsize=None)
def _atlas() -> list[Graph]:
    from networkx.generators.atlas import graph_atlas_g
    out = []
    for ng in graph_atlas_g():
        if ng.number_of_edges() == 0:
            continue
        if any(d == 0 for _, d in ng.degree()):
            continue  # isolated nodes are not representable as edge sets
        out.append(Graph((f"v{u}", f"v{v}") for u, v in sorted(
            (min(u, v), max(u, v)) for u, v in ng.edges())))
    return out


@lru_cache(maxsize=None)
def _connected(g: Graph) -> bool:
    return is_connected(g)


def atlas_graphs(max_edges: int | None = None, connected: bool | None = None) -> list[Graph]:
    """Every graph on <= 7 nodes up to isomorphism, matching the filters."""
    out = []
    for g in _atlas():
        if max_edges is not None and len(g.edges) > max_edges:
            continue
        if connected is not None and _connected(g) != connected:
            continue
        out.append(g)
    return out


def connected_with_ports(k: int, max_edges: int) -> list[Graph]:
    """Every connected graph with exactly ``k`` ports and at most
    ``max_edges`` edges, complete up to isomorphism.

    Ports are pendant leaves, so the core (graph minus ports) is connected
    with at most ``max_edges - k`` edges; that bound must stay <= 6
    so the 7-node atlas covers every core.  Iso-duplicates from core
    symmetries are possible and harmless.
    """
    core_edges = max_edges - k
    if core_edges > 6:
        raise KekulecError("core bound exceeds the 7-node atlas")
    out: list[Graph] = []
    if k == 2 and max_edges >= 1:
        out.append(Graph([("q1", "q2")]))  # the empty-core case
    if 2 <= k <= max_edges:
        out.append(Graph((f"q{i}", "z") for i in range(1, k + 1)))
    for core in atlas_graphs(max_edges=core_edges, connected=True):
        leafy = [n for n in core.nodes if core.degree[n] == 1]
        for spots in combinations_with_replacement(core.nodes, k):
            if any(n not in spots for n in leafy):
                continue  # a core leaf without a port would become a port itself
            out.append(Graph(tuple(core.edges)
                             + tuple((f"q{i}", n) for i, n in enumerate(spots, 1))))
    return out


def random_connected_graph(rng: random.Random, max_edges: int = 16,
                           max_nodes: int = 10) -> Graph:
    """Random spanning tree on 3 to ``max_nodes`` nodes plus random extra
    edges, at most ``max_edges`` in all."""
    n = rng.randint(3, min(max_nodes, max_edges + 1))
    labels = [f"v{i:02d}" for i in range(1, n + 1)]
    order = labels[:]
    rng.shuffle(order)
    edges = {normalize_edge(order[i], order[rng.randrange(i)])
             for i in range(1, n)}
    room = max_edges - len(edges)
    if room > 0:
        candidates = sorted(
            normalize_edge(a, b)
            for i, a in enumerate(labels) for b in labels[i + 1:]
            if normalize_edge(a, b) not in edges)
        k = rng.randint(0, min(room, len(candidates)))
        edges.update(rng.sample(candidates, k))
    return Graph(edges)


def random_bounded_graph(rng: random.Random, max_edges: int = 16) -> Graph:
    """Random connected graph whose assignment-times-kernel budget is bounded.

    Resamples until 2^(#ports - 1 + cycle rank) is at most 2048, keeping full
    per-assignment span enumeration affordable.
    """
    while True:
        g = random_connected_graph(rng, max_edges)
        if 2 ** (max(len(g.ports) - 1, 0) + cycle_rank(g)) <= 2048:
            return g
