"""Graph rewrites that preserve or translate the Kekulé cell: node merge and
split, port-edge subdivision, cell translation, flexible-edge subgraph,
handle attachment, internal-edge addition, and port gluing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cells import Assignment
from .errors import KekulecError
from .graph import Edge, Graph, normalize_edge
from .kekule import _require_graph_assignment, enumerate_kekule_states


def fresh_label(base: str, used: set[str]) -> str:
    """First unused label of the form ``base#k``."""
    k = 1
    while f"{base}#{k}" in used:
        k += 1
    return f"{base}#{k}"


@dataclass(frozen=True)
class RewriteReport:
    """What a rewrite touched; the output graph already passed validation."""

    operation: str
    removed_nodes: tuple[str, ...]
    added_nodes: tuple[str, ...]
    removed_edges: tuple[Edge, ...]
    added_edges: tuple[Edge, ...]

    @staticmethod
    def diff(operation: str, before: Graph, after: Graph) -> "RewriteReport":
        b_nodes, a_nodes = set(before.nodes), set(after.nodes)
        b_edges, a_edges = set(before.edges), set(after.edges)
        return RewriteReport(
            operation,
            tuple(sorted(b_nodes - a_nodes)),
            tuple(sorted(a_nodes - b_nodes)),
            tuple(sorted(b_edges - a_edges)),
            tuple(sorted(a_edges - b_edges)),
        )

    def format_lines(self) -> list[str]:
        fmt_edges = lambda es: " ".join(f"{u}-{v}" for u, v in es) or "-"
        fmt_nodes = lambda ns: " ".join(ns) or "-"
        return [
            f"operation: {self.operation}",
            f"removed nodes: {fmt_nodes(self.removed_nodes)}",
            f"added nodes: {fmt_nodes(self.added_nodes)}",
            f"removed edges: {fmt_edges(self.removed_edges)}",
            f"added edges: {fmt_edges(self.added_edges)}",
        ]


def merge_node(g: Graph, u0: str) -> Graph:
    """Remove a degree-2 node and merge its two internal neighbours.

    The edge between the neighbours (if any) is dropped, duplicate edges to
    common neighbours are identified, and the merged node keeps the smaller
    of the two labels.  The Kekulé cell is unchanged; the rewrite refuses
    inputs where it would alter the port set (the merged node isolated or
    demoted to a port, or an ex-common neighbour losing internal status).
    """
    if u0 not in g.degree:
        raise KekulecError(f"no node '{u0}' in graph")
    if g.degree[u0] != 2:
        raise KekulecError(f"'{u0}' must have exactly two neighbours")
    (u1, _), (u2, _) = g.neighbors(u0)
    for n in (u1, u2):
        if g.degree[n] == 1:
            raise KekulecError(f"neighbour '{n}' is a port")
    u = min(u1, u2)
    new_edges: set[Edge] = set()
    for a, b in g.edges:
        if u0 in (a, b):
            continue
        a = u if a in (u1, u2) else a
        b = u if b in (u1, u2) else b
        if a == b:
            continue  # the u1-u2 edge would become a self-loop
        new_edges.add(normalize_edge(a, b))
    if not any(u in e for e in new_edges):
        raise KekulecError("merge would isolate the merged node")
    merged = Graph(new_edges)
    if merged.ports != g.ports:
        raise KekulecError("merge would change the port set")
    return merged


def split_node(g: Graph, u: str, group1: Iterable[str], group2: Iterable[str]) -> Graph:
    """Split an internal node into two, linked through a fresh degree-2 node.

    The groups partition u's neighbours; group1 stays on the original label,
    group2 moves to a fresh node.  Inverse of :func:`merge_node`, so the
    Kekulé cell is preserved.
    """
    if u not in g.degree:
        raise KekulecError(f"no node '{u}' in graph")
    if g.degree[u] == 1:
        raise KekulecError(f"'{u}' is a port; only internal nodes can be split")
    g1, g2 = set(group1), set(group2)
    neighbours = {nb for nb, _ in g.neighbors(u)}
    if not g1 or not g2 or g1 & g2 or g1 | g2 != neighbours:
        raise KekulecError(
            f"groups must partition the neighbours of '{u}' into two nonempty parts")
    used = set(g.nodes)
    u2 = fresh_label(u, used)
    used.add(u2)
    u0 = fresh_label(u, used)
    new_edges = [e for e in g.edges if u not in e]
    new_edges += [(u, nb) for nb in sorted(g1)]
    new_edges += [(u2, nb) for nb in sorted(g2)]
    new_edges += [(u, u0), (u0, u2)]
    out = Graph(new_edges)
    assert out.ports == g.ports
    return out


def subdivide_port_edge(g: Graph, p: str) -> Graph:
    """Replace the port's edge by two edges through a fresh internal node.

    Translates the Kekulé cell by {p}: a double bond at the port flips.
    """
    if p not in g.degree or g.degree[p] != 1:
        raise KekulecError(f"'{p}' is not a port")
    (v, _), = g.neighbors(p)
    vnew = fresh_label(p, set(g.nodes))
    new_edges = [e for e in g.edges if p not in e]
    new_edges += [(p, vnew), (vnew, v)]
    return Graph(new_edges)


def translate_graph(g: Graph, a: Assignment) -> Graph:
    """Subdivide once at every port of the assignment; realizes the cell a ^ K."""
    _require_graph_assignment(g, a)
    out = g
    for p in a.labels():
        out = subdivide_port_edge(out, p)
    return out


def flexible_subgraph(g: Graph) -> Graph:
    """Subgraph of the edges that vary across Kekulé states.

    Its Kekulé cell is the flexible restriction of the original cell.  May be
    empty when the graph has exactly one Kekulé state.
    """
    states = enumerate_kekule_states(g)
    if not states:
        raise KekulecError("graph has no Kekulé state")
    union = inter = states[0].mask
    for w in states[1:]:
        union |= w.mask
        inter &= w.mask
    varying = union & ~inter
    return Graph(e for i, e in enumerate(g.edges) if varying >> i & 1)


def attach_handles(g: Graph, always_on: Iterable[str] = (),
                   never_on: Iterable[str] = ()) -> Graph:
    """Add handle components that pin fresh ports to a constant bond.

    An always-on port hangs off a triangle gadget whose unique Kekulé state
    forces its double bond; a never-on port gets the same gadget plus one
    spacer node, forcing a single bond.  Inverts flex: handles restore the
    nonflexible ports of a cell.
    """
    on, off = tuple(always_on), tuple(never_on)
    used = set(g.nodes)
    edges: list[tuple[str, str]] = list(g.edges)
    for p in on + off:
        if p in used:
            raise KekulecError(f"label collision: '{p}'")
        used.add(p)

    def gadget(p: str, count: int) -> list[str]:
        out = []
        for _ in range(count):
            lbl = fresh_label(p, used)
            used.add(lbl)
            out.append(lbl)
        return out

    for p in on:
        w1, w2, w3 = gadget(p, 3)
        edges += [(w1, w2), (w1, w3), (w2, w3), (w3, p)]
    for p in off:
        w1, w2, w3, w4 = gadget(p, 4)
        edges += [(w1, w2), (w1, w3), (w2, w3), (w3, w4), (w4, p)]
    return Graph(edges)


def add_internal_edge(g: Graph, u: str, v: str) -> Graph:
    """Add an edge between two internal nodes; preserves omniconjugation."""
    for n in (u, v):
        if n not in g.degree:
            raise KekulecError(f"no node '{n}' in graph")
        if g.degree[n] == 1:
            raise KekulecError(f"'{n}' is a port")
    if u == v:
        raise KekulecError("endpoints must differ")
    if (u, v) in g:
        raise KekulecError(f"edge {u}-{v} already present")
    return Graph(g.edges + (normalize_edge(u, v),))


def glue_ports(ga: Graph, pa: str, gb: Graph, pb: str) -> Graph:
    """Fuse two graphs by removing one port from each and joining their stubs.

    The result is omniconjugated exactly when both inputs are.
    """
    if pa not in ga.degree or ga.degree[pa] != 1:
        raise KekulecError(f"'{pa}' is not a port of the first graph")
    if pb not in gb.degree or gb.degree[pb] != 1:
        raise KekulecError(f"'{pb}' is not a port of the second graph")
    overlap = set(ga.nodes) & set(gb.nodes)
    if overlap:
        raise KekulecError(
            f"label overlap between the two graphs: {sorted(overlap)}")
    (va, _), = ga.neighbors(pa)
    (vb, _), = gb.neighbors(pb)
    edges = [e for e in ga.edges if pa not in e]
    edges += [e for e in gb.edges if pb not in e]
    edges.append(normalize_edge(va, vb))
    return Graph(edges)
