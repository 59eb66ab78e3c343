"""Undirected graphs as canonical edge sets: parsing, node classification,
curves, and cycle bases.

A graph is a finite set of edges; an edge is an unordered pair of distinct
node labels.  Nodes of degree 1 are ports, all others are internal.  Edge
subsets are represented as bit vectors over the graph's canonical edge order
(lexicographic by sorted endpoint pair), which keeps every operation
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import KekulecError, ParseError

Edge = tuple[str, str]  # endpoints sorted, always distinct


def normalize_edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


def _clip(text: str) -> str:
    """``text`` for an error line, cut to 80 characters ending in ``...``:
    a label or a malformed value may be as long as its document."""
    return text if len(text) <= 80 else text[:77] + "..."


def _excerpt(value) -> str:
    """``repr(value)`` for an error line, cut by :func:`_clip`."""
    return _clip(repr(value))


class Graph:
    """Immutable undirected graph with a canonical node and edge ordering.

    The edge order (lexicographic by sorted endpoint pair) fixes the bit
    positions used by :class:`EdgeSubset`; the node order is lexicographic
    by label.  Instances compare and hash by their edge tuple.
    """

    __slots__ = ("edges", "nodes", "ports", "internal", "degree",
                 "_incidence", "_adj", "_hash")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        seen: set[Edge] = set()
        for pair in edges:
            # a pair must be a list or tuple: a two-letter string or a two-key
            # object would unpack too (exact type tests keep this loop cheap)
            try:
                u, v = pair if type(pair) is tuple or type(pair) is list else ()
            except (TypeError, ValueError):
                raise ParseError(f"malformed edge {_excerpt(pair)}") from None
            if not isinstance(u, str) or not u:
                raise ParseError(f"malformed label {_excerpt(u)}")
            if not isinstance(v, str) or not v:
                raise ParseError(f"malformed label {_excerpt(v)}")
            if u == v:
                raise ParseError(f"self-loop at node '{_clip(u)}'")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ParseError(f"duplicate edge {_clip(e[0])}-{_clip(e[1])}")
            seen.add(e)
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))

        # One pass over the canonical order.  A node's (x, n) edges (x < n)
        # precede its (n, y) edges, so each list of neighbours comes out in
        # label order without a sort.
        incidence: dict[str, int] = {}
        adj: dict[str, list[tuple[str, int]]] = {}
        for i, e in enumerate(self.edges):
            bit = 1 << i
            u, v = e
            if u in adj:
                adj[u].append((v, i))
                incidence[u] |= bit
            else:
                adj[u] = [(v, i)]
                incidence[u] = bit
            if v in adj:
                adj[v].append((u, i))
                incidence[v] |= bit
            else:
                adj[v] = [(u, i)]
                incidence[v] = bit
        self._incidence = incidence
        self._adj = {n: tuple(pairs) for n, pairs in adj.items()}
        degree = {n: len(pairs) for n, pairs in adj.items()}
        self.degree: dict[str, int] = degree
        self.nodes: tuple[str, ...] = tuple(sorted(adj))
        self.ports: tuple[str, ...] = tuple(n for n in self.nodes if degree[n] == 1)
        self.internal: tuple[str, ...] = tuple(n for n in self.nodes if degree[n] > 1)
        self._hash = hash(self.edges)

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        u, v = pair
        incidence = self._incidence
        return u != v and bool(incidence.get(u, 0) & incidence.get(v, 0))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def edge_index(self, u: str, v: str) -> int:
        # the one edge of two distinct nodes is the bit their incidences share
        shared = u != v and self._incidence.get(u, 0) & self._incidence.get(v, 0)
        if not shared:
            e = normalize_edge(u, v)
            raise KekulecError(f"no edge {e[0]}-{e[1]} in graph")
        return shared.bit_length() - 1

    def incidence_mask(self, node: str) -> int:
        """Bit mask of the edges incident to ``node``."""
        return self._incidence[node]

    def neighbors(self, node: str) -> tuple[tuple[str, int], ...]:
        """Sorted (neighbor label, edge index) pairs for ``node``."""
        return self._adj[node]

    # -- subsets ---------------------------------------------------------

    def subset(self, edges: Iterable[tuple[str, str]] = ()) -> "EdgeSubset":
        mask = 0
        for u, v in edges:
            mask |= 1 << self.edge_index(u, v)
        return EdgeSubset(self, mask)

    def subset_from_mask(self, mask: int) -> "EdgeSubset":
        if mask < 0 or mask >> len(self.edges):
            raise KekulecError(f"mask {mask:#x} outside edge space")
        return EdgeSubset(self, mask)


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of a graph's edges, stored as a bit vector over its edge order."""

    graph: Graph
    mask: int

    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for i, e in enumerate(self.graph.edges) if self.mask >> i & 1)

    def nodes(self) -> tuple[str, ...]:
        out: set[str] = set()
        for u, v in self.edges():
            out.add(u)
            out.add(v)
        return tuple(sorted(out))

    def degree_in(self, node: str) -> int:
        return (self.mask & self.graph._incidence.get(node, 0)).bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __xor__(self, other: "EdgeSubset") -> "EdgeSubset":
        if self.graph != other.graph:
            raise KekulecError("edge subsets belong to different graphs")
        return EdgeSubset(self.graph, self.mask ^ other.mask)

    def __str__(self) -> str:
        return "{" + ",".join(f"{u}-{v}" for u, v in self.edges()) + "}"


def signature(g: Graph) -> int:
    """Parity bit of the number of internal nodes."""
    return len(g.internal) % 2


# -- connectivity ------------------------------------------------------------

def _component_masks(g: Graph, within: int = -1) -> list[int]:
    """Edge masks of the connected components of the edges in ``within``
    (every edge by default), ordered by smallest node label; a node that no
    edge of ``within`` touches is in none."""
    incidence, adj = g._incidence, g._adj
    seen: set[str] = set()
    masks: list[int] = []
    for start in g.nodes:
        if start in seen or not incidence[start] & within:
            continue
        mask = 0
        stack = [start]
        seen.add(start)
        while stack:
            n = stack.pop()
            mask |= incidence[n] & within
            for nb, e in adj[n]:
                if nb not in seen and within >> e & 1:
                    seen.add(nb)
                    stack.append(nb)
        masks.append(mask)
    return masks


def connected_components(g: Graph) -> list[Graph]:
    """Maximal connected subgraphs, ordered by smallest node label."""
    return [Graph(EdgeSubset(g, m).edges()) for m in _component_masks(g)]


def is_connected(g: Graph) -> bool:
    return len(_component_masks(g)) == 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise KekulecError("connected graph required")


def cycle_rank(g: Graph) -> int:
    """Dimension of the cycle space: #edges - #nodes + #components."""
    return len(g.edges) - len(g.nodes) + len(_component_masks(g))


# -- curves ------------------------------------------------------------------

def _require_same_graph(g: Graph, w: EdgeSubset) -> None:
    if w.graph != g:
        raise KekulecError("edge subset belongs to a different graph")


def is_curve(g: Graph, c: EdgeSubset) -> bool:
    """True iff every node of ``c`` that is internal in ``g`` has degree 2 in ``c``."""
    _require_same_graph(g, c)
    mask, incidence = c.mask, g._incidence
    for n in g.internal:
        if (mask & incidence[n]).bit_count() not in (0, 2):
            return False
    return True


@dataclass(frozen=True)
class CurveComponent:
    """One connected component of a curve: a cycle, or a simple path between ports."""

    kind: str  # "cycle" | "path"
    subset: EdgeSubset
    endpoints: tuple[str, str] | None  # sorted port pair for paths


def curve_components(g: Graph, c: EdgeSubset) -> list[CurveComponent]:
    """Split a curve into components and classify each one.

    Requires ``is_curve(g, c)``.  The components are those of
    :func:`_component_masks` over the edges of ``c``, ordered by smallest
    node label; one whose nodes all have degree 2 in it is a cycle, any
    other a path between its two degree-1 nodes, which are ports.
    """
    if not is_curve(g, c):
        raise KekulecError("subset is not a curve")
    out: list[CurveComponent] = []
    for mask in _component_masks(g, c.mask):
        sub = EdgeSubset(g, mask)
        ends = [n for n in sub.nodes() if sub.degree_in(n) == 1]
        if not ends:
            out.append(CurveComponent("cycle", sub, None))
        else:
            # a curve component with degree-1 nodes is a simple path between ports
            assert len(ends) == 2, "curve component is neither cycle nor port path"
            out.append(CurveComponent("path", sub, (ends[0], ends[1])))
    return out


# -- cycle basis --------------------------------------------------------------

def cycle_basis(g: Graph) -> list[EdgeSubset]:
    """Fundamental cycles of a spanning tree: one per non-tree edge.

    The graph must be connected; the result has exactly
    ``#edges + 1 - #nodes`` cycles and is linearly independent over GF(2)
    because each cycle owns its non-tree edge.
    """
    if not g.nodes:
        return []
    _require_connected(g)
    root = g.nodes[0]
    parent_edge: dict[str, int] = {}
    parent: dict[str, str] = {}
    tree_mask = 0
    seen = {root}
    queue = [root]
    for n in queue:  # grows while it is walked: breadth-first
        for nb, bit in g.neighbors(n):
            if nb not in seen:
                seen.add(nb)
                parent[nb] = n
                parent_edge[nb] = bit
                tree_mask |= 1 << bit
                queue.append(nb)

    def path_mask(n: str) -> int:
        mask = 0
        while n in parent:
            mask |= 1 << parent_edge[n]
            n = parent[n]
        return mask

    cycles = []
    for i, (u, v) in enumerate(g.edges):
        if tree_mask >> i & 1:
            continue
        cycles.append(EdgeSubset(g, (path_mask(u) ^ path_mask(v)) | (1 << i)))
    return cycles


# -- documents ----------------------------------------------------------------

_KNOWN_KEYS = {"edges", "channels", "sockets", "initial"}


@dataclass(frozen=True)
class GraphDocument:
    """Parsed graph document: the graph plus optional switching configuration."""

    graph: Graph
    channels: dict[str, tuple[str, str]]
    sockets: dict[str, tuple[str, str]]
    initial: tuple[str, ...] | None
    warnings: tuple[str, ...]


def _pair_of_strings(value, what: str) -> tuple[str, str]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, str) and x for x in value)):
        raise ParseError(f"malformed {what} {_excerpt(value)}")
    if value[0] == value[1]:
        raise ParseError(f"{what} endpoints must differ: {_excerpt(value)}")
    return (value[0], value[1])


def _named_pairs(doc: dict, key: str, what: str) -> dict[str, tuple[str, str]]:
    """The optional ``{name: [label, label]}`` object under ``key``."""
    raw = doc.get(key)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ParseError(f"'{key}' must be an object of named pairs")
    out: dict[str, tuple[str, str]] = {}
    for name, pair in raw.items():
        if not isinstance(name, str) or not name:
            raise ParseError(f"malformed {what} name {_excerpt(name)}")
        out[name] = _pair_of_strings(pair, f"{what} '{_clip(name)}'")
    return out


def parse_document(text: str) -> GraphDocument:
    """Parse a JSON graph document.

    Schema: ``{"edges": [[label,label],...], "channels": {name:[label,label]}?,
    "sockets": {name:[chan,chan]}?, "initial": [label,...]?}``.  Unknown keys
    are reported as warnings; structural violations raise :class:`ParseError`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ParseError("JSON nests too deeply to parse") from None
    except ValueError:  # an integer literal past Python's int-string digit limit
        raise ParseError("JSON integer literal has too many digits to parse") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "edges" not in doc:
        raise ParseError("missing 'edges'")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list of pairs")
    if not raw_edges:
        raise ParseError("empty edge list")
    graph = Graph(raw_edges)

    warnings = tuple(f"unknown key '{k}' ignored"
                     for k in sorted(set(doc) - _KNOWN_KEYS))

    channels = _named_pairs(doc, "channels", "channel")
    sockets = _named_pairs(doc, "sockets", "socket")

    initial = None
    if doc.get("initial") is not None:
        raw = doc["initial"]
        if not isinstance(raw, list) or not all(isinstance(x, str) and x for x in raw):
            raise ParseError(f"malformed initial assignment {_excerpt(raw)}")
        if len(set(raw)) != len(raw):
            raise ParseError("duplicate label in initial assignment")
        initial = tuple(sorted(raw))

    return GraphDocument(graph, channels, sockets, initial, warnings)


def parse_graph(text: str) -> Graph:
    return parse_document(text).graph


def to_document(g: Graph, channels: dict[str, tuple[str, str]] | None = None,
                sockets: dict[str, tuple[str, str]] | None = None,
                initial: Iterable[str] | None = None) -> dict:
    """Build the JSON-serializable document for a graph."""
    doc: dict = {"edges": [list(e) for e in g.edges]}
    if channels:
        doc["channels"] = {k: list(v) for k, v in sorted(channels.items())}
    if sockets:
        doc["sockets"] = {k: list(v) for k, v in sorted(sockets.items())}
    if initial is not None:
        doc["initial"] = sorted(initial)
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))
