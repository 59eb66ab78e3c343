"""Kekulé states: predicate, enumeration, cells, alternating curves and paths.

A Kekulé state is an edge subset giving every internal node exactly one
incident chosen edge.  Enumeration backtracks over internal nodes in
ascending (degree, label) order so small branching factors fail fast; edges
between two ports are unconstrained and multiply solutions freely.

Membership of one port assignment in the Kekulé cell needs no enumeration:
the assignment forces every port edge, and a state exists exactly when the
port-port edges agree with it and the internal nodes it leaves uncovered
have a perfect matching among internal-internal edges (Edmonds 1965).
:class:`_Membership` compiles that test once per graph into bit masks.

The cell itself needs no enumeration either: :func:`kekule_cell` starts from
the assignment of one state and searches over channel moves, probing each
new assignment once.  The channel-decomposition law (any two members are
joined by disjoint channels whose partial sums are all members) makes that
search complete.
"""

from __future__ import annotations

from typing import Iterator

from .cells import Assignment, Cell, channel
from .errors import KekulecError
from .graph import EdgeSubset, Graph, curve_components, cycle_rank, is_curve

_RANK_CAP = 24


def _check_scale(g: Graph, allow_large: bool) -> None:
    r = cycle_rank(g)
    if r > _RANK_CAP and not allow_large:
        raise KekulecError(
            f"state count bound 2^{r} exceeds 2^{_RANK_CAP}; "
            "pass allow_large=True to override")


def _check_port_pairs(count: int, allow_large: bool) -> None:
    """Each free port-port edge doubles both the states and the cell."""
    if count > _RANK_CAP and not allow_large:
        raise KekulecError(
            f"2^{count} free port-port edges exceed 2^{_RANK_CAP}; "
            "pass allow_large=True to override")


def _require_same_graph(g: Graph, w: EdgeSubset) -> None:
    if w.graph != g:
        raise KekulecError("edge subset belongs to a different graph")


def is_kekule_state(g: Graph, w: EdgeSubset) -> bool:
    """True iff every internal node has exactly one incident edge in ``w``."""
    _require_same_graph(g, w)
    return all((w.mask & g.incidence_mask(v)).bit_count() == 1 for v in g.internal)


def is_perfect_matching(g: Graph, w: EdgeSubset) -> bool:
    """True iff every node, ports included, has exactly one incident edge in ``w``."""
    _require_same_graph(g, w)
    return all((w.mask & g.incidence_mask(v)).bit_count() == 1 for v in g.nodes)


def port_assignment(g: Graph, w: EdgeSubset) -> Assignment:
    """The assignment (W|P): ports touched by an edge of ``w``."""
    _require_same_graph(g, w)
    mask = 0
    for i, p in enumerate(g.ports):
        if w.mask & g.incidence_mask(p):
            mask |= 1 << i
    return Assignment(g.ports, mask)


def _iter_cover_masks(g: Graph, forced_in: int = 0, forced_out: int = 0) -> Iterator[int]:
    """Masks covering every internal node exactly once.

    ``forced_in`` edges are pre-selected, ``forced_out`` excluded.  Edges
    between two ports are never selected here; callers own those bits.
    Depth-first with an explicit stack, so long chains cannot exhaust the
    interpreter's recursion limit; masks come out in the order of the search.
    """
    degree = g.degree
    order = sorted(g.internal, key=lambda n: (degree[n], n))
    bit = {v: 1 << i for i, v in enumerate(order)}
    covered = 0
    if forced_in:
        for v in order:
            cnt = (forced_in & g.incidence_mask(v)).bit_count()
            if cnt > 1:
                return
            if cnt:
                covered |= bit[v]
    # per node: (edge bit, covered bit of the other end, 0 for a port)
    moves = [[(1 << e, bit.get(other, 0)) for other, e in g.neighbors(v)
              if not forced_out >> e & 1]
             for v in order]
    n = len(order)
    stack = [(0, forced_in, covered)]
    while stack:
        i, mask, covered = stack.pop()
        while i < n and covered >> i & 1:
            i += 1
        if i == n:
            yield mask
            continue
        me = 1 << i
        # reversed, so the first candidate is popped (and searched) first
        stack.extend([(i + 1, mask | edge, covered | me | other)
                      for edge, other in reversed(moves[i]) if not covered & other])


class _Membership:
    """Compiled cell-membership test for one graph.

    ``probe(mask)`` is True iff some Kekulé state has the port assignment
    with bit vector ``mask`` (over ``g.ports``).  Internal nodes become bit
    positions; a probe checks the port-port edges, covers the internal
    neighbours of the chosen ports, cuts on per-component parity (and on
    colour balance where a component is bipartite), then searches for a
    perfect matching of the free nodes.
    """

    __slots__ = ("_port_node", "_port_pairs", "_adj", "_internal", "_components")

    def __init__(self, g: Graph):
        bit = {v: 1 << i for i, v in enumerate(g.internal)}
        port_bit = {p: 1 << i for i, p in enumerate(g.ports)}
        self._adj: list[int] = []
        for v in g.internal:
            nbrs = 0
            for u, _ in g.neighbors(v):
                nbrs |= bit.get(u, 0)
            self._adj.append(nbrs)
        self._internal = (1 << len(bit)) - 1
        # per port: bit of its internal neighbour, 0 when its neighbour is a port
        self._port_node: list[int] = []
        self._port_pairs: list[int] = []
        for p in g.ports:
            (nb, _), = g.neighbors(p)
            self._port_node.append(bit.get(nb, 0))
            if nb in port_bit and nb > p:
                self._port_pairs.append(port_bit[p] | port_bit[nb])
        self._components = self._colour_components()

    def _colour_components(self) -> list[tuple[int, int | None]]:
        """(node mask, colour-1 mask or None when not bipartite) per component."""
        out = []
        left = self._internal
        while left:
            start = left & -left
            comp, colour, bipartite = start, 0, True
            stack = [start]
            while stack:
                node = stack.pop()
                odd = bool(colour & node)
                nbrs = self._adj[node.bit_length() - 1]
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    if not comp & low:
                        comp |= low
                        if not odd:
                            colour |= low
                        stack.append(low)
                    elif bool(colour & low) == odd:
                        bipartite = False
            out.append((comp, colour if bipartite else None))
            left &= ~comp
        return out

    def __call__(self, mask: int) -> bool:
        for pair in self._port_pairs:
            both = mask & pair
            if both and both != pair:
                return False
        port_node = self._port_node
        covered = 0
        while mask:
            low = mask & -mask
            mask ^= low
            node = port_node[low.bit_length() - 1]
            if covered & node:
                return False
            covered |= node
        free = self._internal & ~covered
        for comp, colour in self._components:
            part = free & comp
            if colour is None:
                if part.bit_count() & 1:
                    return False
            elif 2 * (part & colour).bit_count() != part.bit_count():
                return False
        return self._matchable(free)

    def _matchable(self, free: int) -> bool:
        """Whether the internal nodes in ``free`` have a perfect matching.

        Depth-first over free masks.  A step scans for the free node with
        the fewest free neighbours.  With two or more it branches on them;
        with at most one it propagates forced moves through a worklist
        instead of rescanning, so a long chain is matched in one sweep.
        """
        adj = self._adj
        # (free nodes after removing a branch node, its untried free neighbours)
        stack: list[tuple[int, int]] = []
        while free:
            best_count = len(adj) + 1
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs = adj[low.bit_length() - 1] & free
                count = nbrs.bit_count()
                if count < best_count:
                    best, best_nbrs, best_count = low, nbrs, count
                    if count <= 1:
                        break
            if best_count > 1:
                stack.append((free & ~best, best_nbrs))
            elif best_count:
                # forced moves (Karp & Sipser 1981): a node with one free
                # neighbour must take it, and matching the pair can force its
                # neighbours in turn; a node left with none ends the branch
                free ^= best | best_nbrs
                work = (adj[best.bit_length() - 1] | adj[best_nbrs.bit_length() - 1]) & free
                while work:
                    node = work & -work
                    work ^= node
                    nbrs = adj[node.bit_length() - 1] & free
                    if not nbrs:
                        break
                    if nbrs & (nbrs - 1):
                        continue
                    free ^= node | nbrs
                    work = (work | adj[node.bit_length() - 1] | adj[nbrs.bit_length() - 1]) & free
                else:
                    continue
            if not stack:
                return False
            rest, untried = stack.pop()
            low = untried & -untried
            if untried != low:
                stack.append((rest, untried ^ low))
            free = rest & ~low
        return True


def _port_port_bits(g: Graph) -> list[int]:
    port_set = set(g.ports)
    return [i for i, (u, v) in enumerate(g.edges)
            if u in port_set and v in port_set]


def enumerate_kekule_states(g: Graph, allow_large: bool = False) -> list[EdgeSubset]:
    """All Kekulé states, ordered by edge bit vector."""
    _check_scale(g, allow_large)
    free = _port_port_bits(g)
    _check_port_pairs(len(free), allow_large)
    masks = []
    for base in _iter_cover_masks(g):
        for sel in range(1 << len(free)):
            extra = 0
            for j, bit in enumerate(free):
                if sel >> j & 1:
                    extra |= 1 << bit
            masks.append(base | extra)
    masks.sort()
    return [EdgeSubset(g, m) for m in masks]


def _forced_port_edges(g: Graph, a: Assignment) -> tuple[int, int] | None:
    """(forced_in, forced_out) for the port edges under assignment ``a``.

    None when a port-port edge gets contradictory demands, i.e. no state
    can realize the assignment.
    """
    port_set = set(g.ports)
    want = set(a.labels())
    forced_in = forced_out = 0
    for i, (u, v) in enumerate(g.edges):
        u_port, v_port = u in port_set, v in port_set
        if u_port and v_port:
            if (u in want) != (v in want):
                return None
            forced = u in want
        elif u_port or v_port:
            forced = (u if u_port else v) in want
        else:
            continue
        if forced:
            forced_in |= 1 << i
        else:
            forced_out |= 1 << i
    return forced_in, forced_out


def _require_graph_assignment(g: Graph, a: Assignment) -> None:
    if a.ports != g.ports:
        raise KekulecError("assignment port set does not match the graph's ports")


def kekule_states_for(g: Graph, a: Assignment, allow_large: bool = False) -> list[EdgeSubset]:
    """Kekulé states whose port assignment equals ``a``.

    Port edges are pre-forced by the assignment before backtracking, so the
    cost stays proportional to the constrained search, not the full state set.
    """
    _require_graph_assignment(g, a)
    _check_scale(g, allow_large)
    forced = _forced_port_edges(g, a)
    if forced is None:
        return []
    masks = sorted(_iter_cover_masks(g, *forced))
    return [EdgeSubset(g, m) for m in masks]


def has_kekule_state_for(g: Graph, a: Assignment) -> bool:
    """Existence version of :func:`kekule_states_for`, decided by one
    compiled membership probe instead of a state search."""
    _require_graph_assignment(g, a)
    return _Membership(g)(a.mask)


def kekule_cell(g: Graph, allow_large: bool = False) -> Cell:
    """The set of port assignments realized by some Kekulé state.

    Breadth-first search over channel moves from the assignment of one
    state: each new assignment one channel toggle away from a member is
    probed once by :class:`_Membership`.  By the channel-decomposition law
    any two members are joined by disjoint channels whose partial sums are
    all members, so the search reaches the whole cell.  The cost is about
    |cell| x k^2 probes for k ports, independent of the state count.
    """
    _check_scale(g, allow_large)
    start = next(_iter_cover_masks(g), None)
    if start is None:
        return Cell(g.ports, frozenset())
    ports = g.ports
    member = port_assignment(g, EdgeSubset(g, start)).mask
    if len(ports) < 2:
        return Cell(ports, frozenset((member,)))
    probe = _Membership(g)
    _check_port_pairs(len(probe._port_pairs), allow_large)
    moves = [1 << i | 1 << j for j in range(len(ports)) for i in range(j)]
    seen = {member}
    members = [member]
    for member in members:  # grows while it is walked: breadth-first
        for move in moves:
            other = member ^ move
            if other not in seen:
                seen.add(other)
                if probe(other):
                    members.append(other)
    return Cell(ports, frozenset(members))


# -- alternating curves -------------------------------------------------------

def is_alternating(g: Graph, c: EdgeSubset, w: EdgeSubset) -> bool:
    """True iff ``c`` is a curve and ``w & c`` is a Kekulé state of ``c``."""
    _require_same_graph(g, c)
    _require_same_graph(g, w)
    if not is_curve(g, c):
        return False
    wc = w.mask & c.mask
    for n in c.nodes():
        if c.degree_in(n) >= 2 and (wc & g.incidence_mask(n)).bit_count() != 1:
            return False
    return True


def state_difference(w: EdgeSubset, w2: EdgeSubset) -> EdgeSubset:
    """The curve W xor W'; alternating with respect to both states."""
    if w.graph != w2.graph:
        raise KekulecError("states belong to different graphs")
    g = w.graph
    if not is_kekule_state(g, w) or not is_kekule_state(g, w2):
        raise KekulecError("state_difference requires two Kekulé states")
    c = w ^ w2
    assert is_alternating(g, c, w)
    return c


def apply_curve(w: EdgeSubset, c: EdgeSubset) -> EdgeSubset:
    """Toggle an alternating curve, producing another Kekulé state."""
    if w.graph != c.graph:
        raise KekulecError("curve belongs to a different graph")
    g = w.graph
    if not is_kekule_state(g, w):
        raise KekulecError("apply_curve requires a Kekulé state")
    if not is_alternating(g, c, w):
        raise KekulecError("curve not alternating for W")
    result = w ^ c
    assert is_kekule_state(g, result)
    return result


def alternating_curves(g: Graph, w: EdgeSubset, with_ports: bool = False,
                       allow_large: bool = False) -> list[EdgeSubset]:
    """All curves alternating with ``w``; port-free only unless ``with_ports``.

    Every alternating curve is W xor W' for a unique Kekulé state W', and the
    port-free ones correspond to the states sharing W's port assignment.
    """
    if not is_kekule_state(g, w):
        raise KekulecError("alternating_curves requires a Kekulé state")
    if with_ports:
        others = enumerate_kekule_states(g, allow_large)
    else:
        others = kekule_states_for(g, port_assignment(g, w), allow_large)
    masks = sorted(w.mask ^ o.mask for o in others)
    return [EdgeSubset(g, m) for m in masks]


def alternating_path(g: Graph, w: EdgeSubset, p: str, q: str) -> EdgeSubset | None:
    """A simple alternating path between two ports, when one exists.

    Exists iff toggling {p, q} in W's port assignment lands in the Kekulé
    cell; the path is the connected component of ``p`` in W xor W' for a
    state W' realizing the toggled assignment.
    """
    for x in (p, q):
        if x not in g.ports:
            raise KekulecError(f"'{x}' is not a port")
    if p == q:
        raise KekulecError("ports must differ")
    if not is_kekule_state(g, w):
        raise KekulecError("alternating_path requires a Kekulé state")
    target = port_assignment(g, w) ^ channel(g.ports, p, q)
    forced = _forced_port_edges(g, target)
    if forced is None:
        return None
    mask = next(_iter_cover_masks(g, *forced), None)
    if mask is None:
        return None
    diff = w ^ EdgeSubset(g, mask)
    for comp in curve_components(g, diff):
        if p in comp.subset.nodes():
            assert comp.kind == "path" and comp.endpoints == tuple(sorted((p, q)))
            return comp.subset
    raise AssertionError("toggled state must differ from W at p")
