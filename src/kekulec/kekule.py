"""Kekulé states: predicate, enumeration, cells, alternating curves and paths.

A Kekulé state is an edge subset giving every internal node exactly one
incident chosen edge.  :func:`_covers` lists the states by a cover search
over internal nodes in ascending (degree, label) order, so small branching
factors fail fast; edges between two ports are unconstrained and multiply
solutions freely.

Membership of one port assignment in the Kekulé cell needs no enumeration:
the assignment forces every port edge, and a state exists exactly when the
port-port edges agree with it and the internal nodes it leaves uncovered
have a perfect matching among internal-internal edges (Edmonds 1965).
:class:`_Membership` compiles a graph once, over its internal nodes only,
and decides that test with bit masks, one assignment per call
(``probe(mask)``), also where :meth:`_Membership.scan_layer` walks a whole
cardinality layer in member order.  The compile first folds the core by the
paper's merge law: a node with no port and two internal neighbours goes, and
its neighbours merge into one node that takes over their ports, which keeps
every verdict (:meth:`_Membership._fold`); chains and the degree-2 rims of
hex patches shrink, so every probe, scan and DP below runs on fewer nodes.
Each call covers the port nodes, then
runs one post-cover test, whose O(1) degree cut settles dense cores without
a matching search.  Where the core is one non-bipartite component with each
port on its own node, as in Delta_n, every assignment with j ports leaves
the same number of free nodes, so that cut settles a whole cardinality
layer at once (:meth:`_Membership.layers`) and its assignments are never
probed one by one.  The entry points take their probe from :func:`_compiled`,
which keeps the last graph compiled and its probe, keyed by identity, so a
run of calls on one ``Graph`` object, as a verdict then a count, compiles it
once.

The cell itself needs no enumeration, and no first state either.  By the
parity law every state touches as many ports, mod 2, as there are internal
nodes, so the cell lies in the parity class of
:func:`~kekulec.graph.signature`.  One route, :func:`_realized`, gives the
cell as one int bitset, and :func:`kekule_cell` and
:func:`~kekulec.omni.realized_assignment_count` read it.  Below two ports
the class holds at most one mask, and one probe decides it.  Where no
layer of the class settles, :meth:`_Membership.realized` runs a frontier
(transfer-matrix) DP over the folded core whose values are sets of port
masks, one int bitset each, and so gives the whole cell in one pass, exact
on any core, empty where there is no state.  Port-port edges stay out of the
DP and are folded in after it.  Where some layer settles, or the DP's sets
outgrow a fixed budget or its steps would pass what the probes cost, the
cell is the class less what one compiled scan of the open layers finds
missing, each mask probed at most once.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from . import gf2
from .cells import Assignment, Cell, channel, layer_masks
from .errors import KekulecError
from .graph import (EdgeSubset, Graph, _require_same_graph, curve_components, cycle_rank,
                    is_curve, signature)

_RANK_CAP = 24
# the frontier DP of _Membership.realized gives up past this many bits (8 MB)
_DP_BITS = 1 << 26
# the settled layers of a cell search may hold at most 2^20 members, under
# allow_large too: kekule_cell decodes them in about 90 MB
_MEMBER_CAP = 20
# simulate has no --allow-large, so the refusal names it only where it exists
_OVERRIDE = "pass allow_large=True, or --allow-large where the command has it, to override"


def _check_scale(g: Graph, allow_large: bool) -> None:
    # every component has at least two nodes, so the rank E - V + C is at
    # most E - ceil(V/2): when that is in range, skip the component scan
    if allow_large or len(g.edges) - (len(g.nodes) + 1) // 2 <= _RANK_CAP:
        return
    r = cycle_rank(g)
    if r > _RANK_CAP:
        raise KekulecError(
            f"state count bound 2^{r} exceeds 2^{_RANK_CAP}; {_OVERRIDE}")


def _check_port_pairs(count: int, allow_large: bool) -> None:
    """Each free port-port edge doubles both the states and the cell."""
    if count > _RANK_CAP and not allow_large:
        raise KekulecError(
            f"2^{count} free port-port edges exceed 2^{_RANK_CAP}; {_OVERRIDE}")


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


def _covers(g: Graph, ports: int | None = None) -> Iterator[int]:
    """Edge masks of the Kekulé states, in the order of the search.

    The search numbers the ports, then the internal nodes in ascending
    (degree, label) order, so small branching factors fail fast; node b has
    bit b, and each node tries its neighbours in label order.  Without
    ``ports`` it branches on the internal nodes only, and never selects an
    edge between two ports; callers own those bits.  With ``ports``, only
    the states whose port assignment has that bit vector: the other ports
    start covered, so they take no edge, and the search first gives each
    port of ``ports`` its one edge.  A port-port edge with one end outside
    ``ports``, or two ports of ``ports`` on one node, leaves a port without
    a choice, so such an assignment yields nothing.  Depth-first with an
    explicit stack, so long chains cannot exhaust the interpreter's
    recursion limit.
    """
    # a stable sort of the label-ordered internal nodes by degree
    nodes = g.ports + tuple(sorted(g.internal, key=g.degree.__getitem__))
    bit = {v: 1 << b for b, v in enumerate(nodes)}
    neighbors = g.neighbors
    # per node: (edge bit, bit of the other end) per neighbour
    moves = [[(1 << e, bit[u]) for u, e in neighbors(v)] for v in nodes]
    n = len(nodes)
    k = len(g.ports)
    # (next node, edge mask, covered nodes)
    stack = [(k, 0, 0) if ports is None else (0, 0, ((1 << k) - 1) & ~ports)]
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
    """The compiled cell-membership probe of one graph, over its internal
    nodes in ascending (degree, label) order: internal node i is bit i.  The
    compile folds the core (:meth:`_fold`), so ``_internal`` holds the bits
    of the surviving nodes only, with holes where nodes were folded away,
    and a port may share its node with the ports of the nodes merged into
    it; every count of nodes below counts the survivors.

    Called as ``probe(mask)``, it is True iff some Kekulé state has the port
    assignment with bit vector ``mask`` (over ``g.ports``): it checks the
    ports, cuts on per-component parity (and on colour balance where a
    component is bipartite), then searches for a perfect matching of the
    free nodes.  ``scan_layer(j)`` makes that call for every mask with j
    ports in member order; ``layers()`` names the layers whose
    masks are all members without probing any of them, and ``realized()``
    gives every realized mask at once.  The compile, fold included, runs in
    the constructor, and no method changes the probe after it, so
    :func:`_compiled` can hand one probe to every call on its graph.
    """

    __slots__ = ("_adj", "_internal", "_port_node", "_port_pairs", "_degree_cut",
                 "_components")

    def __init__(self, g: Graph):
        # a stable sort of the label-ordered internal nodes by degree; a port
        # has no bit (0), so it drops out of every internal adjacency
        internal = sorted(g.internal, key=g.degree.__getitem__)
        bit = dict.fromkeys(g.ports, 0)
        for i, v in enumerate(internal):
            bit[v] = 1 << i
        neighbors = g._adj  # per node: (neighbour, edge) pairs, as g.neighbors gives them
        # per internal node: its internal neighbours
        adj = []
        for v in internal:
            nbrs = 0
            for u, _ in neighbors[v]:
                nbrs |= bit[u]
            adj.append(nbrs)
        self._adj = adj
        self._internal = (1 << len(adj)) - 1
        # per port: the bit of its neighbour, 0 when that is a port; and each
        # port-port edge once, from its first port
        ports = g.ports
        self._port_node = port_node = []
        self._port_pairs = []
        for j, p in enumerate(ports):
            (nb, _), = neighbors[p]
            node = bit[nb]
            port_node.append(node)
            if not node and p < nb:
                self._port_pairs.append(1 << j | 1 << ports.index(nb))
        # the fold starts from the nodes of degree 2 and tests each itself
        degree = g.degree
        twos = [i for i, v in enumerate(internal) if degree[v] == 2]
        if twos:
            self._fold(twos)
        # 2 (minimum degree - n) over the n nodes of the folded core, for the
        # degree cut of _completes; a folded-away node's entry holds all the
        # compiled nodes, more than any survivor's degree, so min skips it
        self._degree_cut = 2 * (min(map(int.bit_count, adj), default=0)
                                - self._internal.bit_count())
        # breadth-first by whole layers, the odd ones colour 1: an edge joins
        # two layers at most one apart, so the component is bipartite iff no
        # edge stays inside a layer; (node mask, colour-1 mask or None when
        # not bipartite) per component
        self._components = components = []
        left = self._internal
        while left:
            comp = layer = left & -left
            colour, odd, bipartite = 0, False, True
            while layer:
                reach = 0
                rest = layer
                while rest:
                    low = rest & -rest
                    rest ^= low
                    reach |= adj[low.bit_length() - 1]
                if reach & layer:
                    bipartite = False
                layer = reach & ~comp
                comp |= layer
                odd = not odd
                if odd:
                    colour |= layer
            components.append((comp, colour if bipartite else None))
            left &= ~comp

    def _fold(self, queue: list[int]) -> None:
        """Fold the core by the merge law of
        :func:`~kekulec.transform.merge_node` while some node has no port and
        exactly two internal neighbours, starting from the nodes in ``queue``.

        Such a node v is dropped, and of its neighbours a and b the one of
        lower degree is absorbed into the other: their adjacencies unite, the
        a-b edge goes and an edge to a common neighbour is kept once; the
        absorbed node's ports move to the survivor.  For each port mask this
        keeps the verdict.  With a and b both free, a perfect matching pairs
        v with one of them and the other with a neighbour of the survivor
        (the degree-2 fold of perfect matching, and back).  With one covered,
        v is forced to the other, and the survivor is covered.  With both
        covered, v has no partner left, and the two ports share the
        survivor, which the port check refuses.

        The survivor and the common neighbours, which lose a neighbour, are
        queued again when left with two neighbours.  A node is tested when
        it is taken, as a merge may have dropped it, given it a port or
        changed its degree since it was queued.  Absorbing the lower-degree
        neighbour walks only its adjacency, so a hub with many folded arms
        costs one pass over them.
        """
        adj, port_node = self._adj, self._port_node
        internal = full = self._internal
        carries = 0  # the nodes with a port
        for node in port_node:
            carries |= node
        into = {}  # an absorbed node with a port: the node that absorbed it
        while queue:
            i = queue.pop()
            v = 1 << i
            nbrs = adj[i]
            # a folded-away node's entry holds all of the compiled nodes,
            # at least three, so it fails the degree test too
            if carries & v or nbrs.bit_count() != 2:
                continue
            a = nbrs & -nbrs
            b = nbrs ^ a
            ia, ib = a.bit_length() - 1, b.bit_length() - 1
            # a is absorbed into b: the lower degree, ties to the lower bit
            if adj[ib].bit_count() < adj[ia].bit_count():
                a, b, ia, ib = b, a, ib, ia
            absorbed = adj[ia] & ~(v | b)
            kept = adj[ib] & ~(v | a)
            internal ^= v | a
            adj[i] = adj[ia] = full
            adj[ib] = kept | absorbed
            rest = absorbed
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                adj[c] = adj[c] ^ a | b
            if carries & a:
                carries |= b
                into[a] = b
            if adj[ib].bit_count() == 2:
                queue.append(ib)
            common = kept & absorbed
            while common:
                low = common & -common
                common ^= low
                c = low.bit_length() - 1
                if adj[c].bit_count() == 2:
                    queue.append(c)
        self._internal = internal
        if into:
            for j, node in enumerate(port_node):
                if node in into:
                    # follow the absorptions, pointing each one passed at the end
                    passed = []
                    while node in into:
                        passed.append(node)
                        node = into[node]
                    for gone in passed:
                        into[gone] = node
                    port_node[j] = node

    def __call__(self, mask: int) -> bool:
        port_node = self._port_node
        covered = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            node = port_node[low.bit_length() - 1]
            if covered & node:
                return False
            covered |= node
        return self._completes(mask, covered)

    def scan_layer(self, j: int) -> Iterator[tuple[int, bool]]:
        """``(mask, self(mask))`` for every mask with ``j`` ports, in member order."""
        return ((mask, self(mask)) for mask in layer_masks(len(self._port_node), j))

    def layers(self) -> Iterator[tuple[int, bool]]:
        """``(j, settled)`` for every port count j of the parity class of
        :func:`~kekulec.graph.signature`, ascending; ``settled`` when every
        mask with j ports is a member, decided for the whole layer without a
        probe.  The class is the parity of ``len(_adj)``, the internal nodes
        before the fold; each fold step drops two nodes, so every mask of
        the class leaves an even number of the n folded nodes free.

        A layer can settle when the folded core forms one non-bipartite
        component and every port hangs on its own node.  Then every mask
        with j ports leaves the same n - j free nodes of n, so the degree
        cut of :meth:`_completes` decides all of them alike; with no free
        node left the empty matching completes.
        Ports that share a merged node unsettle every layer.  A core that
        folds has a node of degree 2, so before the fold its degree cut
        settled layer j only on n <= 4 - j nodes: only such tiny cores could
        lose a settled layer to the fold, and the scan then decides it.
        """
        components, port_node = self._components, self._port_node
        n = self._internal.bit_count()
        # a port-port edge gives both its ports the node 0, so it fails too
        layered = (len(components) == 1 and components[0][1] is None
                   and len(set(port_node)) == len(port_node))
        for j in range(len(self._adj) & 1, len(port_node) + 1, 2):
            yield j, layered and (self._degree_cut + n - j >= 0 or j == n)

    def realized(self) -> int | None:
        """The set of realized port masks as one int, bit m set iff some
        Kekulé state has the assignment with bit vector m; None past the
        budget set out below.

        A frontier (transfer-matrix) DP over the nodes of the folded core
        (Klein, Hite, Seitz & Schmalz 1986), with sets of masks in place of counts: OR adds,
        a shift by 2^j adds port j to every mask.  A state maps the later
        nodes already matched, the frontier, to the masks of the ports
        matched so far.  A node in the frontier leaves it; any other takes
        a later neighbour outside the frontier or one of its ports, which on
        a merged node include the ports of the nodes merged into it.  Ports on
        port-port edges stay out of the DP: each such edge is taken or not
        whatever the rest of the state does, so a shift by its two ports
        then copies every mask.

        The frontier lies within the boundary, the unvisited nodes with a
        visited neighbour, so the nodes are visited in an order that keeps
        the boundary narrow, chosen as the DP goes (the greedy
        vertex-separation heuristic; Kinnersley 1992).  Each component
        starts from its lowest-numbered node; each later step visits the
        boundary node that brings the fewest new nodes into the boundary,
        ties to the lowest bit, and a boundary of one node is taken without
        a scan.

        The budget prices each state at its set (as many bits as the largest
        mask so far, plus one), its key (one bit per node) and about
        128 bytes of dictionary entry and int headers, and is checked as the
        states of a step are made.  The DP also gives up once its steps, one
        per state and candidate partner and one per boundary node a choice
        scans, pass what the scan of the parity class that :func:`_realized`
        falls back to costs: 2^(k-1) probes for k ports, each priced at 4n
        steps over the n nodes of the folded core, as its matching search
        visits each free
        node a few times, plus one step per state the budget holds at its
        overhead alone.  So a wide frontier with few ports costs little more
        here than there, and a chain, at up to four steps per node, stays on
        the DP.
        """
        n, k = self._internal.bit_count(), len(self._port_node)
        if 1 << k > _DP_BITS:
            return None  # the final set alone would pass the budget
        adj = self._adj
        shifts: list[list[int]] = [[] for _ in adj]
        for j, node in enumerate(self._port_node):
            if node:
                shifts[node.bit_length() - 1].append(1 << j)
        overhead = n + 1024
        steps = _DP_BITS // overhead + (4 * n << k >> 1)
        states = {0: 1}
        reach = 0  # the largest mask so far: the sets hold at most reach + 1 bits
        left = self._internal  # the nodes not yet visited
        boundary = 0  # the nodes of left with a visited neighbour
        while left:
            if boundary & (boundary - 1):
                # the boundary node that brings the fewest new nodes into the
                # boundary, ties to the lowest bit; one step per node scanned
                steps -= boundary.bit_count()
                outside = left & ~boundary
                fewest = n
                rest = boundary
                while rest:
                    low = rest & -rest
                    rest ^= low
                    grow = (adj[low.bit_length() - 1] & outside).bit_count()
                    if grow < fewest:
                        v, fewest = low, grow
                        if not grow:  # none can bring fewer
                            break
                boundary ^= v
            else:
                # the one boundary node, or else the next component's
                # lowest-numbered node
                v = boundary or left & -left
                boundary = 0
            i = v.bit_length() - 1
            left ^= v
            nbrs = adj[i] & left
            boundary |= nbrs
            later = []
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                later.append(low)
            steps -= len(states) * (len(later) + 1)
            if steps < 0:
                return None
            ports = shifts[i]
            reach += sum(ports)
            cap = _DP_BITS // (reach + 1 + overhead)
            new: dict[int, int] = {}
            get = new.get
            for front, masks in states.items():
                if front & v:
                    front ^= v
                    new[front] = get(front, 0) | masks
                    continue
                for u in later:
                    if not front & u:
                        new[front | u] = get(front | u, 0) | masks
                if ports:
                    wider = 0
                    for shift in ports:
                        wider |= masks << shift
                    new[front] = get(front, 0) | wider
                if len(new) > cap:
                    return None
            if not new:
                return 0
            states = new
        masks = states[0]
        for pair in self._port_pairs:
            masks |= masks << pair
        return masks

    def _completes(self, mask: int, covered: int) -> bool:
        """Whether a Kekulé state has the port assignment ``mask``, whose
        port edges cover the nodes ``covered`` of the folded core, each once.

        The port-port edges must agree with ``mask``, and the free nodes of
        the folded core need a perfect matching, which they have exactly
        when the free internal nodes of the graph have one.  Each component must keep an even
        number of them, as many of each colour where it is bipartite.  Then
        each free node has at least delta - (n - |free|) free neighbours, for
        minimum degree delta over the n nodes of the folded core; when that
        is at least |free| / 2, Dirac's condition of :meth:`_matchable`
        holds without a scan.
        """
        for pair in self._port_pairs:
            both = mask & pair
            if both and both != pair:
                return False
        free = self._internal & ~covered
        for comp, colour in self._components:
            part = free & comp
            if colour is None:
                if part.bit_count() & 1:
                    return False
            elif 2 * (part & colour).bit_count() != part.bit_count():
                return False
        return self._degree_cut + free.bit_count() >= 0 or self._matchable(free)

    def _matchable(self, free: int) -> bool:
        """Whether the nodes in ``free`` of the folded core have a perfect
        matching.

        Depth-first over free masks.  A step scans for the free node with
        the fewest free neighbours.  With two or more it branches on them,
        unless that minimum degree is at least half the free nodes: by
        Dirac (1952) the free nodes then have a Hamiltonian cycle, and as
        their number is even (the parity cut ran first and every step
        removes a pair), every other edge of it is a perfect matching.
        With at most one it propagates forced moves through a worklist
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
                if 2 * best_count >= free.bit_count():  # Dirac's condition
                    return True
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


# the last graph _compiled compiled and its probe, read once and replaced whole
_last: tuple[Graph | None, _Membership | None] = (None, None)


def _compiled(g: Graph) -> _Membership:
    """The compiled probe of ``g``, shared with the previous call when that
    was made on the same object.

    One entry, keyed by identity: a run of calls on one ``Graph`` object,
    such as a verdict and a count, or a probe per mask, compiles it once.
    An equal but distinct graph compiles again.  Sharing is safe as nothing
    changes a probe after its compile, and the entry keeps its graph alive,
    so no later object can take its identity.
    """
    global _last
    graph, probe = _last
    if graph is not g:
        probe = _Membership(g)
        _last = (g, probe)
    return probe


def enumerate_kekule_states(g: Graph, allow_large: bool = False) -> list[EdgeSubset]:
    """All Kekulé states, ordered by edge bit vector."""
    _check_scale(g, allow_large)
    degree = g.degree
    # each port-port edge once: a port's edge to a port after it
    free = [1 << e for p in g.ports for nb, e in g.neighbors(p) if p < nb and degree[nb] == 1]
    _check_port_pairs(len(free), allow_large)
    extras = list(gf2.span(free))
    masks = sorted(base | extra for base in _covers(g) for extra in extras)
    return [EdgeSubset(g, m) for m in masks]


def _require_graph_assignment(g: Graph, a: Assignment) -> None:
    if a.ports != g.ports:
        raise KekulecError("assignment port set does not match the graph's ports")
    # checked here, not in Assignment, which cell members build in bulk
    if a.mask < 0 or a.mask >> len(g.ports):
        raise KekulecError("assignment mask has bits outside the port set")


def kekule_states_for(g: Graph, a: Assignment, allow_large: bool = False) -> list[EdgeSubset]:
    """Kekulé states whose port assignment equals ``a``.

    Port edges are fixed by the assignment before the search, so the cost
    stays proportional to the constrained search, not the full state set.
    """
    _require_graph_assignment(g, a)
    _check_scale(g, allow_large)
    masks = sorted(_covers(g, a.mask))
    return [EdgeSubset(g, m) for m in masks]


def has_kekule_state_for(g: Graph, a: Assignment) -> bool:
    """Existence version of :func:`kekule_states_for`, decided by one
    compiled membership probe instead of a state search."""
    _require_graph_assignment(g, a)
    return _compiled(g)(a.mask)


def _realized(g: Graph, allow_large: bool) -> int:
    """The cell of ``g`` as one int, bit m set iff some Kekulé state has the
    port assignment with bit vector m over ``g.ports``.

    Every state touches as many ports, mod 2, as there are internal nodes,
    so the cell lies in the parity class of :func:`~kekulec.graph.signature`.
    Below two ports that class holds at most one mask, decided by one probe
    of :class:`_Membership`.  Where no cardinality layer of the class settles
    (:meth:`_Membership.layers`), the cell comes from the frontier DP
    (:meth:`_Membership.realized`), which gives the empty cell of a graph
    without a state as well.  Otherwise, and past the DP's budget, it is the
    class less the masks that one compiled scan of the open layers
    (:meth:`_Membership.scan_layer`) finds missing: at most the 2^(k-1)
    masks of the class for k ports, each probed once, and none where every
    layer settles.  Without ``allow_large`` a scan is refused where that
    bound passes 2^24 probes.  Before the class is built, the members of its
    settled layers are counted, and past ``2^_MEMBER_CAP`` of them the search
    is refused, with ``allow_large`` too.
    """
    k = len(g.ports)
    parity = signature(g)
    if k < 2:
        # the one mask of the class is the parity; with no port an odd one has none
        return 1 << parity if parity <= k and _compiled(g)(parity) else 0
    probe = _compiled(g)
    layers = list(probe.layers())
    open_layers = [j for j, settled in layers if not settled]
    if len(open_layers) == len(layers):
        realized = probe.realized()
        if realized is not None:
            return realized
        # past 24 port-port edges their fold alone passes the DP's budget, so
        # a graph refused here has never run the DP
        _check_port_pairs(len(probe._port_pairs), allow_large)
    # the settled layers are members whatever the scan finds; decoding them
    # is the memory, so they are priced before the class is built
    settled = sum(comb(k, j) for j, done in layers if done)
    if settled > 1 << _MEMBER_CAP:
        raise KekulecError(f"cell of at least {settled} members exceeds 2^{_MEMBER_CAP}; "
                           "allow_large does not lift this bound")
    if open_layers and k - 1 > _RANK_CAP and not allow_large:
        raise KekulecError(f"cell search bound 2^{k - 1} probes exceeds 2^{_RANK_CAP}; "
                           f"{_OVERRIDE}")
    # the class, doubled one port at a time: the masks with port i are those
    # without it, moved up by 2^i, from the class of the other parity
    even, odd = 1, 0
    for i in range(k):
        even, odd = even | odd << (1 << i), odd | even << (1 << i)
    realized = odd if parity else even
    if not open_layers:
        return realized
    bits = bytearray(realized.to_bytes(((1 << k) + 7) >> 3, "little"))
    for j in open_layers:
        for mask, member in probe.scan_layer(j):
            if not member:
                bits[mask >> 3] &= ~(1 << (mask & 7))
    return int.from_bytes(bits, "little")


def kekule_cell(g: Graph, allow_large: bool = False) -> Cell:
    """The set of port assignments realized by some Kekulé state, as
    :func:`_realized` finds it; refused without ``allow_large`` where the
    state count bound, the free port-port edges' span or the scan's price
    passes 2^24, and with it too where the settled members would pass
    2^20."""
    _check_scale(g, allow_large)
    # bit m of the set is mask m: read the set bits off its binary digits
    digits = bin(_realized(g, allow_large))[:1:-1]
    masks = []
    m = digits.find("1")
    while m >= 0:
        masks.append(m)
        m = digits.find("1", m + 1)
    return Cell(g.ports, frozenset(masks))


# -- alternating curves -------------------------------------------------------

def is_alternating(g: Graph, c: EdgeSubset, w: EdgeSubset) -> bool:
    """True iff ``c`` is a curve and ``w & c`` is a Kekulé state of ``c``."""
    _require_same_graph(g, c)
    _require_same_graph(g, w)
    if not is_curve(g, c):
        return False
    # a curve meets a port in at most one edge, so W & c is a Kekulé state
    # of c iff each internal node c meets has exactly one W-edge in c
    mask, incidence = c.mask, g._incidence
    wc = w.mask & mask
    for n in g.internal:
        m = incidence[n]
        if mask & m and (wc & m).bit_count() != 1:
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
    mask = next(_covers(g, target.mask), None)
    if mask is None:
        return None
    diff = w ^ EdgeSubset(g, mask)
    for comp in curve_components(g, diff):
        if p in comp.subset.nodes():
            assert comp.kind == "path" and comp.endpoints == tuple(sorted((p, q)))
            return comp.subset
    raise AssertionError("toggled state must differ from W at p")
