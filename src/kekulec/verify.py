"""Desk-scale verification of the structural claims behind the library.

Each claim exhausts a small-graph universe (every isomorphism class on at
most 7 nodes, filtered by edge count) or a seeded random family, checks one
library-level law through two independent routes where possible, and
reports the first counterexample as a graph document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

from .cells import (Assignment, Cell, channel, diameter, flex, flexible_ports,
                    is_open, parity_space, channel_decomposition, translate)
from .classify import BASE_CELLS, classify_cell, diameter4_template
from .errors import CellError, KekulecError
from .graph import Graph, cycle_rank, is_curve, signature, to_document
from .kekule import (alternating_path, apply_curve, enumerate_kekule_states,
                     is_alternating, is_kekule_state, kekule_cell,
                     kekule_states_for, port_assignment)
from .omni import is_omniconjugated, make_A, make_B, make_delta, pendant_core_is_complete
from .semikekule import enumerate_semi_kekule, hsk_basis, solve_semi_kekule
from .smallgraphs import (atlas_graphs, connected_with_ports,
                          random_bounded_graph, random_connected_graph)
from .transform import (add_internal_edge, attach_handles, flexible_subgraph,
                        glue_ports, merge_node, split_node, subdivide_port_edge,
                        translate_graph)


@dataclass(frozen=True)
class Bounds:
    """Size knobs for the verification suites.

    ``max_edges`` caps the exhaustive universes below each claim's default;
    ``random_count`` and ``seed`` drive the randomized families.
    """

    max_edges: int | None = None
    random_count: int = 200
    seed: int = 1

    def __post_init__(self):
        # the random families draw connected graphs on at least 3 nodes
        if self.max_edges is not None and self.max_edges < 2:
            raise KekulecError(f"max_edges must be at least 2, got {self.max_edges}")
        if self.random_count < 0:
            raise KekulecError(f"random_count must be at least 0, got {self.random_count}")


@dataclass
class ClaimResult:
    claim: str
    ok: bool
    detail: str
    counterexample: dict | None = None
    stats: dict = field(default_factory=dict)


def _cap(bounds: Bounds, default: int) -> int:
    if bounds.max_edges is None:
        return default
    return min(bounds.max_edges, default)


def _fail(claim: str, detail: str, g: Graph | None = None) -> ClaimResult:
    return ClaimResult(claim, False, detail,
                       to_document(g) if g is not None else None)


# -- independent oracle: alternating path by direct search -------------------

def alternating_path_exists(g: Graph, w, p: str, q: str) -> bool:
    """Backtracking search for a simple path p..q whose edges alternate
    between w-membership and non-membership.  Independent of the cell route;
    an explicit stack keeps long paths clear of the recursion limit."""
    (v, bit), = g.neighbors(p)
    if v == q:
        return True
    visited = {p, v}
    # (node, whether the edge into it is in w, its unexplored neighbours)
    stack = [(v, bool(w.mask >> bit & 1), iter(g.neighbors(v)))]
    while stack:
        node, last_in_w, todo = stack[-1]
        for nb, b in todo:
            in_w = bool(w.mask >> b & 1)
            if in_w == last_in_w:
                continue
            if nb == q:
                return True
            if nb in visited:
                continue
            visited.add(nb)
            stack.append((nb, in_w, iter(g.neighbors(nb))))
            break
        else:
            stack.pop()
            visited.discard(node)
    return False


# -- claims -------------------------------------------------------------------

def claim_state_difference_curves(bounds: Bounds) -> ClaimResult:
    """State differences are alternating curves; toggling one maps states to states."""
    name = "state-difference-curves"
    graphs = atlas_graphs(max_edges=_cap(bounds, 9))
    pairs = 0
    for g in graphs:
        states = enumerate_kekule_states(g)
        for w in states:
            for w2 in states:
                c = w ^ w2
                if not is_curve(g, c) or not is_alternating(g, c, w):
                    return _fail(name, f"W xor W' not alternating: {w} / {w2}", g)
                if apply_curve(w, c) != w2:
                    return _fail(name, f"toggle round trip broke at {w} / {w2}", g)
                pairs += 1
    return ClaimResult(name, True, f"{len(graphs)} graphs, {pairs} state pairs",
                       stats={"graphs": len(graphs), "pairs": pairs})


def claim_openness_equivalence(bounds: Bounds) -> ClaimResult:
    """Channel openness from the cell agrees with alternating-path search."""
    name = "openness-path-equivalence"
    graphs = atlas_graphs(max_edges=_cap(bounds, 10), connected=True)
    checks = 0
    for g in graphs:
        cell = kekule_cell(g)
        for w in enumerate_kekule_states(g):
            k = port_assignment(g, w)
            for p, q in combinations(g.ports, 2):
                via_cell = is_open(cell, k, channel(g.ports, p, q))
                via_search = alternating_path_exists(g, w, p, q)
                constructed = alternating_path(g, w, p, q)
                if via_cell != via_search or via_cell != (constructed is not None):
                    return _fail(
                        name,
                        f"openness mismatch for {{{p},{q}}} at state {w}: "
                        f"cell={via_cell} search={via_search}", g)
                checks += 1
    return ClaimResult(name, True, f"{len(graphs)} graphs, {checks} channel checks",
                       stats={"graphs": len(graphs), "checks": checks})


def claim_cell_translation(bounds: Bounds) -> ClaimResult:
    """Subdividing port edges translates the Kekulé cell."""
    name = "cell-translation"
    rng = random.Random(bounds.seed)
    target = max(100, bounds.random_count // 2)
    done = 0
    while done < target:
        g = random_connected_graph(rng, max_edges=12, max_nodes=8)
        if not g.ports:
            continue
        a = Assignment(g.ports, rng.randrange(1 << len(g.ports)))
        if kekule_cell(translate_graph(g, a)) != translate(a, kekule_cell(g)):
            return _fail(name, f"translate by {a} broke the cell law", g)
        done += 1
    return ClaimResult(name, True, f"{done} random (graph, assignment) instances",
                       stats={"instances": done})


def claim_decomposition_law(bounds: Bounds) -> ClaimResult:
    """Kekulé cells: even diameter, never one flexible port, decomposable pairs."""
    name = "channel-decomposition-law"
    graphs = atlas_graphs(max_edges=_cap(bounds, 12))
    cells = pairs = 0
    for g in graphs:
        cell = kekule_cell(g)
        if not cell.masks:
            continue
        cells += 1
        if diameter(cell) % 2:
            return _fail(name, "odd cell diameter", g)
        fp = flexible_ports(cell)
        if len(fp) == 1:
            return _fail(name, "exactly one flexible port", g)
        members = cell.members()
        for m in members:
            for p in fp:
                if not any(q != p and is_open(cell, m, channel(cell.ports, p, q))
                           for q in cell.ports):
                    return _fail(name, f"no channel at flexible port {p} from {m}", g)
        for m1, m2 in combinations(members, 2):
            try:
                d = channel_decomposition(cell, m1, m2)
            except CellError as exc:
                return _fail(name, f"decomposition failed: {exc}", g)
            if 2 * len(d) != (m1.mask ^ m2.mask).bit_count():
                return _fail(name, f"wrong decomposition size {m1} -> {m2}", g)
            pairs += 1
    return ClaimResult(name, True,
                       f"{cells} nonempty cells, {pairs} member pairs decomposed",
                       stats={"cells": cells, "pairs": pairs})


def _eligible_merges(g: Graph) -> list[str]:
    out = []
    for u0 in g.internal:
        if g.degree[u0] != 2:
            continue
        if all(g.degree[nb] > 1 for nb, _ in g.neighbors(u0)):
            out.append(u0)
    return out


def claim_merge_split(bounds: Bounds) -> ClaimResult:
    """Merging a degree-2 node / splitting a node preserves the Kekulé cell."""
    name = "merge-split-invariance"
    merges = splits = 0
    rng = random.Random(bounds.seed + 1)

    def check(g: Graph, merge_at, split_at) -> ClaimResult | None:
        """Merge ``g`` at each node of ``merge_at`` and split it at each
        ``(u, group1, group2)`` of ``split_at``; the first failure, or None."""
        nonlocal merges, splits
        cell = None
        for u0 in merge_at:
            try:
                merged = merge_node(g, u0)
            except KekulecError:
                continue  # would change the port set: outside the invariance law
            cell = cell if cell is not None else kekule_cell(g)
            if kekule_cell(merged) != cell:
                return _fail(name, f"merge at {u0} changed the cell", g)
            merges += 1
        for u, g1, g2 in split_at:
            split = split_node(g, u, g1, g2)
            cell = cell if cell is not None else kekule_cell(g)
            if kekule_cell(split) != cell:
                return _fail(name, f"split at {u} changed the cell", g)
            back = merge_node(split, sorted(set(split.nodes) - set(g.nodes))[1])
            if back != g:
                return _fail(name, f"split/merge round trip broke at {u}", g)
            splits += 1
        return None

    def random_split(g: Graph, u: str) -> tuple[str, list[str], list[str]]:
        nbs = [nb for nb, _ in g.neighbors(u)]
        g1 = rng.sample(nbs, rng.randint(1, len(nbs) - 1))
        return u, g1, [x for x in nbs if x not in g1]

    for g in atlas_graphs(max_edges=_cap(bounds, 12)):
        failure = check(g, _eligible_merges(g),
                        [random_split(g, u) for u in g.internal])
        if failure is not None:
            return failure
    # random top-up so each rewrite sees at least 100 instances
    while merges < 100 or splits < 100:
        g = random_connected_graph(rng, max_edges=12, max_nodes=9)
        split_at = []
        for u in g.internal[:2]:
            nbs = [nb for nb, _ in g.neighbors(u)]
            split_at.append((u, nbs[:1], nbs[1:]))
        failure = check(g, _eligible_merges(g)[:2], split_at)
        if failure is not None:
            return failure
    return ClaimResult(name, True, f"{merges} merges, {splits} splits preserved",
                       stats={"merges": merges, "splits": splits})


def _edge_walk(g: Graph):
    """Every edge subset of ``g`` once, in reflected Gray-code order, as
    ``(mask, odd)`` pairs: ``odd`` has bit i set iff ``g.nodes[i]`` meets
    an odd number of the subset's edges.

    Consecutive masks differ in one edge, so each step XORs that edge's two
    endpoint bits into ``odd`` instead of recounting every node.
    """
    bit = {v: 1 << i for i, v in enumerate(g.nodes)}
    flip = [bit[u] | bit[v] for u, v in g.edges]
    mask = odd = 0
    yield mask, odd
    for k in range(1, 1 << len(flip)):
        i = (k & -k).bit_length() - 1  # step k of the Gray code flips edge i
        mask ^= 1 << i
        odd ^= flip[i]
        yield mask, odd


def claim_parity_law(bounds: Bounds) -> ClaimResult:
    """Semi-Kekulé parity law, both directions, by brute force and solving.

    The brute-force direction walks all 2^E edge subsets with ``_edge_walk``.
    A subset is semi-Kekulé iff every internal node has odd degree in it, and
    it touches a port iff the port (of degree 1) has odd degree in it.
    """
    name = "parity-law"
    graphs = atlas_graphs(max_edges=_cap(bounds, 10), connected=True)
    brute = solved = 0
    for g in graphs:
        eps = signature(g)
        inc = [g.incidence_mask(v) for v in g.internal]
        # node bits in ``_edge_walk``'s numbering; every node is a port or internal
        ports = sum(1 << i for i, v in enumerate(g.nodes) if g.degree[v] == 1)
        internal = ((1 << len(g.nodes)) - 1) ^ ports
        for mask, odd in _edge_walk(g):
            if odd & internal == internal:
                if (odd & ports).bit_count() % 2 != eps:
                    return _fail(name, f"semi-Kekulé state with wrong parity: {mask:#x}", g)
                brute += 1
        for m in range(1 << len(g.ports)):
            a = Assignment(g.ports, m)
            w = solve_semi_kekule(g, a)
            if (w is not None) != (len(a) % 2 == eps):
                return _fail(name, f"solvability disagrees with parity at {a}", g)
            if w is not None:
                ok = (all((w.mask & m2).bit_count() % 2 for m2 in inc)
                      and port_assignment(g, w) == a)
                if not ok:
                    return _fail(name, f"solver returned a bad state for {a}", g)
                solved += 1
    return ClaimResult(
        name, True,
        f"{len(graphs)} graphs, {brute} brute-force states, {solved} solves",
        stats={"graphs": len(graphs), "brute": brute, "solved": solved})


def claim_kernel_span(bounds: Bounds) -> ClaimResult:
    """Kernel dimension and the exactly-2^r span on random connected graphs."""
    name = "kernel-span"
    rng = random.Random(bounds.seed + 2)
    assignments = 0
    graphs = bounds.random_count
    for _ in range(graphs):
        g = random_bounded_graph(rng, max_edges=_cap(bounds, 16))
        r = cycle_rank(g)
        basis = hsk_basis(g)
        if len(basis) != len(g.edges) + 1 - len(g.nodes):
            return _fail(name, f"kernel dimension {len(basis)} != E+1-V", g)
        inc = [g.incidence_mask(v) for v in g.internal]
        for a in parity_space(g.ports, signature(g)).members():
            states = enumerate_semi_kekule(g, a)
            masks = {w.mask for w in states}
            if len(states) != 2 ** r or len(masks) != 2 ** r:
                return _fail(name, f"{len(states)} span states for {a}, want 2^{r}", g)
            for w in states:
                if not all((w.mask & m).bit_count() % 2 for m in inc):
                    return _fail(name, f"non-semi-Kekulé state in span for {a}", g)
                if port_assignment(g, w) != a:
                    return _fail(name, f"span state leaks outside assignment {a}", g)
            kek = [w.mask for w in states if is_kekule_state(g, w)]
            if len(kek) > 2 ** r:
                return _fail(name, f"more than 2^{r} Kekulé states for {a}", g)
            direct = [w.mask for w in kekule_states_for(g, a)]
            if sorted(kek) != direct:
                return _fail(name, f"backtracking and span routes disagree at {a}", g)
            assignments += 1
        if g.ports:
            wrong = Assignment(g.ports, 1 if signature(g) == 0 else 0)
            if len(wrong) % 2 != signature(g):
                try:
                    enumerate_semi_kekule(g, wrong)
                    return _fail(name, "wrong-parity enumeration did not refuse", g)
                except KekulecError:
                    pass
    return ClaimResult(name, True,
                       f"{graphs} random graphs, {assignments} assignments spanned",
                       stats={"graphs": graphs, "assignments": assignments})


def _port_free_masks(g: Graph) -> list[int]:
    """Every edge subset of ``g`` with no port edge, in increasing order:
    the submasks of the internal edges, walked by ``sub = (sub - 1) & inner``."""
    inner = (1 << len(g.edges)) - 1
    for p in g.ports:
        inner &= ~g.incidence_mask(p)
    out = [0]
    sub = inner
    while sub:
        out.append(sub)
        sub = (sub - 1) & inner
    out.sort()
    return out


def claim_curve_count(bounds: Bounds) -> ClaimResult:
    """Port-free alternating curve count equals the state count per assignment.

    The brute-force curves are the port-free edge subsets that pass
    ``is_curve``; only the submasks of the internal edges are built.
    """
    name = "curve-count"
    graphs = atlas_graphs(max_edges=_cap(bounds, 8), connected=True)
    checked = 0
    for g in graphs:
        states = enumerate_kekule_states(g)
        by_assignment: dict[int, int] = {}
        for w in states:
            k = port_assignment(g, w).mask
            by_assignment[k] = by_assignment.get(k, 0) + 1
        # once per graph: the port-free curves do not depend on W
        curves = [c for c in map(g.subset_from_mask, _port_free_masks(g))
                  if is_curve(g, c)]
        for w in states:
            n = by_assignment[port_assignment(g, w).mask]
            brute = sum(1 for c in curves if is_alternating(g, c, w))
            if brute != n:
                return _fail(name, f"{brute} brute curves vs {n} states at {w}", g)
            checked += 1
    return ClaimResult(name, True, f"{len(graphs)} graphs, {checked} states checked",
                       stats={"graphs": len(graphs), "states": checked})


def claim_flex_round_trip(bounds: Bounds) -> ClaimResult:
    """Flexible-edge subgraph realizes flex(K); handles rebuild the original cell."""
    name = "flex-round-trip"
    graphs = atlas_graphs(max_edges=_cap(bounds, 10))
    done = 0
    for g in graphs:
        cell = kekule_cell(g)
        if not cell.masks:
            continue
        fsub = flexible_subgraph(g)
        if kekule_cell(fsub) != flex(cell):
            return _fail(name, "flexible subgraph cell != flex(cell)", g)
        flexible = flexible_ports(cell)
        # a fixed port has the same bit in every member
        k = Assignment(g.ports, next(iter(cell.masks)))
        always = [p for p in g.ports if p not in flexible and p in k]
        never = [p for p in g.ports if p not in flexible and p not in k]
        rebuilt = attach_handles(fsub, always, never)
        if kekule_cell(rebuilt) != cell:
            return _fail(name, "handles did not invert flex", g)
        done += 1
    return ClaimResult(name, True, f"{done} graphs round-tripped through flex",
                       stats={"instances": done})


# claim_classification and claim_ycell_impossible scan the same two
# universes, each built once per process.  The connected 4-port graphs are
# kept as their cells: the graphs (about 5 MB at the default cap) would sit
# under every claim that runs after them, and a claim that fails rebuilds
# the one graph it reports.
@lru_cache(maxsize=1)
def _four_port_cells(max_edges: int) -> tuple[Cell, ...]:
    """The Kekulé cell of every connected 4-port graph with at most
    ``max_edges`` edges, in the order of ``connected_with_ports``."""
    return tuple(kekule_cell(g) for g in connected_with_ports(4, max_edges))


@lru_cache(maxsize=1)
def _two_port_products(max_edges: int) -> tuple[Cell, ...]:
    """Products of two nonempty connected 2-port Kekulé cells over the ports
    x1,x2 (first factor) and y1,y2 (second factor), each factor's graph
    with at most ``max_edges - 2`` edges."""
    factors = {kekule_cell(g).masks
               for g in connected_with_ports(2, max_edges - 2)}
    return tuple(Cell(("x1", "x2", "y1", "y2"),
                      frozenset(a | (b << 2) for a in m1s for b in m2s))
                 for m1s in factors if m1s for m2s in factors if m2s)


def claim_classification(bounds: Bounds) -> ClaimResult:
    """Soundness of the <=4-port classification and the diameter-4 orbit law."""
    name = "classification-small-cells"
    for k in range(6):
        if kekule_cell(diameter4_template(k)).masks != BASE_CELLS[k]:
            return _fail(name, f"template {k} does not realize its class",
                         diameter4_template(k))
    sound = 0
    for g in atlas_graphs(max_edges=_cap(bounds, 10)):
        if len(g.ports) > 4:
            continue
        cell = kekule_cell(g)
        if not cell.masks:
            continue
        res = classify_cell(flex(cell))
        if not res.is_kekule:
            return _fail(name, "graph-derived cell classified as non-Kekulé", g)
        sound += 1

    k_tags = {f"k{i}" for i in range(6)}
    orbit = 0
    # built before the 4-port cells, so the peaks do not add up
    products = _two_port_products(_cap(bounds, 10))
    # the cell of every connected 4-port graph with <= 10 edges (complete:
    # cores <= 6 edges)
    for i, cell in enumerate(_four_port_cells(_cap(bounds, 10))):
        if not cell.masks or diameter(cell) != 4:
            continue
        res4 = classify_cell(cell)
        if not res4.is_kekule or res4.tag not in k_tags:
            return _fail(name, "diameter-4 cell outside the K0..K5 orbit",
                         connected_with_ports(4, _cap(bounds, 10))[i])
        orbit += 1
    # disconnected graphs: only a 2+2 port split can reach diameter 4
    # (1-port Kekulé cells are singletons, 3-port ones have diameter <= 2,
    # and product diameters add), so products of 2-port cells settle the rest
    for product in products:
        if diameter(product) != 4:
            continue
        res4 = classify_cell(product)
        if not res4.is_kekule or res4.tag not in k_tags:
            return _fail(name, "disconnected product cell outside the orbit")
        orbit += 1
    return ClaimResult(
        name, True,
        f"{sound} cells classified sound, {orbit} diameter-4 cells in orbit",
        stats={"sound": sound, "orbit": orbit})


def claim_pendant_cores(bounds: Bounds) -> ClaimResult:
    """Pendant-form graphs: omniconjugated iff the core is complete (cores <= 5)."""
    name = "pendant-core-completeness"
    checked = 0
    for core in atlas_graphs():
        if len(core.nodes) > 5:
            continue
        pendant = Graph(tuple(core.edges)
                        + tuple((f"q{i}", v) for i, v in enumerate(core.nodes)))
        omni = is_omniconjugated(pendant).omniconjugated
        complete = pendant_core_is_complete(pendant)
        if omni != complete:
            return _fail(name, f"omni={omni} but complete-core={complete}", pendant)
        checked += 1
    return ClaimResult(name, True, f"{checked} pendant-form graphs",
                       stats={"instances": checked})


def _prefixed(g: Graph, prefix: str) -> Graph:
    return Graph((prefix + u, prefix + v) for u, v in g.edges)


def claim_omni_operations(bounds: Bounds) -> ClaimResult:
    """Adding internal edges, subdividing port edges, and gluing respect
    omniconjugation as stated."""
    name = "omni-operations"
    omni_family = [make_A(n) for n in range(2, 7)] + \
                  [make_delta(n) for n in range(2, 5)] + [make_B()]
    non_omni = [
        Graph([("p0", "u"), ("p2", "u"), ("u", "v"), ("v", "p1")]),
        diameter4_template(0),
        diameter4_template(1),
    ]
    ops = 0
    for g in omni_family:
        missing = [(u, v) for u, v in combinations(g.internal, 2) if (u, v) not in g]
        for u, v in missing[:3]:
            if not is_omniconjugated(add_internal_edge(g, u, v)).omniconjugated:
                return _fail(name, f"adding internal edge {u}-{v} broke omni", g)
            ops += 1
        for p in g.ports[:2]:
            if not is_omniconjugated(subdivide_port_edge(g, p)).omniconjugated:
                return _fail(name, f"subdividing at {p} broke omni", g)
            ops += 1
    glue_pool = [(h, True) for h in omni_family[:4]] + [(h, False) for h in non_omni]
    for (ga, oa) in glue_pool:
        for (gb, ob) in glue_pool:
            left = _prefixed(ga, "x.")
            right = _prefixed(gb, "y.")
            fused = glue_ports(left, left.ports[0], right, right.ports[0])
            if len(fused.ports) < 2:
                continue
            if is_omniconjugated(fused).omniconjugated != (oa and ob):
                return _fail(name, f"glue equivalence failed ({oa} x {ob})", fused)
            ops += 1
    return ClaimResult(name, True, f"{ops} operations checked",
                       stats={"operations": ops})


def claim_omni_paths(bounds: Bounds) -> ClaimResult:
    """Omniconjugated witnesses: every state has a path between any port pair."""
    name = "omni-paths"
    checked = 0
    for g in (make_delta(3), make_delta(4), make_B()):
        for w in enumerate_kekule_states(g):
            for p, q in combinations(g.ports, 2):
                path = alternating_path(g, w, p, q)
                if path is None:
                    return _fail(name, f"no path {p}..{q} at {w}", g)
                if not is_alternating(g, path, w):
                    return _fail(name, f"constructed path not alternating at {w}", g)
                checked += 1
    return ClaimResult(name, True, f"{checked} state/port-pair paths found",
                       stats={"paths": checked})


def claim_omni_families(bounds: Bounds) -> ClaimResult:
    """A_n, Delta_n, and B are omniconjugated; the ethene example is not."""
    name = "omni-families"
    for n in range(2, 9):
        if not is_omniconjugated(make_A(n)).omniconjugated:
            return _fail(name, f"A_{n} not omniconjugated", make_A(n))
    for n in range(2, 6):
        if not is_omniconjugated(make_delta(n)).omniconjugated:
            return _fail(name, f"Delta_{n} not omniconjugated", make_delta(n))
    if not is_omniconjugated(make_B()).omniconjugated:
        return _fail(name, "B not omniconjugated", make_B())
    eth = Graph([("p0", "u"), ("p2", "u"), ("u", "v"), ("v", "p1")])
    verdict = is_omniconjugated(eth)
    if verdict.omniconjugated or verdict.witness != Assignment.of(eth.ports, ("p0", "p2")):
        return _fail(name, f"ethene witness wrong: {verdict.witness}", eth)
    return ClaimResult(name, True, "A_2..A_8, Delta_2..Delta_5, B; ethene witness {p0,p2}")


def _matches_ycell(ports: tuple[str, ...], masks: frozenset[int]) -> str | None:
    """Shared port label if some translation of the cell is the Y-cell
    {0, A, A^T, A^B^T} with A={p,r}, B={q,r}, T={t,r}; else None.

    The cell's translates {k0 ^ m} (one per member k0) are built once, and
    each labelling (p, q, r, t) of the ports is a membership test among them.
    """
    pm = {p: 1 << i for i, p in enumerate(ports)}
    translates = {frozenset(k0 ^ m for m in masks) for k0 in masks}
    for p, q, r, t in permutations(ports):
        a = pm[p] | pm[r]
        b = pm[q] | pm[r]
        tt = pm[t] | pm[r]
        if frozenset((0, a, a ^ tt, a ^ b ^ tt)) in translates:
            return r
    return None


def claim_ycell_impossible(bounds: Bounds) -> ClaimResult:
    """No 4-port graph realizes the Y-cell with channels sharing one port."""
    name = "ycell-4port-impossibility"
    cells = _four_port_cells(_cap(bounds, 10))
    scanned = 0
    for i, cell in enumerate(cells):
        if len(cell.masks) != 4:
            continue
        shared = _matches_ycell(cell.ports, cell.masks)
        if shared is not None:
            return _fail(name, f"Y-cell realized with shared port {shared}",
                         connected_with_ports(4, _cap(bounds, 10))[i])
        scanned += 1
    # disconnected candidates must factor as a 2+2 port product; scan those too
    products = 0
    for product in _two_port_products(_cap(bounds, 10)):
        if len(product) != 4:
            continue
        if _matches_ycell(product.ports, product.masks) is not None:
            return _fail(name, "Y-cell realized by a disconnected product")
        products += 1
    return ClaimResult(
        name, True,
        f"{len(cells)} connected four-port graphs, {scanned} size-4 cells, "
        f"{products} product cells tested",
        stats={"graphs": len(cells), "cells": scanned, "products": products})


CLAIMS = [
    ("state-difference-curves", claim_state_difference_curves),
    ("openness-path-equivalence", claim_openness_equivalence),
    ("cell-translation", claim_cell_translation),
    ("channel-decomposition-law", claim_decomposition_law),
    ("merge-split-invariance", claim_merge_split),
    ("parity-law", claim_parity_law),
    ("kernel-span", claim_kernel_span),
    ("curve-count", claim_curve_count),
    ("omni-paths", claim_omni_paths),
    ("flex-round-trip", claim_flex_round_trip),
    ("classification-small-cells", claim_classification),
    ("pendant-core-completeness", claim_pendant_cores),
    ("omni-operations", claim_omni_operations),
    ("omni-families", claim_omni_families),
    ("ycell-4port-impossibility", claim_ycell_impossible),
]


def run_claims(bounds: Bounds, names: list[str] | None = None) -> list[ClaimResult]:
    known = [name for name, _ in CLAIMS]
    for name in names or ():
        if name not in known:
            raise KekulecError(f"unknown claim '{name}'; available: {', '.join(known)}")
    return [fn(bounds) for name, fn in CLAIMS if not names or name in names]
