"""Semi-Kekulé theory over GF(2): parity systems, one-solution solving, the
homogeneous kernel spanned by cycles, and full span enumeration.

A semi-Kekulé state gives every internal node odd degree; the states with a
fixed port assignment form an affine space W0 xor HSK(G), where HSK(G) is
spanned by a fundamental cycle basis of dimension #edges + 1 - #nodes.
"""

from __future__ import annotations

from . import gf2
from .cells import Assignment
from .errors import KekulecError
from .graph import (EdgeSubset, Graph, _require_same_graph, cycle_basis, cycle_rank,
                    is_connected, signature)
from .kekule import _require_graph_assignment, is_kekule_state


def is_semi_kekule(g: Graph, w: EdgeSubset) -> bool:
    """True iff every internal node has odd degree in ``w``."""
    _require_same_graph(g, w)
    return all((w.mask & g.incidence_mask(v)).bit_count() % 2 == 1
               for v in g.internal)


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise KekulecError("connected graph required")


def solve_semi_kekule(g: Graph, a: Assignment) -> EdgeSubset | None:
    """One semi-Kekulé state with port assignment ``a``, or None.

    None occurs exactly when the assignment's parity disagrees with the
    graph signature; otherwise the port edges are forced by ``a`` and the
    internal parity system is solved by elimination, free variables 0.
    """
    _require_connected(g)
    _require_graph_assignment(g, a)
    if len(a) % 2 != signature(g):
        return None
    want = set(a.labels())
    rows = [g.incidence_mask(v) for v in g.internal]
    rhs = [1] * len(rows)
    for p in g.ports:
        rows.append(g.incidence_mask(p))
        rhs.append(1 if p in want else 0)
    mask = gf2.solve_affine(rows, rhs, len(g.edges))
    assert mask is not None, "parity-correct assignment must be solvable on a connected graph"
    return EdgeSubset(g, mask)


def hsk_basis(g: Graph) -> list[EdgeSubset]:
    """Cycle basis of the homogeneous kernel (all node degrees even).

    Verifies the claimed dimension #edges + 1 - #nodes, the all-even degree
    property of each element, and linear independence.
    """
    cycles = cycle_basis(g)
    r = cycle_rank(g)
    assert len(cycles) == r, "fundamental cycle count must equal the cycle rank"
    for c in cycles:
        assert all(c.degree_in(n) % 2 == 0 for n in c.nodes()), \
            "basis element has an odd node"
    assert gf2.independent([c.mask for c in cycles])
    return cycles


def _span(g: Graph, a: Assignment) -> list[EdgeSubset]:
    """The affine space W0 xor HSK(G) for ``a``, sorted by mask; empty when
    the parity is wrong."""
    w0 = solve_semi_kekule(g, a)
    if w0 is None:
        return []
    basis = [c.mask for c in hsk_basis(g)]
    return [EdgeSubset(g, m) for m in sorted(w0.mask ^ s for s in gf2.span(basis))]


def enumerate_semi_kekule(g: Graph, a: Assignment) -> list[EdgeSubset]:
    """All semi-Kekulé states with port assignment ``a``; exactly 2^r of them.

    Raises when the parity is wrong, since then no state exists at all.
    """
    states = _span(g, a)
    if not states:
        raise KekulecError("no semi-Kekulé state for this parity")
    return states


def kekule_states_via_span(g: Graph, a: Assignment) -> list[EdgeSubset]:
    """Kekulé states for an assignment via the semi-Kekulé span, filtered.

    Cross-check route for the backtracking enumerator: keep the span states
    where every internal degree is exactly one.
    """
    return [w for w in _span(g, a) if is_kekule_state(g, w)]
