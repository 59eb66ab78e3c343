"""Omniconjugation: graphs whose Kekulé cell fills the whole parity class,
plus the constructive families A_n, Delta_n, and the basic model B.

:func:`is_omniconjugated` is the cell search's own question stopped at its
first answer: the first mask of the parity class, in member order, that the
compiled probe finds missing (``kekule._Membership.missing``), with no state
enumerated.  The probe runs on the core folded by the merge law, so the
chain of A_n folds to at most two nodes, and it settles whole cardinality
layers by a degree cut where it can, so on Delta_n (n >= 3) no assignment is
probed (see :mod:`kekulec.kekule`).
:func:`realized_assignment_count` is the size of the Kekulé cell, read off
the one bitset that :func:`~kekulec.kekule.kekule_cell` decodes
(``kekule._realized``).  Both take the probe from ``kekule._compiled``,
which shares the last compile with the next call on the same object, so a
verdict then a count on one graph, as ``kekulec omni`` makes them, compiles
it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cells import Assignment
from .errors import KekulecError
from .graph import Graph
from .kekule import _compiled, _realized
from .transform import add_internal_edge

_PORT_CAP = 20


@dataclass(frozen=True)
class OmniVerdict:
    """Decision result; carries the first missing assignment when negative."""

    omniconjugated: bool
    witness: Assignment | None


def is_omniconjugated(g: Graph) -> OmniVerdict:
    """True iff every parity-correct port assignment has a Kekulé state.

    One compiled scan of the parity class's open layers finds the first
    missing assignment without enumerating states; it is the witness, first
    in member order (:func:`~kekulec.cells.ordered_masks`).
    """
    if len(g.ports) < 2:
        raise KekulecError("omniconjugation requires at least two ports")
    if len(g.ports) > _PORT_CAP:
        raise KekulecError(f"omniconjugation check capped at {_PORT_CAP} ports")
    mask = next(_compiled(g).missing(), None)
    if mask is None:
        return OmniVerdict(True, None)
    return OmniVerdict(False, Assignment(g.ports, mask))


def realized_assignment_count(g: Graph) -> int:
    """Number of port assignments with at least one Kekulé state: the size
    of the Kekulé cell, by the route of :func:`~kekulec.kekule.kekule_cell`.
    The port cap holds its fallback scan to 2^19 probes."""
    if len(g.ports) > _PORT_CAP:
        raise KekulecError(f"assignment count capped at {_PORT_CAP} ports")
    return _realized(g, True).bit_count()


def make_A(n: int) -> Graph:
    """The linear graph on n consecutive nodes; omniconjugated for n >= 2."""
    if n < 2:
        raise KekulecError("A_n requires n >= 2")
    return Graph((f"a{i}", f"a{i + 1}") for i in range(1, n))


def make_delta(n: int) -> Graph:
    """Complete core on n nodes with one pendant port each: 2n nodes,
    n(n-1)/2 + n edges; omniconjugated for n >= 2."""
    if n < 2:
        raise KekulecError("Delta_n requires n >= 2")
    edges = [(f"u{i}", f"u{j}") for i, j in combinations(range(1, n + 1), 2)]
    edges += [(f"p{i}", f"u{i}") for i in range(1, n + 1)]
    return Graph(edges)


def make_B() -> Graph:
    """The basic model B: A_6 plus two extra internal edges."""
    return add_internal_edge(add_internal_edge(make_A(6), "a2", "a4"), "a3", "a5")


def pendant_core_is_complete(g: Graph) -> bool:
    """For a pendant-form graph, whether the internal core is complete.

    Pendant form: every internal node carries exactly one pendant port and
    every port hangs off an internal node.  Omniconjugated pendant-form
    graphs always have a complete core.
    """
    internal = set(g.internal)
    if not internal:
        raise KekulecError("graph is not in pendant form")
    for p in g.ports:
        (nb, _), = g.neighbors(p)
        if nb not in internal:
            raise KekulecError("graph is not in pendant form")
    for v in g.internal:
        pendants = sum(1 for nb, _ in g.neighbors(v) if g.degree[nb] == 1)
        if pendants != 1:
            raise KekulecError("graph is not in pendant form")
    return all((u, v) in g for u, v in combinations(sorted(internal), 2))
