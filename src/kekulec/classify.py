"""Classification of flexible Kekulé cells with at most four ports.

A flexible diameter-2 cell of one port-count parity, translated by a
member, holds 0 and two-port masks that pairwise share exactly one port.
They form a star through one port c, which flexibility makes reach every
other port, so the translate by {c} is the one-double-bond star cell K1; or
a triangle, which flexibility holds to exactly three ports: the Even class.
So every such cell is Kekulé.  Diameter-4 cells on four ports fall into six
classes up to port permutation and translation, each realized by a two-path
template with cross edges.  Every positive answer ships a realizing template
graph and is re-verified against it.

A diameter-4 cell is matched by one lookup per member translate in
``_ORBIT``, a table built at import of every port permutation of the six
base classes (37 cells), each keyed to the first permutation and class that
maps it onto its base.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .cells import Assignment, Cell, diameter, is_flexible, ordered_masks
from .errors import CellError, KekulecError
from .graph import Graph
from .kekule import kekule_cell
from .transform import fresh_label, translate_graph

# Masks over port positions a=0, b=1, c=2, d=3.
_K0 = frozenset({0b0000, 0b0011, 0b1100, 0b1111})
BASE_CELLS: tuple[frozenset[int], ...] = (
    _K0,
    _K0 | {0b0101},
    _K0 | {0b0101, 0b1010},
    _K0 | {0b0101, 0b0110},
    _K0 | {0b0101, 0b1010, 0b0110},
    _K0 | {0b0101, 0b1010, 0b0110, 0b1001},
)

_CROSS = {  # extra core edges of the six templates, as (left, right) indices
    0: (),
    1: ((2, 2),),
    2: ((2, 2), (1, 1)),
    3: ((2, 2), (1, 2)),
    4: ((2, 2), (1, 2), (1, 1)),
    5: ((2, 2), (1, 2), (1, 1), (2, 1)),
}


@dataclass(frozen=True)
class Classification:
    """Outcome of the small-cell classification.

    When ``is_kekule``, the input cell equals ``translation ^ <base class>``
    up to port permutation, and ``template`` is a graph whose Kekulé cell is
    exactly the input.
    """

    is_kekule: bool
    tag: str | None
    translation: Assignment | None
    template: Graph | None


_NOT_KEKULE = Classification(False, None, None, None)


def _pick_labels(bases: list[str], used: set[str]) -> list[str]:
    out = []
    for b in bases:
        lbl = b if b not in used else fresh_label(b, used)
        used.add(lbl)
        out.append(lbl)
    return out


def star_graph(ports: tuple[str, ...]) -> Graph:
    """One internal hub joined to every port; realizes the singleton cell K1."""
    if len(ports) < 2:
        raise KekulecError("star template needs at least two ports")
    (hub,) = _pick_labels(["u"], set(ports))
    return Graph((hub, p) for p in ports)


def four_cycle_graph() -> Graph:
    """Portless square; its only cell member is the empty assignment."""
    return Graph([("z1", "z2"), ("z2", "z3"), ("z3", "z4"), ("z1", "z4")])


def odd_class_graph(ports: tuple[str, str, str]) -> Graph:
    """Triangle core with one pendant per port; realizes Odd(P) on 3 ports."""
    used = set(ports)
    core = _pick_labels(["u1", "u2", "u3"], used)
    edges = [(core[0], core[1]), (core[0], core[2]), (core[1], core[2])]
    edges += [(p, c) for p, c in zip(ports, core)]
    return Graph(edges)


def diameter4_template(k: int, ports: tuple[str, str, str, str] = ("a", "b", "c", "d")) -> Graph:
    """Template number k of the diameter-4 classification.

    Two pendant paths port0-l1-l2-port1 and port2-r1-r2-port3 plus the
    class's cross edges between the path interiors.
    """
    if k not in _CROSS:
        raise KekulecError("template index must be 0..5")
    pa, pb, pc, pd = ports
    used = set(ports)
    l1, l2, r1, r2 = _pick_labels(["l1", "l2", "r1", "r2"], used)
    left = {1: l1, 2: l2}
    right = {1: r1, 2: r2}
    edges = [(pa, l1), (l1, l2), (l2, pb), (pc, r1), (r1, r2), (r2, pd)]
    edges += [(left[i], right[j]) for i, j in _CROSS[k]]
    return Graph(edges)


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def _orbit_table() -> dict[frozenset[int], tuple[tuple[int, ...], int]]:
    """Each cell that ``perm`` maps onto ``BASE_CELLS[i]``, keyed to the
    first such ``(perm, i)`` with permutations outer and classes inner."""
    table: dict[frozenset[int], tuple[tuple[int, ...], int]] = {}
    for perm in permutations(range(4)):
        inv = tuple(perm.index(j) for j in range(4))
        for i, base in enumerate(BASE_CELLS):
            table.setdefault(frozenset(_permute_mask(m, inv) for m in base), (perm, i))
    return table


_ORBIT = _orbit_table()


def classify_cell(cell: Cell) -> Classification:
    """Decide whether a flexible cell with at most 4 ports is a Kekulé cell.

    The caller restricts to flexible ports first (see ``flex``).  Positive
    results are double-checked by recomputing the template's Kekulé cell.
    """
    ports = cell.ports
    if len(ports) > 4:
        raise KekulecError("classification undefined beyond 4 ports")
    if not cell.masks:
        raise CellError("empty cell cannot be classified")
    if not is_flexible(cell):
        raise KekulecError("classification requires a flexible cell; apply flex first")

    # members at odd distance differ in port-count parity
    if len({m.bit_count() & 1 for m in cell.masks}) > 1:
        return _NOT_KEKULE

    d = diameter(cell)
    if d == 0:
        # a flexible singleton only exists over the empty port set
        result = Classification(True, "trivial", Assignment(ports, 0), four_cycle_graph())
    elif d == 2:
        result = _classify_diameter2(cell)
    else:
        result = _classify_diameter4(cell)
    if result.is_kekule:
        assert kekule_cell(result.template) == cell, \
            "classification template must realize the input cell"
    return result


def _classify_diameter2(cell: Cell) -> Classification:
    ports = cell.ports
    if len(ports) == 3 and len(cell) == 4:
        k0 = cell.members()[0].mask
        template = translate_graph(odd_class_graph(ports), Assignment(ports, k0 ^ 0b111))
        return Classification(True, "even3-translate", Assignment(ports, k0), template)
    k1 = frozenset(1 << i for i in range(len(ports)))
    gm = next(gm for gm in ordered_masks(len(ports))
              if {gm ^ m for m in cell.masks} == k1)
    template = translate_graph(star_graph(ports), Assignment(ports, gm))
    return Classification(True, "k1-star", Assignment(ports, gm), template)


def _classify_diameter4(cell: Cell) -> Classification:
    ports = cell.ports
    assert len(ports) == 4, "diameter 4 needs four ports"
    # every base class contains 0, so only a member can translate onto one
    for gm in ordered_masks(4):
        if gm not in cell.masks:
            continue
        hit = _ORBIT.get(frozenset(gm ^ m for m in cell.masks))
        if hit is not None:
            perm, i = hit
            inv = tuple(perm.index(j) for j in range(4))
            plabels = tuple(ports[inv[j]] for j in range(4))
            template = translate_graph(diameter4_template(i, plabels),
                                       Assignment(ports, gm))
            return Classification(True, f"k{i}", Assignment(ports, gm), template)
    return _NOT_KEKULE
