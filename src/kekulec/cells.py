"""Cells over a port set: the XOR group of port assignments, Hamming metric,
translation, flexibility, channel openness, and channel decomposition.

A port assignment is a subset of a fixed, lexicographically ordered port set,
stored as a bit vector; a cell is a set of assignments over one port set.
Member order is :meth:`Assignment.sort_key` order, (cardinality, labels);
as the port tuple is sorted, that is fewer bits first, then lower port
indices, a function of the mask alone.  :func:`ordered_masks` generates masks
in that order; :meth:`Cell.members` sorts a mask set into it with two stable
sorts, on the bits read from port 0 up and then on the bit count.
:meth:`Assignment.labels` walks the set bits, lowest first, so it costs one
step per member port, not one per port.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from . import gf2
from .errors import CellError


@dataclass(frozen=True)
class Assignment:
    """Subset of a port set, as a bit vector over the sorted port tuple."""

    ports: tuple[str, ...]
    mask: int

    @staticmethod
    def of(ports: tuple[str, ...], labels: Iterable[str] = ()) -> "Assignment":
        mask = 0
        for x in labels:
            try:
                i = ports.index(x)
            except ValueError:
                raise CellError(f"label '{x}' is not a port of this cell") from None
            mask |= 1 << i
        return Assignment(ports, mask)

    def labels(self) -> tuple[str, ...]:
        ports = self.ports
        labels = []
        rest = self.mask
        while rest:
            low = rest & -rest
            rest ^= low
            labels.append(ports[low.bit_length() - 1])
        return tuple(labels)

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return (self.mask.bit_count(), self.labels())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, label: str) -> bool:
        try:
            i = self.ports.index(label)
        except ValueError:
            return False
        return bool(self.mask >> i & 1)

    def __xor__(self, other: "Assignment") -> "Assignment":
        if self.ports != other.ports:
            raise CellError("assignments belong to different port sets")
        return Assignment(self.ports, self.mask ^ other.mask)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


def hamming(k: Assignment, k2: Assignment) -> int:
    """Number of ports on which the two assignments differ."""
    return len(k ^ k2)


def channel(ports: tuple[str, ...], p: str, q: str) -> Assignment:
    """The two-port assignment {p, q}."""
    if p == q:
        raise CellError("channel ports must differ")
    return Assignment.of(ports, (p, q))


@dataclass(frozen=True)
class Cell:
    """A set of port assignments over one port set."""

    ports: tuple[str, ...]
    masks: frozenset[int]

    @staticmethod
    def of(ports: tuple[str, ...], members: Iterable[Iterable[str]]) -> "Cell":
        return Cell(ports, frozenset(Assignment.of(ports, m).mask for m in members))

    def members(self) -> tuple[Assignment, ...]:
        """Members in member order, sorted on the masks alone."""
        # descending on the bits read from port 0 up, which puts first the
        # mask that holds the first port where two masks differ (no two masks
        # read alike); then a stable sort on the bit count keeps that order
        # within each count
        masks = sorted(self.masks, key=lambda m: bin(m)[:1:-1], reverse=True)
        masks.sort(key=int.bit_count)
        return tuple(Assignment(self.ports, m) for m in masks)

    def assignment(self, labels: Iterable[str] = ()) -> Assignment:
        return Assignment.of(self.ports, labels)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self.members())

    def __contains__(self, k: Assignment) -> bool:
        return k.ports == self.ports and k.mask in self.masks

    def format_lines(self) -> list[str]:
        """Golden text format: one member per line, sorted port labels in
        braces, members ordered by (cardinality, lexicographic)."""
        return [str(k) for k in self.members()]


def ordered_masks(n: int, parity: int | None = None) -> Iterator[int]:
    """Masks over ``n`` ports in member order, lazily; only the masks of
    one cardinality parity when ``parity`` is given."""
    for k in range(parity or 0, n + 1, 1 if parity is None else 2):
        yield from layer_masks(n, k)


def layer_masks(n: int, k: int) -> Iterator[int]:
    """The masks with ``k`` of ``n`` ports, the layer of :func:`ordered_masks`
    that holds them, in member order."""
    return map(sum, combinations([1 << i for i in range(n)], k))


def closure(start: int, moves: Sequence[int],
            accept: Callable[[int], bool]) -> frozenset[int]:
    """Masks reachable from ``start`` by toggling ``moves`` through accepted
    masks, breadth-first.  Each candidate goes to ``accept(candidate)`` once,
    ``start`` never."""
    seen = {start}
    reached = [start]
    for mask in reached:  # grows while it is walked: breadth-first
        for move in moves:
            other = mask ^ move
            if other not in seen:
                seen.add(other)
                if accept(other):
                    reached.append(other)
    return frozenset(reached)


def parity_space(ports: tuple[str, ...], parity: int) -> Cell:
    """All subsets of the port set whose cardinality has the given parity."""
    return Cell(ports, frozenset(ordered_masks(len(ports), parity)))


def diameter(cell: Cell) -> int:
    """Maximum Hamming distance between two members."""
    if not cell.masks:
        raise CellError("empty cell has no diameter")
    ms = sorted(cell.masks)
    return max((a ^ b).bit_count() for i, a in enumerate(ms) for b in ms[i:])


def translate(g: Assignment, cell: Cell) -> Cell:
    """Pointwise XOR of ``g`` into every member."""
    if g.ports != cell.ports:
        raise CellError("assignment and cell have different port sets")
    return Cell(cell.ports, frozenset(g.mask ^ m for m in cell.masks))


def is_open(cell: Cell, k: Assignment, c: Assignment) -> bool:
    """A channel is open at a state iff toggling it stays inside the cell."""
    if k not in cell:
        raise CellError(f"state {k} not in cell")
    if len(c) != 2:
        raise CellError(f"channel must contain exactly two ports, got {c}")
    return (k ^ c) in cell


def flexible_ports(cell: Cell) -> tuple[str, ...]:
    """Ports whose membership varies across the cell."""
    if not cell.masks:
        return ()
    union = 0
    inter = (1 << len(cell.ports)) - 1
    for m in cell.masks:
        union |= m
        inter &= m
    varying = union & ~inter
    return tuple(p for i, p in enumerate(cell.ports) if varying >> i & 1)


def is_flexible(cell: Cell) -> bool:
    return flexible_ports(cell) == cell.ports


def flex(cell: Cell) -> Cell:
    """Restriction of the cell to its flexible ports; bijective on members."""
    if not cell.masks:
        raise CellError("empty cell cannot be restricted")
    keep = flexible_ports(cell)
    positions = [cell.ports.index(p) for p in keep]
    projected = frozenset(
        sum(((m >> pos) & 1) << j for j, pos in enumerate(positions))
        for m in cell.masks)
    assert len(projected) == len(cell.masks), "flex projection must be bijective"
    return Cell(keep, projected)


def _pairings(items: list[int]) -> Iterator[list[tuple[int, int]]]:
    """Perfect pairings of an even-length list, first element paired in order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for sub in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def channel_decomposition(cell: Cell, g: Assignment, g2: Assignment) -> list[Assignment]:
    """Disjoint channels whose partial sums connect ``g`` to ``g2`` inside the cell.

    Searches every perfect pairing of the differing ports; a successful
    decomposition D satisfies ``g2 = g ^ xor(D)`` with every partial sum a
    member.  Failure certifies that the cell is not a Kekulé cell.
    """
    if g not in cell or g2 not in cell:
        raise CellError("both endpoints must be members of the cell")
    diff = g ^ g2
    bits = [i for i in range(len(cell.ports)) if diff.mask >> i & 1]
    if len(bits) % 2:
        raise CellError(
            f"odd Hamming distance between {g} and {g2}: not a Kekulé cell")
    for pairing in _pairings(bits):
        masks = [(1 << a) | (1 << b) for a, b in pairing]
        if all(g.mask ^ s in cell.masks for s in gf2.span(masks)):
            return list(Cell(cell.ports, frozenset(masks)).members())
    raise CellError(
        f"no disjoint channel decomposition from {g} to {g2}: not a Kekulé cell")
