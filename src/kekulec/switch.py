"""Functional cells: a cell with named channels, sockets, and a current
state driven by soliton signals.

Signalling an open channel toggles the state; a closed channel refuses and
leaves the state alone (physically: no conduction, not a fault).  A socket
pairs two channels sharing one port and fires whichever is open, erroring
when the exactly-one-open invariant breaks at the current state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import gf2
from .cells import Assignment, Cell, closure, is_open
from .errors import KekulecError, SwitchError
from .graph import Graph
from .kekule import kekule_cell


@dataclass(frozen=True)
class TraceStep:
    """One signalling event; ``fired`` is False for a refused (closed) channel."""

    channel: str
    before: Assignment
    after: Assignment
    fired: bool


class FunctionalCell:
    """Single-owner mutable switching state over an immutable cell."""

    def __init__(self, cell: Cell, initial: Assignment,
                 channels: dict[str, Assignment] | None = None,
                 sockets: dict[str, tuple[str, str]] | None = None):
        channels = dict(channels or {})
        sockets = dict(sockets or {})
        if initial not in cell:
            raise SwitchError(f"initial state {initial} not in cell")
        for name, c in channels.items():
            if c.ports != cell.ports:
                raise SwitchError(f"channel '{name}' uses a different port set")
            if len(c) != 2:
                raise SwitchError(f"channel '{name}' must contain exactly two ports")
        if not gf2.independent([c.mask for _, c in sorted(channels.items())]):
            raise SwitchError("channels must be linearly independent")
        for name, (c1, c2) in sockets.items():
            for cname in (c1, c2):
                if cname not in channels:
                    raise SwitchError(f"socket '{name}' references unknown channel '{cname}'")
            if c1 == c2:
                raise SwitchError(f"socket '{name}' must pair two distinct channels")
            shared = channels[c1].mask & channels[c2].mask
            if shared.bit_count() != 1:
                raise SwitchError(f"socket '{name}' channels must share exactly one port")
        self.cell = cell
        self.initial = initial
        self.channels = channels
        self.sockets = sockets
        self.current = initial
        self.trace: list[TraceStep] = []

    @classmethod
    def from_graph(cls, graph: Graph, channels: dict[str, tuple[str, str]],
                   sockets: dict[str, tuple[str, str]],
                   initial: tuple[str, ...] | None) -> "FunctionalCell":
        """Functional cell over a graph's Kekulé cell, with channels named by
        port pairs; the initial state defaults to the first member."""
        cell = kekule_cell(graph)
        if not cell.masks:
            raise KekulecError("graph has no Kekulé state")
        named = {n: cell.assignment(pair) for n, pair in channels.items()}
        start = cell.members()[0] if initial is None else cell.assignment(initial)
        return cls(cell, start, named, sockets)

    # -- signalling -------------------------------------------------------

    def _channel(self, name: str) -> Assignment:
        if name not in self.channels:
            raise SwitchError(f"unknown channel '{name}'")
        return self.channels[name]

    def is_open(self, name: str) -> bool:
        return is_open(self.cell, self.current, self._channel(name))

    def open_channels(self) -> dict[str, bool]:
        """Openness of every declared channel at the current state."""
        return {name: self.is_open(name) for name in sorted(self.channels)}

    def signal(self, name: str) -> TraceStep:
        """Send a soliton over a channel; toggles the state iff it is open."""
        c = self._channel(name)
        before = self.current
        if is_open(self.cell, before, c):
            self.current = before ^ c
            step = TraceStep(name, before, self.current, True)
        else:
            step = TraceStep(name, before, before, False)
        self.trace.append(step)
        return step

    def signal_socket(self, name: str) -> tuple[str, TraceStep]:
        """Fire the open half of a socket; errors unless exactly one is open."""
        if name not in self.sockets:
            raise SwitchError(f"unknown socket '{name}'")
        c1, c2 = self.sockets[name]
        open1, open2 = self.is_open(c1), self.is_open(c2)
        if open1 == open2:
            state = "both open" if open1 else "both closed"
            raise SwitchError(
                f"socket invariant violated for '{name}' at {self.current}: {state}")
        fired = c1 if open1 else c2
        return fired, self.signal(fired)

    def reset(self) -> None:
        self.current = self.initial

    # -- analysis ----------------------------------------------------------

    def reachable_states(self) -> tuple[Assignment, ...]:
        """Closure of the initial state under declared-channel toggles."""
        chans = [c.mask for _, c in sorted(self.channels.items())]
        reached = closure(self.initial.mask, chans, self.cell.masks.__contains__)
        return Cell(self.cell.ports, reached).members()

    def snapshot(self) -> "FunctionalCell":
        """Fresh cell at the initial state with the same wiring."""
        return FunctionalCell(self.cell, self.initial, self.channels, self.sockets)


@dataclass(frozen=True)
class GateReport:
    """Truth-table verification outcome; one row per input combination."""

    inputs: tuple[str, ...]
    output: str
    rows: tuple[tuple[tuple[int, ...], bool, bool], ...]  # (combo, expected, actual)
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_gate(fc: FunctionalCell, inputs: tuple[str, ...], output: str,
                table: dict[tuple[int, ...], bool]) -> GateReport:
    """Check a boolean gate: signal each chosen input once, then probe the output.

    For every input combination the run starts from the initial state; a
    refused input counts as a violation, as does any openness mismatch with
    the table.
    """
    for name in (*inputs, output):
        if name not in fc.channels:
            raise SwitchError(f"unknown channel '{name}'")
    rows = []
    violations = []
    for combo in product((0, 1), repeat=len(inputs)):
        if combo not in table:
            raise SwitchError(f"truth table missing entry for {combo}")
        run = fc.snapshot()
        refused = False
        for name, bit in zip(inputs, combo):
            if bit and not run.signal(name).fired:
                violations.append(
                    f"input '{name}' refused at {run.current} for combo {combo}")
                refused = True
        actual = run.is_open(output)
        expected = table[combo]
        rows.append((combo, expected, actual))
        if not refused and actual != expected:
            violations.append(
                f"output '{output}' is {'open' if actual else 'closed'} "
                f"for combo {combo}, expected {'open' if expected else 'closed'}")
    return GateReport(tuple(inputs), output, tuple(rows), tuple(violations))
