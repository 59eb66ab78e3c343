"""Built-in graphs and switching cells from the worked examples.

Each builtin validates its own published counts at construction time, so a
mis-transcribed adjacency cannot ship silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .cells import parity_space
from .classify import diameter4_template, BASE_CELLS
from .errors import KekulecError
from .graph import Graph, signature, to_document
from .kekule import enumerate_kekule_states, is_perfect_matching, kekule_cell
from .omni import make_A, make_B, make_delta
from .switch import FunctionalCell


@dataclass(frozen=True)
class Builtin:
    """A named graph plus optional switching configuration."""

    name: str
    graph: Graph
    channels: dict[str, tuple[str, str]] = field(default_factory=dict)
    sockets: dict[str, tuple[str, str]] = field(default_factory=dict)
    initial: tuple[str, ...] | None = None

    def document(self) -> dict:
        return to_document(self.graph, self.channels, self.sockets, self.initial)

    def functional_cell(self) -> FunctionalCell:
        """Fresh functional cell; the initial state defaults to the first member."""
        return FunctionalCell.from_graph(self.graph, self.channels, self.sockets,
                                         self.initial)


def _ethene3() -> Builtin:
    g = Graph([("p0", "u"), ("p2", "u"), ("u", "v"), ("v", "p1")])
    b = Builtin("ethene3", g,
                channels={"A": ("p0", "p1"), "T": ("p0", "p2")},
                initial=())
    assert len(kekule_cell(g)) == 3
    return b


def _house5() -> Builtin:
    g = Graph([("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n2", "n5"), ("n3", "n5")])
    states = enumerate_kekule_states(g)
    assert len(states) == 2
    assert not any(is_perfect_matching(g, w) for w in states)
    return Builtin("house5", g)


def _phenantrene() -> Builtin:
    g = Graph([
        ("c01", "c02"), ("c02", "c03"), ("c03", "c04"), ("c04", "c05"),
        ("c05", "c14"), ("c14", "c01"),
        ("c06", "c07"), ("c07", "c08"), ("c08", "c09"), ("c09", "c10"),
        ("c10", "c11"), ("c11", "c06"),
        ("c05", "c06"), ("c11", "c12"), ("c12", "c13"), ("c13", "c14"),
    ])
    assert len(g.nodes) == 14 and len(g.edges) == 16
    assert len(enumerate_kekule_states(g)) == 5
    return Builtin("phenantrene", g, initial=())


def _conjunction4() -> Builtin:
    g = diameter4_template(1)
    cell = kekule_cell(g)
    assert cell.masks == BASE_CELLS[1]
    return Builtin("conjunction4", g,
                   channels={"A": ("a", "b"), "B": ("c", "d"), "T": ("b", "d")},
                   initial=())


def _ycell_tree() -> Builtin:
    g = Graph([("pa", "u1"), ("pab", "u2"), ("pb", "u3"),
               ("u1", "u2"), ("u2", "u3"), ("u3", "pt1"), ("u1", "pt2")])
    cell = kekule_cell(g)
    assert len(cell) == 8
    assert len(parity_space(g.ports, signature(g))) == 16
    return Builtin("ycell-tree", g,
                   channels={"A": ("pa", "pab"), "B": ("pb", "pab"),
                             "T": ("pt1", "pt2")},
                   sockets={"AB": ("A", "B")},
                   initial=("pa", "pab", "pt1"))


def _ycell_pyracylene() -> Builtin:
    # naphthalene core n01..n10, a pentagon fused on top (u1,u2) and one on
    # the bottom (v1,v2), five pendant ports
    g = Graph([
        ("n01", "n02"), ("n02", "n03"), ("n03", "n08"), ("n08", "n09"),
        ("n09", "n10"), ("n10", "n01"),
        ("n03", "n04"), ("n04", "n05"), ("n05", "n06"), ("n06", "n07"),
        ("n07", "n08"),
        ("n02", "u1"), ("u1", "u2"), ("u2", "n04"),
        ("n09", "v1"), ("v1", "v2"), ("v2", "n07"),
        ("pab", "n01"), ("pb", "u1"), ("pt", "n05"), ("pt1", "n06"),
        ("pa1", "v1"),
    ])
    assert len(g.nodes) == 19 and len(g.edges) == 22
    assert len(kekule_cell(g)) == 12
    return Builtin("ycell-pyracylene", g,
                   channels={"A": ("pab", "pa1"), "B": ("pab", "pb"),
                             "T": ("pt", "pt1")},
                   sockets={"AB": ("A", "B")},
                   initial=("pa1", "pt1"))


def _splitter_indene() -> Builtin:
    # pentagon m,h1,h2,h3,h4 fused with hexagon h2,x1,x2,x3,x4,h3; six ports
    g = Graph([
        ("m", "h1"), ("h1", "h2"), ("h2", "h3"), ("h3", "h4"), ("h4", "m"),
        ("h2", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "h3"),
        ("pab", "h1"), ("pb", "x1"), ("pa", "x4"), ("pst", "h4"),
        ("pt", "x2"), ("ps", "x3"),
    ])
    assert len(g.internal) == 9
    assert len(kekule_cell(g)) == 18
    assert len(parity_space(g.ports, signature(g))) == 32
    return Builtin("splitter-indene", g,
                   channels={"A": ("pa", "pab"), "B": ("pb", "pab"),
                             "S": ("ps", "pst"), "T": ("pt", "pst")},
                   sockets={"AB": ("A", "B"), "ST": ("S", "T")},
                   initial=("pa", "pab", "ps"))


def _diameter4(k: int) -> Builtin:
    g = diameter4_template(k)
    assert kekule_cell(g).masks == BASE_CELLS[k]
    return Builtin(f"lemma2-k{k}", g)


def _model_b() -> Builtin:
    g = make_B()
    assert len(g.nodes) == 6 and len(g.edges) == 7
    return Builtin("b", g)


_FIXED = {
    "ethene3": _ethene3,
    "house5": _house5,
    "phenantrene": _phenantrene,
    "conjunction4": _conjunction4,
    "ycell-tree": _ycell_tree,
    "ycell-pyracylene": _ycell_pyracylene,
    "splitter-indene": _splitter_indene,
    "b": _model_b,
    **{f"lemma2-k{k}": (lambda k=k: _diameter4(k)) for k in range(6)},
}


def builtin_names() -> list[str]:
    """All builtin names; a<n> and delta<n> are parametric (n >= 2)."""
    return sorted(_FIXED) + ["a<n>", "delta<n>"]


# a<n> and delta<n> with more edges than this are refused
PARAMETRIC_EDGE_CAP = 10_000


def _parametric_n(family: str, digits: str, edges: Callable[[int], int]) -> int:
    """n of ``a<n>`` or ``delta<n>``, whose graph has ``edges(n)`` edges."""
    digits = digits.lstrip("0") or "0"
    # edges(n) >= n - 1, so a number with more digits than the cap is over it
    if (len(digits) > len(str(PARAMETRIC_EDGE_CAP))
            or edges(int(digits)) > PARAMETRIC_EDGE_CAP):
        raise KekulecError(f"builtin {family}<n> is limited to {PARAMETRIC_EDGE_CAP} edges")
    return int(digits)


def builtin(name: str) -> Builtin:
    """Look up a builtin by name, e.g. 'ethene3', 'a4', 'delta3', 'lemma2-k5'."""
    if name in _FIXED:
        return _FIXED[name]()
    m = re.fullmatch(r"a([0-9]+)", name)
    if m:
        n = _parametric_n("a", m.group(1), lambda n: n - 1)
        g = make_A(n)
        assert len(g.nodes) == n and len(g.edges) == n - 1
        return Builtin(name, g)
    m = re.fullmatch(r"delta([0-9]+)", name)
    if m:
        n = _parametric_n("delta", m.group(1), lambda n: n * (n - 1) // 2 + n)
        g = make_delta(n)
        assert len(g.nodes) == 2 * n and len(g.edges) == n * (n - 1) // 2 + n
        return Builtin(name, g)
    raise KekulecError(
        f"unknown builtin '{name}'; available: {', '.join(builtin_names())}")
