import random

import pytest

from kekulec import (Builtin, Cell, FunctionalCell, KekulecError, SwitchError,
                     builtin, builtin_names, kekule_cell, parity_space,
                     signature, verify_gate)

AND_TABLE = {(0, 0): False, (1, 0): False, (0, 1): False, (1, 1): True}


def fc_of(name):
    return builtin(name).functional_cell()


# -- construction validation ----------------------------------------------------

def test_initial_must_be_member(ethene3):
    cell = kekule_cell(ethene3)
    bad = cell.assignment(("p0", "p2"))
    with pytest.raises(SwitchError, match="not in cell"):
        FunctionalCell(cell, bad)


def test_channels_must_be_independent(ethene3):
    cell = kekule_cell(ethene3)
    chans = {"A": cell.assignment(("p0", "p1")),
             "B": cell.assignment(("p1", "p2")),
             "C": cell.assignment(("p0", "p2"))}
    with pytest.raises(SwitchError, match="independent"):
        FunctionalCell(cell, cell.assignment(()), chans)


def test_socket_channels_must_share_one_port(ethene3):
    cell = kekule_cell(ethene3)
    chans = {"A": cell.assignment(("p0", "p1")),
             "B": cell.assignment(("p1", "p2"))}
    ok = FunctionalCell(cell, cell.assignment(()), chans, {"S": ("A", "B")})
    assert ok.sockets == {"S": ("A", "B")}
    disjoint = Cell.of(("a", "b", "c", "d"), [(), "ab", "cd", "abcd"])
    chans = {"A": disjoint.assignment(("a", "b")),
             "B": disjoint.assignment(("c", "d"))}
    with pytest.raises(SwitchError, match="share exactly one port"):
        FunctionalCell(disjoint, disjoint.assignment(()), chans, {"S": ("A", "B")})


def test_socket_unknown_channel(ethene3):
    cell = kekule_cell(ethene3)
    with pytest.raises(SwitchError, match="unknown channel"):
        FunctionalCell(cell, cell.assignment(()), {}, {"S": ("A", "B")})


# -- the ethene switch story ------------------------------------------------------

def test_ethene_switch_story():
    fc = fc_of("ethene3")
    assert fc.open_channels() == {"A": True, "T": False}
    step = fc.signal("A")
    assert step.fired and str(fc.current) == "{p0,p1}"
    assert fc.open_channels() == {"A": True, "T": True}
    step = fc.signal("A")
    assert step.fired and len(fc.current) == 0  # back to the initial state
    refused = fc.signal("T")
    assert not refused.fired and len(fc.current) == 0


def test_ethene_reading_t_closes_a():
    fc = fc_of("ethene3")
    fc.signal("A")
    fc.signal("T")
    assert str(fc.current) == "{p1,p2}"
    assert fc.open_channels() == {"A": False, "T": True}


def test_signal_unknown_channel():
    fc = fc_of("ethene3")
    with pytest.raises(SwitchError, match="unknown channel"):
        fc.signal("X")


def test_signal_is_involution_when_open():
    rng = random.Random(7)
    for name in ("ethene3", "ycell-tree", "ycell-pyracylene", "splitter-indene"):
        fc = fc_of(name)
        names = sorted(fc.channels)
        for _ in range(200):
            before = fc.current
            chan = rng.choice(names)
            step = fc.signal(chan)
            assert fc.current in fc.cell
            if step.fired:
                fc.signal(chan)
                assert fc.current == before
                fc.signal(chan)  # leave the walk randomized


def test_trace_records_steps():
    fc = fc_of("ethene3")
    fc.signal("A")
    fc.signal("T")
    fc.signal("T")
    assert [s.channel for s in fc.trace] == ["A", "T", "T"]
    assert [s.fired for s in fc.trace] == [True, True, True]
    assert fc.trace[0].before == fc.initial


# -- sockets ----------------------------------------------------------------------

def test_ycell_socket_walk():
    fc = fc_of("ycell-tree")
    assert fc.open_channels() == {"A": True, "B": False, "T": False}
    fired, _ = fc.signal_socket("AB")
    assert fired == "A"
    assert fc.open_channels()["T"] is True
    fc.signal("T")
    assert fc.open_channels() == {"A": False, "B": True, "T": True}
    fired, _ = fc.signal_socket("AB")
    assert fired == "B"
    assert fc.open_channels() == {"A": False, "B": True, "T": False}


def test_socket_violation_raises():
    fc = fc_of("ethene3")
    fc.sockets = {"AT": ("A", "T")}  # ill-formed: both open after signalling A
    fc.signal("A")
    with pytest.raises(SwitchError, match="socket invariant violated"):
        fc.signal_socket("AT")


def test_unknown_socket():
    fc = fc_of("ycell-tree")
    with pytest.raises(SwitchError, match="unknown socket"):
        fc.signal_socket("XY")


# -- reachability ------------------------------------------------------------------

def test_ycell_reachable_states():
    fc = fc_of("ycell-tree")
    reach = fc.reachable_states()
    assert len(reach) == 4
    a, b, t = fc.channels["A"], fc.channels["B"], fc.channels["T"]
    k0 = fc.initial
    assert set(reach) == {k0, k0 ^ a, k0 ^ a ^ t, k0 ^ a ^ b ^ t}


def test_pyracylene_reachable_states():
    fc = fc_of("ycell-pyracylene")
    assert len(fc.cell) == 12
    assert len(fc.reachable_states()) == 4


def test_single_channel_trivial_cell():
    cell = Cell(("x", "y"), frozenset({0}))
    fc = FunctionalCell(cell, cell.assignment(()),
                        {"C": cell.assignment(("x", "y"))})
    assert fc.reachable_states() == (cell.assignment(()),)


def test_sockets_exactly_one_open_in_ycells():
    for name in ("ycell-tree", "ycell-pyracylene"):
        fc = fc_of(name)
        for state in fc.reachable_states():
            fc.current = state
            opens = fc.open_channels()
            assert opens["A"] != opens["B"]


def test_pyracylene_soliton_to_origin():
    fc = fc_of("ycell-pyracylene")
    direct = fc.cell.assignment(("pa1", "pt1"))
    assert fc.initial == direct
    origin = fc.cell.assignment(())
    assert (fc.initial ^ direct) == origin and origin in fc.cell


def test_pyracylene_states_per_assignment():
    b = builtin("ycell-pyracylene")
    g = b.graph
    from kekulec import kekule_states_for
    fc = b.functional_cell()
    a, bb, t = fc.channels["A"], fc.channels["B"], fc.channels["T"]
    k0 = fc.initial
    counts = {
        str(fc.cell.assignment(())): 4,
        str(k0): 2,
        str(k0 ^ a ^ bb ^ t): 2,
        str(k0 ^ a): 1,
        str(k0 ^ a ^ t): 1,
    }
    for label, expected in counts.items():
        target = next(k for k in fc.cell.members() if str(k) == label)
        assert len(kekule_states_for(g, target)) == expected


# -- the splitter -------------------------------------------------------------------

def test_indene_cell_counts():
    fc = fc_of("splitter-indene")
    assert len(fc.cell) == 18
    assert len(parity_space(fc.cell.ports, 1)) == 32


def test_indene_required_and_forbidden_members():
    fc = fc_of("splitter-indene")
    a, b = fc.channels["A"], fc.channels["B"]
    s, t = fc.channels["S"], fc.channels["T"]
    k0 = fc.initial
    relative = {(k0 ^ m).mask for m in fc.cell.members()}
    zero = fc.cell.assignment(())
    required = [zero, a, a ^ s, a ^ s ^ t, a ^ s ^ t ^ b]
    forbidden = [s, t, a ^ s ^ b, a ^ t ^ b, b, a ^ b, s ^ t, s ^ t ^ b]
    for m in required:
        assert m.mask in relative
    for m in forbidden:
        assert m.mask not in relative
    # this realization also contains all three optional members
    for m in (a ^ t, b ^ s, b ^ t):
        assert m.mask in relative


def test_indene_splitter_protocol():
    fc = fc_of("splitter-indene")
    fired, _ = fc.signal_socket("AB")
    assert fired == "A"
    assert fc.open_channels()["S"] and fc.open_channels()["T"]
    assert fc.signal("S").fired
    assert fc.signal("T").fired
    fired, _ = fc.signal_socket("AB")
    assert fired == "B"
    assert not fc.open_channels()["S"] and not fc.open_channels()["T"]


def test_indene_socket_gap_after_first_output():
    # after A then S, neither input channel is open: the cell excludes both
    # S and A^S^B, so the input socket is unusable mid-read
    fc = fc_of("splitter-indene")
    fc.signal_socket("AB")
    fc.signal("S")
    opens = fc.open_channels()
    assert opens["A"] is False and opens["B"] is False
    with pytest.raises(SwitchError, match="both closed"):
        fc.signal_socket("AB")


# -- gates --------------------------------------------------------------------------

def test_conjunction_gate_passes_and_table():
    fc = fc_of("conjunction4")
    report = verify_gate(fc, ("A", "B"), "T", AND_TABLE)
    assert report.passed
    assert [row[2] for row in report.rows] == [False, False, False, True]


def test_ethene_buffer_gate():
    fc = fc_of("ethene3")
    report = verify_gate(fc, ("A",), "T", {(0,): False, (1,): True})
    assert report.passed


def test_k0_fails_and_table():
    g = builtin("lemma2-k0").graph
    cell = kekule_cell(g)
    chans = {"A": cell.assignment(("a", "b")), "B": cell.assignment(("c", "d")),
             "T": cell.assignment(("b", "d"))}
    fc = FunctionalCell(cell, cell.assignment(()), chans)
    report = verify_gate(fc, ("A", "B"), "T", AND_TABLE)
    assert not report.passed
    assert any("(1, 1)" in v for v in report.violations)


def test_gate_missing_table_entry():
    fc = fc_of("conjunction4")
    with pytest.raises(SwitchError, match="missing entry"):
        verify_gate(fc, ("A", "B"), "T", {(0, 0): False})


# -- builtins ------------------------------------------------------------------------

def test_builtin_names_listing():
    names = builtin_names()
    assert "ycell-pyracylene" in names and "a<n>" in names


def test_every_fixed_builtin_constructs():
    for name in builtin_names():
        if "<" in name:
            continue
        b = builtin(name)
        assert b.graph.edges
        b.functional_cell()


def test_parametric_builtins():
    assert len(builtin("a6").graph.edges) == 5
    assert len(builtin("delta5").graph.edges) == 15
    with pytest.raises(Exception):
        builtin("nosuch")


def test_ycell_counts():
    b = builtin("ycell-tree")
    cell = kekule_cell(b.graph)
    assert len(cell) == 8
    assert len(parity_space(b.graph.ports, signature(b.graph))) == 16


def test_builtin_documents_round_trip():
    from kekulec import dumps_document, parse_document
    for name in ("ethene3", "ycell-tree", "splitter-indene"):
        doc = builtin(name).document()
        parsed = parse_document(dumps_document(doc))
        assert parsed.graph == builtin(name).graph
        assert parsed.channels == builtin(name).channels


def test_snapshot_resets_to_initial():
    fc = fc_of("ycell-tree")
    fc.signal_socket("AB")
    snap = fc.snapshot()
    assert snap.current == fc.initial and fc.current != fc.initial


def test_functional_cell_without_kekule_state(no_state_graph):
    with pytest.raises(KekulecError, match="^graph has no Kekulé state$"):
        FunctionalCell.from_graph(no_state_graph, {}, {}, None)
    with pytest.raises(KekulecError, match="^graph has no Kekulé state$"):
        Builtin("no-state", no_state_graph).functional_cell()


# -- refusals ---------------------------------------------------------------------

ETHENE_CELL = kekule_cell(builtin("ethene3").graph)  # ports p0, p1, p2


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: FunctionalCell(ETHENE_CELL, ETHENE_CELL.assignment(()),
                                        {"A": Cell.of(("a", "b"), [()]).assignment(("a", "b"))}),
                 SwitchError, "channel 'A' uses a different port set", id="channel-ports"),
    pytest.param(lambda: FunctionalCell(ETHENE_CELL, ETHENE_CELL.assignment(()),
                                        {"A": ETHENE_CELL.assignment(("p0",))}),
                 SwitchError, "channel 'A' must contain exactly two ports", id="channel-one-port"),
    pytest.param(lambda: FunctionalCell(ETHENE_CELL, ETHENE_CELL.assignment(()),
                                        {"A": ETHENE_CELL.assignment(("p0", "p1"))},
                                        {"S": ("A", "A")}),
                 SwitchError, "socket 'S' must pair two distinct channels", id="socket-one-channel"),
    pytest.param(lambda: verify_gate(fc_of("ethene3"), ("X",), "T", {(0,): False, (1,): True}),
                 SwitchError, "unknown channel 'X'", id="gate-unknown-input"),
])
def test_switch_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_gate_reports_a_refused_input():
    # T is closed at the initial state of ethene3, so signalling it is refused
    fc = fc_of("ethene3")
    assert fc.open_channels() == {"A": True, "T": False}
    report = verify_gate(fc, ("T",), "A", {(0,): True, (1,): True})
    assert report.violations == ("input 'T' refused at {} for combo (1,)",)
    assert report.rows == (((0,), True, True), ((1,), True, True))
    assert not report.passed
