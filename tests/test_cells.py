import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from kekulec import (Assignment, Cell, CellError, channel,
                     channel_decomposition, diameter, flex, flexible_ports,
                     hamming, is_open, parity_space, translate)
from kekulec.cells import closure, layer_masks, ordered_masks

PORTS4 = ("a", "b", "c", "d")

masks4 = st.integers(0, 15)


def asg(labels, ports=PORTS4):
    return Assignment.of(ports, labels)


@given(masks4, masks4, masks4)
def test_xor_group_laws(x, y, z):
    kx, ky, kz = (Assignment(PORTS4, m) for m in (x, y, z))
    assert (kx ^ ky) == (ky ^ kx)
    assert ((kx ^ ky) ^ kz) == (kx ^ (ky ^ kz))
    assert (kx ^ Assignment(PORTS4, 0)) == kx
    assert (kx ^ kx) == Assignment(PORTS4, 0)


@given(masks4, masks4, masks4)
def test_hamming_translation_invariant(x, y, g):
    kx, ky, kg = (Assignment(PORTS4, m) for m in (x, y, g))
    assert hamming(kg ^ kx, kg ^ ky) == hamming(kx, ky)


def test_sym_diff_examples():
    assert asg("ab") ^ asg("bc") == asg("ac")
    assert hamming(asg(""), asg("abcd")) == 4
    assert hamming(asg("ab"), asg("ac")) == 2
    assert hamming(asg("ab"), asg("ab")) == 0


def test_port_set_mismatch():
    with pytest.raises(CellError):
        asg("a") ^ Assignment.of(("a", "b"), "a")


def test_assignment_format():
    assert str(asg("")) == "{}"
    assert str(asg("ba")) == "{a,b}"


def test_diameter():
    assert diameter(Cell.of(PORTS4, ["a"])) == 0
    eth = Cell.of(("p0", "p1", "p2"), [(), ("p0", "p1"), ("p1", "p2")])
    assert diameter(eth) == 2
    assert diameter(parity_space(PORTS4, 0)) == 4
    with pytest.raises(CellError):
        diameter(Cell(PORTS4, frozenset()))


def test_translate():
    k1 = Cell.of(("p0", "p1"), [("p0",), ("p1",)])
    assert translate(Assignment.of(("p0", "p1"), ()), k1) == k1
    g = Assignment.of(("p0", "p1"), ("p0",))
    assert translate(g, k1) == Cell.of(("p0", "p1"), [(), ("p0", "p1")])
    assert translate(g, translate(g, k1)) == k1


def test_translate_preserves_shape():
    cell = Cell.of(PORTS4, [(), "ab", "cd"])
    moved = translate(asg("ac"), cell)
    assert len(moved) == len(cell)
    assert diameter(moved) == diameter(cell)
    assert len(flexible_ports(moved)) == len(flexible_ports(cell))


def test_is_open():
    eth = Cell.of(("p0", "p1", "p2"), [(), ("p0", "p1"), ("p1", "p2")])
    empty = Assignment.of(("p0", "p1", "p2"), "")
    assert is_open(eth, empty, channel(eth.ports, "p0", "p1"))
    assert not is_open(eth, empty, channel(eth.ports, "p0", "p2"))
    with pytest.raises(CellError, match="not in cell"):
        is_open(eth, Assignment.of(eth.ports, ("p0",)), channel(eth.ports, "p0", "p1"))
    with pytest.raises(CellError, match="two ports"):
        is_open(eth, empty, Assignment.of(eth.ports, ("p0",)))


def test_flexible_ports():
    assert flexible_ports(Cell.of(PORTS4, ["ab"])) == ()
    eth = Cell.of(("p0", "p1", "p2"), [(), ("p0", "p1"), ("p1", "p2")])
    assert flexible_ports(eth) == ("p0", "p1", "p2")
    assert flexible_ports(Cell.of(("a", "b", "c"), ["a", "abc"])) == ("b", "c")
    assert flexible_ports(Cell(PORTS4, frozenset())) == ()


def test_flex():
    eth = Cell.of(("p0", "p1", "p2"), [(), ("p0", "p1"), ("p1", "p2")])
    assert flex(eth) == eth
    mixed = Cell.of(("a", "b", "c"), ["a", "abc"])
    assert flex(mixed) == Cell.of(("b", "c"), [(), "bc"])
    single = Cell.of(PORTS4, ["ab"])
    assert flex(single) == Cell.of((), [()])


def test_flex_bijection():
    cell = Cell.of(PORTS4, ["a", "ab", "abc"])
    assert len(flex(cell)) == len(cell)


def test_channel_decomposition_trivial():
    k0 = Cell.of(PORTS4, [(), "ab", "cd", "abcd"])
    assert channel_decomposition(k0, asg(""), asg("")) == []


def test_channel_decomposition_k0():
    k0 = Cell.of(PORTS4, [(), "ab", "cd", "abcd"])
    d = channel_decomposition(k0, asg(""), asg("abcd"))
    assert d == [asg("ab"), asg("cd")]


def test_channel_decomposition_ethene():
    eth = Cell.of(("p0", "p1", "p2"), [(), ("p0", "p1"), ("p1", "p2")])
    d = channel_decomposition(eth, Assignment.of(eth.ports, ""),
                              Assignment.of(eth.ports, ("p1", "p2")))
    assert d == [Assignment.of(eth.ports, ("p1", "p2"))]


def test_channel_decomposition_failure_witnesses_non_kekule():
    bad = Cell.of(PORTS4, [(), "abcd"])
    with pytest.raises(CellError, match="not a Kekulé cell"):
        channel_decomposition(bad, asg(""), asg("abcd"))


def test_channel_decomposition_odd_distance():
    bad = Cell.of(PORTS4, [(), "a"])
    with pytest.raises(CellError, match="odd"):
        channel_decomposition(bad, asg(""), asg("a"))


@pytest.mark.parametrize("ports, parity, size", [
    (("a", "b"), 0, 2),
    (PORTS4, 0, 8),
    (tuple("pqrstu"), 1, 32),
])
def test_parity_space_sizes(ports, parity, size):
    assert len(parity_space(ports, parity)) == size


def test_parity_space_two_ports():
    assert parity_space(("a", "b"), 0) == Cell.of(("a", "b"), [(), "ab"])


def test_cell_format_lines():
    eth = Cell.of(("p0", "p1", "p2"), [("p1", "p2"), (), ("p0", "p1")])
    assert eth.format_lines() == ["{}", "{p0,p1}", "{p1,p2}"]


@pytest.mark.parametrize("n", range(9))
def test_ordered_masks_is_sort_key_order(n):
    ports = tuple(f"p{i}" for i in range(n))
    expected = sorted(range(1 << n), key=lambda m: Assignment(ports, m).sort_key())
    assert list(ordered_masks(n)) == expected
    for parity in (0, 1):
        assert list(ordered_masks(n, parity)) == [
            m for m in expected if m.bit_count() % 2 == parity]


def _ordered_masks_by_index_sums(n, parity=None):
    """``ordered_masks`` as first written: one generator sum per mask."""
    for k in range(parity or 0, n + 1, 1 if parity is None else 2):
        for combo in combinations(range(n), k):
            yield sum(1 << i for i in combo)


@pytest.mark.parametrize("n", range(13))
def test_ordered_masks_keeps_the_index_sum_sequence(n):
    # witnesses and member order rest on this exact sequence
    for parity in (None, 0, 1):
        assert list(ordered_masks(n, parity)) == list(_ordered_masks_by_index_sums(n, parity))


@pytest.mark.parametrize("n", range(10))
def test_ordered_masks_sums_given_values_in_member_order(n):
    # each layer_masks(n, k) is the k-port stretch of ordered_masks, in order
    for parity in (None, 0, 1):
        ks = range(parity or 0, n + 1, 1 if parity is None else 2)
        layers = [list(layer_masks(n, k)) for k in ks]
        assert [m for layer in layers for m in layer] == list(ordered_masks(n, parity))
        for k, layer in zip(ks, layers):
            assert all(m.bit_count() == k for m in layer)


def test_members_order_is_sort_key_order():
    rng = random.Random(7)
    for n in range(13):
        ports = tuple(sorted(f"q{rng.randrange(1000):03d}-{i}" for i in range(n)))
        for _ in range(5):
            size = rng.randint(1, min(1 << n, 300))
            cell = Cell(ports, frozenset(rng.sample(range(1 << n), size)))
            members = cell.members()
            assert list(members) == sorted(members, key=Assignment.sort_key)
            assert {k.mask for k in members} == cell.masks


def test_closure_accepts_each_candidate_once():
    asked = []

    def accept(m):
        asked.append(m)
        return m != 0b0011

    moves = [1 << i | 1 << j for j in range(4) for i in range(j)]
    reached = closure(0, moves, accept)
    even = [m for m in range(16) if m.bit_count() % 2 == 0]
    assert reached == frozenset(even) - {0b0011}
    # every even mask but the start is a candidate, asked exactly once
    assert sorted(asked) == even[1:]


def test_closure_stops_at_rejected_masks():
    # the square 00 - 01 - 11 - 10 under single-bit moves
    moves = [0b01, 0b10]
    assert closure(0, moves, lambda m: m != 0b10) == frozenset({0b00, 0b01, 0b11})
    assert closure(0, moves, lambda m: m == 0b11) == frozenset({0b00})
    assert closure(5, [], lambda m: True) == frozenset({5})


def _labels_by_definition(ports, mask):
    return tuple(p for i, p in enumerate(ports) if mask >> i & 1)


def _mask_by_definition(ports, labels):
    index = {p: i for i, p in enumerate(ports)}
    mask = 0
    for x in labels:
        mask |= 1 << index[x]
    return mask


def _label_cases():
    """Every mask over 12 ports, and random masks over 40 and 64 ports."""
    ports = tuple(f"p{i:02d}" for i in range(12))
    yield from ((ports, m) for m in range(1 << 12))
    rng = random.Random(19)
    for n in (40, 64):
        ports = tuple(sorted(f"r{rng.randrange(10 ** 6):06d}-{i}" for i in range(n)))
        yield from ((ports, m) for m in (0, (1 << n) - 1, 1, 1 << n - 1))
        yield from ((ports, rng.getrandbits(n)) for _ in range(400))


def test_labels_and_of_match_their_definitions():
    for ports, mask in _label_cases():
        labels = _labels_by_definition(ports, mask)
        a = Assignment(ports, mask)
        assert a.labels() == labels
        assert Assignment.of(ports, labels) == a
        assert Assignment.of(ports, reversed(labels)).mask == _mask_by_definition(ports, labels)


def test_contains_tests_the_label_bit():
    for ports, mask in _label_cases():
        labels = _labels_by_definition(ports, mask)
        a = Assignment(ports, mask)
        assert [p in a for p in ports] == [p in labels for p in ports]
        assert "not-a-port" not in a and 3 not in a


def test_of_ignores_repeated_labels():
    assert asg("aab") == asg("bab") == asg("ab") == asg("abba")
    rng = random.Random(5)
    ports = tuple(f"p{i:02d}" for i in range(40))
    for _ in range(200):
        labels = rng.choices(ports, k=rng.randrange(60))
        assert Assignment.of(ports, labels).mask == _mask_by_definition(ports, labels)


def test_of_names_an_unknown_label():
    for labels in (("z",), ("a", "z"), ("a", "b", "z", "c"), ("a", "z", "a")):
        with pytest.raises(CellError) as refused:
            Assignment.of(PORTS4, labels)
        assert str(refused.value) == "label 'z' is not a port of this cell"
    with pytest.raises(CellError, match="^label 'A' is not a port of this cell$"):
        Cell.of(PORTS4, ["ab", "cA"])


def test_members_order_is_popcount_then_set_bit_indices():
    # an independent key: (bit count, indices of the set bits, ascending)
    rng = random.Random(23)
    for n in (0, 1, 2, 3, 7, 12, 13, 20, 31, 40):
        ports = tuple(sorted(f"s{rng.randrange(10 ** 6):06d}-{i}" for i in range(n)))

        def key(m):
            return m.bit_count(), tuple(i for i in range(n) if m >> i & 1)

        for _ in range(6):
            masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 150))}
            # masks of one bit count that share low or high bits
            for _ in range(rng.randint(0, 150)):
                bits = rng.sample(range(n), rng.randint(0, min(n, 4)))
                masks.add(sum(1 << i for i in bits) | (1 << n) - 1 >> n // 2 << n // 2)
            cell = Cell(ports, frozenset(masks))
            assert [k.mask for k in cell.members()] == sorted(masks, key=key)


# -- refusals ---------------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: channel(PORTS4, "a", "a"), CellError,
                 "channel ports must differ", id="channel-same-port"),
    pytest.param(lambda: translate(asg("a"), Cell.of(("a", "b"), [()])), CellError,
                 "assignment and cell have different port sets", id="translate-ports"),
    pytest.param(lambda: flex(Cell(PORTS4, frozenset())), CellError,
                 "empty cell cannot be restricted", id="flex-empty"),
    pytest.param(lambda: channel_decomposition(Cell.of(PORTS4, [(), "ab"]), asg(""), asg("cd")),
                 CellError, "both endpoints must be members of the cell",
                 id="decomposition-non-member"),
])
def test_cell_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
