from itertools import permutations

import pytest

from kekulec import (Assignment, Cell, CellError, KekulecError,
                     classify_cell, flex, kekule_cell, diameter4_template,
                     make_delta, parity_space, star_graph)
from kekulec.classify import _ORBIT, BASE_CELLS, _permute_mask

PORTS4 = ("a", "b", "c", "d")


def cell4(*members):
    return Cell.of(PORTS4, members)


K0 = cell4((), "ab", "cd", "abcd")


def test_base_templates_realize_their_cells():
    for k in range(6):
        assert kekule_cell(diameter4_template(k)).masks == BASE_CELLS[k]


@pytest.mark.parametrize("k", range(6))
def test_classify_base_cells(k):
    result = classify_cell(Cell(PORTS4, BASE_CELLS[k]))
    assert result.is_kekule
    assert result.tag == f"k{k}"
    assert result.translation == Assignment(PORTS4, 0)
    assert kekule_cell(result.template) == Cell(PORTS4, BASE_CELLS[k])


def test_classify_two_port_star():
    cell = Cell.of(("p", "q"), ["p", "q"])
    result = classify_cell(cell)
    assert result.tag == "k1-star"
    assert kekule_cell(result.template) == cell


def test_classify_ethene_is_k1_translate(ethene3):
    result = classify_cell(flex(kekule_cell(ethene3)))
    assert result.tag == "k1-star"
    assert result.translation == Assignment.of(ethene3.ports, ("p1",))


def test_classify_even_three_ports():
    cell = parity_space(("a", "b", "c"), 0)
    result = classify_cell(cell)
    assert result.tag == "even3-translate"
    assert kekule_cell(result.template) == cell
    odd = parity_space(("a", "b", "c"), 1)
    assert classify_cell(odd).tag == "even3-translate"
    assert kekule_cell(classify_cell(odd).template) == odd


def test_classify_even_four_ports_is_k5():
    result = classify_cell(parity_space(PORTS4, 0))
    assert result.tag == "k5"
    assert kekule_cell(result.template) == parity_space(PORTS4, 0)
    # same cell shape as the complete-core pendant graph on four nodes
    assert kekule_cell(result.template).masks == kekule_cell(make_delta(4)).masks


def test_classify_trivial_cell():
    result = classify_cell(Cell((), frozenset({0})))
    assert result.is_kekule and result.tag == "trivial"
    assert kekule_cell(result.template) == Cell((), frozenset({0}))


def test_classify_translated_and_permuted_orbit():
    base = Cell(PORTS4, BASE_CELLS[3])
    g = Assignment.of(PORTS4, "bd")
    from kekulec.cells import translate
    moved = translate(g, base)
    result = classify_cell(moved)
    assert result.is_kekule and result.tag == "k3"
    assert kekule_cell(result.template) == moved


def test_k0_plus_shared_pair_is_k3_orbit():
    # adding {a,c} and {a,d} to K0 lands in the k3 orbit via a <-> c, b <-> d
    cell = cell4((), "ab", "cd", "abcd", "ac", "ad")
    result = classify_cell(cell)
    assert result.is_kekule and result.tag == "k3"
    assert kekule_cell(result.template) == cell


def test_diameter4_without_intermediates_is_not_kekule():
    cell = cell4((), "abcd", "ab", "ac")
    result = classify_cell(cell)
    assert not result.is_kekule
    assert result.tag is None and result.template is None


def test_odd_distance_is_not_kekule():
    result = classify_cell(Cell.of(("a",), [(), "a"]))
    assert not result.is_kekule


def test_two_port_full_power_set_is_not_kekule():
    result = classify_cell(Cell.of(("a", "b"), [(), "a", "b", "ab"]))
    assert not result.is_kekule


def test_classify_preconditions():
    with pytest.raises(KekulecError, match="beyond 4 ports"):
        classify_cell(Cell.of(tuple("abcde"), [()]))
    with pytest.raises(CellError, match="empty"):
        classify_cell(Cell(PORTS4, frozenset()))
    with pytest.raises(KekulecError, match="flexible"):
        classify_cell(cell4("ab", "ac"))  # port a never varies


def test_star_graph_shape():
    star = star_graph(("p1", "p2", "p3", "p4", "p5"))
    assert len(star.ports) == 5 and len(star.internal) == 1
    assert kekule_cell(star).masks == frozenset(1 << i for i in range(5))


def test_classify_soundness_on_sample_graphs(house5, ethene3, single_state_graph):
    for g in (house5, ethene3, single_state_graph, make_delta(3), diameter4_template(4)):
        result = classify_cell(flex(kekule_cell(g)))
        assert result.is_kekule


def test_orbit_table_permutes_each_key_back_onto_its_base():
    assert len(_ORBIT) == 37
    for key, (perm, i) in _ORBIT.items():
        assert frozenset(_permute_mask(m, perm) for m in key) == BASE_CELLS[i]
    # every permutation of every base class is a key
    for perm in permutations(range(4)):
        inv = tuple(perm.index(j) for j in range(4))
        for base in BASE_CELLS:
            assert frozenset(_permute_mask(m, inv) for m in base) in _ORBIT
