import pytest

from kekulec import (Assignment, Graph, KekulecError, channel,
                     is_omniconjugated, is_open,
                     kekule_cell, make_A, make_B, make_delta, parity_space,
                     pendant_core_is_complete, realized_assignment_count,
                     signature)
from kekulec.smallgraphs import atlas_graphs


@pytest.mark.parametrize("n", range(2, 9))
def test_a_family_omniconjugated(n):
    assert is_omniconjugated(make_A(n)).omniconjugated


@pytest.mark.parametrize("n", range(2, 15))
def test_delta_family_omniconjugated(n):
    g = make_delta(n)
    assert is_omniconjugated(g).omniconjugated
    assert realized_assignment_count(g) == 2 ** (n - 1)


def test_model_b_omniconjugated():
    assert is_omniconjugated(make_B()).omniconjugated


def test_delta2_is_a4():
    d2 = make_delta(2)
    assert len(d2.nodes) == 4 and len(d2.edges) == 3
    assert len(d2.ports) == 2 and all(d2.degree[v] == 2 for v in d2.internal)


def test_delta_counts():
    for n in (3, 4):
        g = make_delta(n)
        assert len(g.nodes) == 2 * n
        assert len(g.edges) == n * (n - 1) // 2 + n


def test_family_size_preconditions():
    with pytest.raises(KekulecError):
        make_A(1)
    with pytest.raises(KekulecError):
        make_delta(1)


def test_ethene_not_omniconjugated(ethene3):
    verdict = is_omniconjugated(ethene3)
    assert not verdict.omniconjugated
    assert verdict.witness == Assignment.of(ethene3.ports, ("p0", "p2"))


def test_house5_is_omniconjugated(house5):
    # a two-port cell {{n1},{n4}} fills the whole odd parity class
    assert is_omniconjugated(house5).omniconjugated


def test_requires_two_ports(phenantrene):
    with pytest.raises(KekulecError, match="two ports"):
        is_omniconjugated(phenantrene)


def test_realized_count(ethene3):
    assert realized_assignment_count(ethene3) == 3
    assert realized_assignment_count(make_delta(3)) == 4


def test_pendant_core_complete():
    assert pendant_core_is_complete(make_delta(2))
    assert pendant_core_is_complete(make_delta(4))


def test_pendant_core_four_cycle():
    core = [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u1", "u4")]
    pendants = [(f"p{i}", f"u{i}") for i in range(1, 5)]
    g = Graph(core + pendants)
    assert not pendant_core_is_complete(g)
    assert not is_omniconjugated(g).omniconjugated


def test_pendant_form_rejected(house5):
    with pytest.raises(KekulecError, match="pendant form"):
        pendant_core_is_complete(house5)


def test_omni_equals_all_channels_always_open():
    """Converse characterization: a graph with states whose channels are all
    open everywhere is omniconjugated, and vice versa."""
    for g in atlas_graphs(max_edges=8, connected=True):
        if len(g.ports) < 2:
            continue
        cell = kekule_cell(g)
        if not cell.masks:
            continue
        always_open = all(
            is_open(cell, k, channel(g.ports, p, q))
            for k in cell.members()
            for i, p in enumerate(g.ports) for q in g.ports[i + 1:])
        assert always_open == is_omniconjugated(g).omniconjugated


def test_omni_cell_is_parity_space():
    for g in (make_delta(3), make_B(), make_A(5)):
        assert kekule_cell(g) == parity_space(g.ports, signature(g))


def test_witness_is_first_missing(ethene3):
    # canonical order goes by (cardinality, labels); {} and {p0,p1} are
    # realized, so {p0,p2} is the first gap
    space = parity_space(ethene3.ports, signature(ethene3)).members()
    assert [str(k) for k in space] == ["{}", "{p0,p1}", "{p0,p2}", "{p1,p2}"]
