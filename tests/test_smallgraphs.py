from collections import Counter
from itertools import combinations

import pytest
from networkx.generators.atlas import graph_atlas_g

from kekulec import Graph, KekulecError, smallgraphs
from kekulec.smallgraphs import connected_with_ports


def atlas_from_networkx():
    """The atlas graphs with edges and no isolated node, in atlas order."""
    return [ng for ng in graph_atlas_g()
            if ng.number_of_edges() and all(d for _, d in ng.degree())]


def atlas_table() -> str:
    """``smallgraphs._ATLAS`` rebuilt from networkx: one 21-bit mask per graph
    over ``combinations(range(7), 2)``, six hex digits, twelve to a line."""
    bit = {pair: 1 << i for i, pair in enumerate(combinations(range(7), 2))}
    words = [f"{sum(bit[min(e), max(e)] for e in ng.edges()):06x}"
             for ng in atlas_from_networkx()]
    return "".join("\n" + " ".join(words[i:i + 12])
                   for i in range(0, len(words), 12)) + "\n"


def test_atlas_is_the_networkx_atlas():
    expected = [Graph((f"v{min(e)}", f"v{max(e)}") for e in ng.edges())
                for ng in atlas_from_networkx()]
    atlas = smallgraphs._atlas()
    assert atlas == expected
    assert len(atlas) == 1043
    # graphs without isolated nodes on n nodes: OEIS A002494
    assert Counter(len(g.nodes) for g in atlas) == {
        2: 1, 3: 2, 4: 7, 5: 23, 6: 122, 7: 888}


def test_atlas_table_is_regenerated_by_atlas_table():
    assert smallgraphs._ATLAS == atlas_table()


@pytest.mark.parametrize("ports", [2, 3, 4])
def test_connected_with_ports_keeps_both_bounds(ports):
    for cap in range(1, 7):
        for g in connected_with_ports(ports, cap):
            assert len(g.edges) <= cap and len(g.ports) == ports, (ports, cap, g.edges)


def test_connected_with_ports_smallest_caps():
    assert [g.edges for g in connected_with_ports(2, 1)] == [(("q1", "q2"),)]
    assert connected_with_ports(4, 3) == []
    assert len(connected_with_ports(4, 4)) == 1


# -- refusals ---------------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: connected_with_ports(2, 9), KekulecError,
                 "core bound exceeds the 7-node atlas", id="core-past-the-atlas"),
])
def test_smallgraphs_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
