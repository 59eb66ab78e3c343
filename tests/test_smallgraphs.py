import pytest

from kekulec.smallgraphs import connected_with_ports


@pytest.mark.parametrize("ports", [2, 3, 4])
def test_connected_with_ports_keeps_both_bounds(ports):
    for cap in range(1, 7):
        for g in connected_with_ports(ports, cap):
            assert len(g.edges) <= cap and len(g.ports) == ports, (ports, cap, g.edges)


def test_connected_with_ports_smallest_caps():
    assert [g.edges for g in connected_with_ports(2, 1)] == [(("q1", "q2"),)]
    assert connected_with_ports(4, 3) == []
    assert len(connected_with_ports(4, 4)) == 1
