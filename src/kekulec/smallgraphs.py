"""Graph universes for exhaustive and randomized checking.

The exhaustive universe is every isomorphism class of graphs on at most 7
nodes without isolated nodes, optionally cut to an edge count and to the
connected graphs.  It is read from ``_ATLAS``, a table of those graphs in the
order of the graph atlas (Read & Wilson, *An Atlas of Graphs*, 1998, as
shipped by networkx): by node count, then edge count, then degree sequence,
then automorphism count.  Randomized suites use a seeded generator so
every run is reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .errors import KekulecError
from .graph import Graph, cycle_rank, is_connected, normalize_edge


_PAIRS = [(f"v{u}", f"v{v}") for u, v in combinations(range(7), 2)]


@lru_cache(maxsize=None)
def _atlas() -> list[Graph]:
    """The 1,043 atlas graphs that have edges and no isolated node, in atlas
    order.

    ``atlas_table()`` in ``tests/test_smallgraphs.py`` regenerates
    ``_ATLAS`` from networkx's ``graph_atlas_g()``; the tests there check
    both the table and these graphs against networkx.
    """
    return [Graph(pair for i, pair in enumerate(_PAIRS) if mask >> i & 1)
            for mask in (int(word, 16) for word in _ATLAS.split())]


@lru_cache(maxsize=None)
def _connected(g: Graph) -> bool:
    return is_connected(g)


def atlas_graphs(max_edges: int | None = None, connected: bool = False) -> list[Graph]:
    """Every graph on <= 7 nodes up to isomorphism with at most ``max_edges``
    edges, only the connected ones when ``connected``."""
    return [g for g in _atlas()
            if (max_edges is None or len(g.edges) <= max_edges)
            and (not connected or _connected(g))]


def connected_with_ports(k: int, max_edges: int) -> list[Graph]:
    """Every connected graph with exactly ``k`` ports and at most
    ``max_edges`` edges, complete up to isomorphism.

    Ports are pendant leaves, so the core (graph minus ports) is connected
    with at most ``max_edges - k`` edges; that bound must stay <= 6
    so the 7-node atlas covers every core.  Iso-duplicates from core
    symmetries are possible and harmless.
    """
    core_edges = max_edges - k
    if core_edges > 6:
        raise KekulecError("core bound exceeds the 7-node atlas")
    out: list[Graph] = []
    if k == 2 and max_edges >= 1:
        out.append(Graph([("q1", "q2")]))  # the empty-core case
    if 2 <= k <= max_edges:
        out.append(Graph((f"q{i}", "z") for i in range(1, k + 1)))
    for core in atlas_graphs(max_edges=core_edges, connected=True):
        leafy = [n for n in core.nodes if core.degree[n] == 1]
        for spots in combinations_with_replacement(core.nodes, k):
            if any(n not in spots for n in leafy):
                continue  # a core leaf without a port would become a port itself
            out.append(Graph(tuple(core.edges)
                             + tuple((f"q{i}", n) for i, n in enumerate(spots, 1))))
    return out


def random_connected_graph(rng: random.Random, max_edges: int = 16,
                           max_nodes: int = 10) -> Graph:
    """Random spanning tree on 3 to ``max_nodes`` nodes plus random extra
    edges, at most ``max_edges`` in all."""
    n = rng.randint(3, min(max_nodes, max_edges + 1))
    labels = [f"v{i:02d}" for i in range(1, n + 1)]
    order = labels[:]
    rng.shuffle(order)
    edges = {normalize_edge(order[i], order[rng.randrange(i)])
             for i in range(1, n)}
    room = max_edges - len(edges)
    if room > 0:
        candidates = sorted(
            normalize_edge(a, b)
            for i, a in enumerate(labels) for b in labels[i + 1:]
            if normalize_edge(a, b) not in edges)
        k = rng.randint(0, min(room, len(candidates)))
        edges.update(rng.sample(candidates, k))
    return Graph(edges)


def random_bounded_graph(rng: random.Random, max_edges: int = 16) -> Graph:
    """Random connected graph whose assignment-times-kernel budget is bounded.

    Resamples until 2^(#ports - 1 + cycle rank) is at most 2048, keeping full
    per-assignment span enumeration affordable.
    """
    while True:
        g = random_connected_graph(rng, max_edges)
        if 2 ** (max(len(g.ports) - 1, 0) + cycle_rank(g)) <= 2048:
            return g


# One 21-bit mask per graph, in hex: bit i is the i-th node pair of
# combinations(range(7), 2), labelled v0..v6.
_ATLAS = """
000001 000003 000043 000801 000884 000045 0008c4 000845 000847 0008c7 008041 009108
008888 000849 008043 009908 00084b 0088c8 001981 008849 0019c1 009981 009909 00884d
0001ce 0099c8 00998c 0089c9 0011ce 00998d 00994d 0099cd 0099cf 040044 00005c 048050
01008a 052210 000b41 018007 0110c1 008898 0408c1 048811 00a20c 05004c 05a210 01910c
058a08 009158 0000de 0111c2 0100ce 01b082 058007 05005c 0088d8 001998 008a49 048851
0408d8 049988 003b41 0108ce 0419c8 043b01 0408c7 04081f 008b49 01090f 009998 04a942
008a4d 0019d8 008a4b 0521c2 018992 0488d2 048855 018859 058047 0008df 0108cf 0039c3
008bc9 0489c9 002acb 0089d9 002a8f 05a942 0408d7 012a8b 049998 00a85b 01b318 04b851
0481d3 00a85d 0419d8 058a49 049a51 00aa59 04a951 003ac7 002acf 04994d 05a9c2 042ac7
05b318 00a85f 0481db 0483d3 0408df 018a5d 0488de 0498d6 00aa5b 01b31a 05a859 00aa5d
04b855 04ab07 04a955 0499cd 0099dd 05b319 058bc9 0498de 04b8d6 048bd9 01aa5d 00ab5b
053b83 05aa59 049ad3 049ad6 05a1d3 009bcf 013bc7 0499dd 0519cf 05a3d3 04bb9a 0493d7
01bb1b 04bb55 0599cf 003bdf 05bb1b 049bd7 059adb 049bdf 059adf 05bbdb 05bbdf 040860
1001c1 10004d 00604c 108841 140860 1c0801 1a4420 007841 0061c1 0601c1 1021c1 107801
0061c8 10084b 00604d 064181 007184 10184c 10604c 10e041 06004d 106181 048861 1c0841
122809 108849 02003f 0087c8 1a2230 04016d 107841 0007cc 040d49 0c0949 162850 1001cd
1070c1 007981 1061c1 0601cc 166041 00614d 1081cc 02091b 0025cc 10091b 12081b 109909
060949 10ca41 140949 1061c8 142849 030913 160852 10604d 0061cc 062149 00618d 10198c
06604c 10e0c8 1041cc 12091a 10e04c 148861 122909 0007cd 00078f 00178d 0087cc 11a846
00978c 11a056 0c98c1 1081cd 1a4c21 1c4c60 1a4861 00278d 00784d 162852 00ee41 0071c5
06198c 061349 008d53 04458d 00358d 048d43 018d43 00c78c 14085b 04598c 046949 064c61
0061cd 1c4c41 12281b 00798c 0cc8c1 10ee01 142949 00e1cc 0039ac 10198d 136809 10784c
06007b 050d43 108d43 008e71 10d14c 009617 01f109 10cb41 0c8e41 139109 061136 14198c
162149 0d0943 10cb48 108e70 13c109 048a71 049871 108953 161a48 041a74 10398c 11d109
18cc11 162849 04cc51 1061cc 148c51 068871 0b2909 10618d 0008ff 0048df 010ccf 0079c3
003dc3 008fc9 088bc9 002ecb 0c89c9 0689c9 002aeb 008dd9 05e942 002aaf 1008df 0889d9
04c9c9 15a942 1208cf 0089f9 06984d 102acb 0da942 082ac7 00c9d9 102a8f 046a87 012aab
1408d7 10994d 0c9998 00a87b 069998 1039c3 09b318 04f851 108dc9 04d998 0499b8 1205d3
00a87d 0c19d8 1489c9 0cb851 14b851 1204db 00ac5b 08a85b 0459d8 02a85d 00e85d 082ae3
01b718 1089d9 04bc51 04b871 06b851 1214d3 078a49 00ac5d 0c9a51 082aa7 00ae59 0419f8
05e960 00aa79 158a49 08a85d 1604d3 14a951 058e49 0619d8 0c08d7 058a69 08aa59 049a71
092aa3 04a971 1ac470 10e943 1499a8 0e1998 162952 1c2998 07c843 161a52 1489e1 048e69
10cb49 138943 16085b 018e69 162a0b 0e1951 1061cd 101fb0 12291b 10798c 068933 068c71
0d0965 162949 134159 10e1cc 148c71 16184d 149c51 158c49 0cc871 10e64c 007ac7 003ec7
002ecf 002aef 022acf 0c994d 07a9c2 046ac7 05e9c2 14295b 102acf 0da9c2 142ac7 1099cd
15b318 00a87f 00e85f 05b718 02a85f 0481fb 0487d3 0408ff 038a5d 10a85f 0688de 0483f3
017b1a 086ac7 00ea5b 1483d3 08a85f 0698d6 0448df 11b31a 04c8de 013b3a 018e5d 0c98d6
082ae7 10aa5b 1481db 01b33a 04c3d3 04f855 15a859 00aa7d 1408df 18994d 048cde 098a5d
0da859 01ca5d 05a879 14b855 00ae5d 02aa5b 05e9e0 0cee41 04b875 02aa5d 00ea5d 182ac7
049cd6 1498d6 01b71a 05ac59 04bc55 08aa5d 0cab07 04a975 000ff9 163a52 0007fe 1ec470
1acc31 00ed53 00e973 1ec458 0cbc43 0061fd 165a52 00cb73 0cc85b 10f98c 148dc3 1ccc70
19cc31 152c59 1090fe 1081fe 18dc31 1067cc 03712b 07332a 158d4c 07f049 1c8d43 168e51
12691b 158e49 149d51 09ad43 14a86b 19a20f 14da51 10d99c 1f8849 00ef70 0cda51 0c1b35
0f21cc 12aa59 172949 14dc51 19a859 06c879 1e8871 0c8e71 1c8873 168c71 108f72 198e49
14a971 0852fc 1ccc51 0c94d6 18de11 10798d 10e1cd 1661cc 149c71 0e4a55 06a971 0c99cd
0999cd 08b9cd 00f9cd 00b9ed 1099cf 0db319 058fc9 0d8bc9 05b719 04d8de 158bc9 04f8d6
048fd9 06b8d6 0c8bd9 1f6e08 01aa7d 04b8f6 00af5b 148bd9 058be9 057b83 068bd9 00eb5b
14b8d6 11aa5d 153b83 1499cd 01ae5d 08ab5b 10ab5b 0d3b83 049cde 10d9cd 15aa59 049ed3
05ae59 04cbd9 04bcd6 13f720 05a5d3 149ad3 069ad3 09aa5d 02ab5b 049ed6 05e1d3 053ba3
07f720 1f6630 00efc3 098fc9 1e99a4 0cf853 06887f 10f9c3 173952 0cf859 00ec7b 1cee30
0fe630 1f9470 14b86b 1c986b 04ff03 0cfa51 0cc87b 158dc9 10f9cc 0fad30 163b49 00ff8c
1ecc31 1067cd 1c994d 12a87b 0e887b 18a87b 06c87d 1f2871 1798c3 09b9a5 07aaa3 100fbe
0ed951 1f8a51 173a49 189b4d 1079cd 0f6615 0aeb43 1a3a53 1b8b49 13c879 1e8e51 14de51
09bc4d 1cce51 1dd264 18da33 13e869 051fac 1ce9b0 0d44e7 16295b 05ef03 07f530 0ec85b
0d41cf 00ee79 10f1cd 15ac59 172959 1c9a4d 0f2a59 10e7cc 1669cc 17186d 077127 05ac79
17564c 19a959 11db19 16e1cc 103bad 166f0c 149e4d 166959 159c4d 15cd49 0eda51 04ed55
0f664c 0f1a4d 065eb8 0c9e74 1a299b 15c44f 009fcf 0999cf 013fc7 033bc7 0c99dd 049ddd
013be7 0499fd 04d9dd 051dcf 0d19cf 109dcf 05a7d3 15ba55 1247d7 07ba55 093bc7 05e3d3
1246df 06bb9a 04bbba 1499dd 14bb55 09bb1b 01bb3b 1646d7 03bb1b 04bb75 1519cf 1fcca4
0cdf49 1f9b14 039cd7 021bf7 157b49 17998d 001ffd 047ccf 0eb94d 005fdd 0c78cf 0f807f
1069df 09997d 041f7d 003dfd 0fd84d 179b34 009f7d 189bcd 0f19cd 058d7d 085bdd 143f4d
0996cf 06a96f 126b5b 0979cd 07f343 1691cf 19ccc7 1099fd 02bb6d 1f8e49 0f79b0 10ee79
1ece31 15ae59 1c9b4d 07a753 1d6ea8 16ef30 097747 0f9a4d 15a5d3 109f6d 087f8d 055f55
0d1f55 051f75 0eda4d 171eb8 1ed654 1e3f24 0fcc69 093f87 07a5d3 0adb5c 071ebc 1af714
0a4f7c 1d5db0 1f5554 19f724 0bf730 05dd55 159d55 0faf22 16bdb0 19b955 1f8b62 1bb3a2
0fe3a2 15ddb0 0f9e70 0f3e2c 1f19f0 1f9e03 0b3eac 1a3eb8 12bbac 0b3bac 1d4cf8 0e3eac
129b7c 0dd674 1cad74 1c9e74 16798d 0f694d 0ceeb8 05f6ac 13ed19 19cc9b 1ecc71 0eb36c
1ffb20 0d99cf 0497df 16783f 1fbf20 1ff704 0fe03f 17ff20 1f7ba0 05bf1b 1599cf 1aff90
0f7fa0 1f6671 005bff 0799ed 0399fd 0999fd 1ff1b0 0919ff 109fcf 1f7aa8 17fd30 1f79b0
1999cf 0ffe30 15a7d3 0e997d 05e7d3 101bff 007ff5 16f9cc 1df724 0f1fcc 0331ff 1119ff
0629ff 01b4ff 1faf22 06fecc 17ef28 0da5db 14af1f 09acdf 14eb57 1ecb9c 1fe3a2 19bb1b
0da1fb 061fbd 1f9e70 0fa3d3 06e3cf 1c4e5f 0bff30 0f7db0 1919df 1bf1f0 149afe 06eb1f
0f3a5d 1bfb21 0ffe21 0fe879 1fa86b 13f8cd 1faa59 14cfe5 0961ff 139bf4 0fa96d 1f2e69
16ef38 1ceeb8 1eba53 0fe671 19ccbb 0fce78 0cafe6 14ef4d 0bef38 0f3eac 1bcb78 1abeb8
1f8d72 09fe71 1fc1f2 073dad 0e8f76 0decf8 07f4f8 1f694d 16f9b1 0f79b1 19ccdb 049fdf
1ffba0 1bf03f 1dffa0 1ff744 0f99cf 00dfdf 09b9ef 0c93ff 0987ff 1de43f 1f613f 0da3fb
05e7db 0fe43f 0f9ebc 1d99cf 15ebcb 1dff24 1ff364 0fff30 1ffb21 1ff1f0 0a3bdf 15be5d
1deee8 177fa8 16ffb0 18abdf 04affe 1fe671 16e63f 1bccbb 1e75bc 061ffd 1bf72c 1e4b3f
1fbca9 1ddeb8 1f9e78 1f3bac 1b75bc 1f74ad 0fa47f 0f1e3f 173dbc 1dbcad 16feb8 1f6b6c
17f4f8 17fd31 1f7aa9 0f3dbc 1f79b1 1f69f8 13ff38 0f3dad 0b7fb8 0eeef8 19def8 1aef5c
1a7f9c 1d9cf3 067fbc 05bfdb 05bbfb 1387ff 1f963f 1f9e3d 0f9fbc 15bf5d 1fd6b5 1f9eb9
1fbfa2 1f1fbc 1fbb9c 1fbbac 03dedf 0fdb8f 1f99cf 1efc6d 1ff4ad 1e77bc 1eccf7 1bf73c
1fbcf8 1f3dbc 1abdbd 0bf63f 1f75ad 1bf5b5 1ebdb5 1df7a6 0f7fb8 1abfbc 1f3dad 1ddef8
1ff707 1eef27 1bf727 16ef7c 06ffbc 1afb9d 0fee79 05fbdf 1fe7bc 1fbc3f 0ffff0 1fbbbc
1ff6bc 1f9e3f 1f77bc 1ff6b5 1ff5b5 1df4bf 1bf7bc 1f3dbd 1abfbd 06e7ff 16ef3f 13f73f
1bff39 1f7bad 1afbbd 0f7fbc 05ffdf 0c7fff 1ff6bd 1bf7bd 1ffb9d 1fff35 1f7fbc 1bff3d
1e7fbd 0f7ffc 15bfff 03ffff 1efb7f 1f9ff7 1f7faf 1f9fff 1efff7 1ffff7 1fffff
"""
