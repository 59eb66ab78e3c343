from itertools import permutations

import pytest

from kekulec import Cell, Graph, KekulecError
from kekulec.classify import BASE_CELLS
from kekulec.smallgraphs import atlas_graphs
from kekulec import verify as verify_mod
from kekulec.verify import Bounds, run_claims


@pytest.fixture(scope="module")
def results():
    return {r.claim: r for r in run_claims(Bounds())}


def test_all_claims_pass(results):
    failed = [r.claim for r in results.values() if not r.ok]
    assert failed == []


def test_every_registered_claim_ran(results):
    assert set(results) == {name for name, _ in verify_mod.CLAIMS}


# the `kekulec verify` report at default bounds, claim by claim
DEFAULT_DETAILS = {
    "state-difference-curves": "373 graphs, 2746 state pairs",
    "openness-path-equivalence": "474 graphs, 1124 channel checks",
    "cell-translation": "100 random (graph, assignment) instances",
    "channel-decomposition-law": "464 nonempty cells, 502 member pairs decomposed",
    "merge-split-invariance": "986 merges, 4657 splits preserved",
    "parity-law": "474 graphs, 4176 brute-force states, 707 solves",
    "kernel-span": "200 random graphs, 426 assignments spanned",
    "curve-count": "199 graphs, 434 states checked",
    "omni-paths": "75 state/port-pair paths found",
    "flex-round-trip": "372 graphs round-tripped through flex",
    "classification-small-cells": "362 cells classified sound, 441 diameter-4 cells in orbit",
    "pendant-core-completeness": "33 pendant-form graphs",
    "omni-operations": "72 operations checked",
    "omni-families": "A_2..A_8, Delta_2..Delta_5, B; ethene witness {p0,p2}",
    "ycell-4port-impossibility": ("1161 connected four-port graphs, 571 size-4 cells, "
                                  "4 product cells tested"),
}


def test_default_bound_details(results):
    assert {claim: r.detail for claim, r in results.items()} == DEFAULT_DETAILS


def test_transform_claims_cover_enough_instances(results):
    assert results["merge-split-invariance"].stats["merges"] >= 100
    assert results["merge-split-invariance"].stats["splits"] >= 100
    assert results["cell-translation"].stats["instances"] >= 100
    assert results["flex-round-trip"].stats["instances"] >= 100


def test_random_claims_are_seed_stable():
    a = [r.detail for r in run_claims(Bounds(seed=5, random_count=20),
                                      ["kernel-span"])]
    b = [r.detail for r in run_claims(Bounds(seed=5, random_count=20),
                                      ["kernel-span"])]
    assert a == b


def test_claim_selection():
    out = run_claims(Bounds(), ["omni-families", "pendant-core-completeness"])
    assert sorted(r.claim for r in out) == ["omni-families", "pendant-core-completeness"]


def test_injected_mutant_yields_counterexample(monkeypatch):
    """A broken cell computation must be caught and reported with a graph."""
    real = verify_mod.kekule_cell

    def mutant(g, allow_large=False):
        cell = real(g, allow_large=allow_large)
        if len(cell.masks) > 1:
            return Cell(cell.ports, frozenset(list(sorted(cell.masks))[:-1]))
        return cell

    monkeypatch.setattr(verify_mod, "kekule_cell", mutant)
    (result,) = run_claims(Bounds(max_edges=6), ["openness-path-equivalence"])
    assert not result.ok
    assert result.counterexample is not None
    assert "edges" in result.counterexample


def test_openness_claim_checks_the_library_openness_test(monkeypatch):
    """The claim asks ``cells.is_open``, so one wrong answer from it fails the gate."""
    real = verify_mod.is_open
    asked = []

    def flipped_once(cell, k, c):
        asked.append(k)
        return real(cell, k, c) != (len(asked) == 1)

    monkeypatch.setattr(verify_mod, "is_open", flipped_once)
    (result,) = run_claims(Bounds(max_edges=5), ["openness-path-equivalence"])
    assert not result.ok
    assert result.detail.startswith("openness mismatch")
    assert result.counterexample is not None


def test_alternating_path_search_on_a_long_chain():
    from kekulec import Assignment, kekule_states_for, make_A
    g = make_A(3000)
    (w,) = kekule_states_for(g, Assignment(g.ports, 0))
    assert verify_mod.alternating_path_exists(g, w, "a1", "a3000")


@pytest.mark.parametrize("kwargs", [{"max_edges": 0}, {"max_edges": 1},
                                    {"random_count": -1}])
def test_bounds_reject_values_the_claims_cannot_run(kwargs):
    with pytest.raises(KekulecError):
        Bounds(**kwargs)


def test_smallest_bounds_run_every_claim():
    out = run_claims(Bounds(max_edges=2, random_count=0))
    assert [r.claim for r in out] == [name for name, _ in verify_mod.CLAIMS]
    assert all(r.ok for r in out)


def test_unknown_claim_id_is_an_error():
    with pytest.raises(KekulecError, match="unknown claim 'nope'; available: "):
        run_claims(Bounds(), ["parity-law", "nope"])


def test_four_port_graphs_are_built_once_for_both_claims(monkeypatch):
    bounds = Bounds(max_edges=8)
    verify_mod._four_port_cells.cache_clear()
    (alone,) = run_claims(bounds, ["ycell-4port-impossibility"])
    real = verify_mod.connected_with_ports
    built = []

    def counted(ports, max_edges):
        built.append((ports, max_edges))
        return real(ports, max_edges)

    monkeypatch.setattr(verify_mod, "connected_with_ports", counted)
    verify_mod._four_port_cells.cache_clear()
    verify_mod._two_port_products.cache_clear()
    run_claims(bounds, ["classification-small-cells"])
    (after,) = run_claims(bounds, ["ycell-4port-impossibility"])
    assert built == [(2, 6), (4, 8)]
    assert after.detail == alone.detail and after.stats == alone.stats


def test_four_port_counterexample_is_the_graph_of_the_failing_cell(monkeypatch):
    from kekulec import kekule_cell, to_document
    monkeypatch.setattr(verify_mod, "_matches_ycell", lambda ports, masks: ports[0])
    (result,) = run_claims(Bounds(max_edges=6), ["ycell-4port-impossibility"])
    assert not result.ok
    g = next(g for g in verify_mod.connected_with_ports(4, 6)
             if len(kekule_cell(g).masks) == 4)
    assert result.counterexample == to_document(g)


# -- the Y-cell matcher ---------------------------------------------------------------

YCELL = (set(), {"p", "r"}, {"p", "t"}, {"p", "q", "r", "t"})


def _masks(ports, members):
    return frozenset(sum(1 << ports.index(x) for x in s) for s in members)


def test_matches_ycell_names_the_shared_port():
    ports = ("p", "q", "r", "t")
    assert verify_mod._matches_ycell(ports, _masks(ports, YCELL)) == "r"


@pytest.mark.parametrize("ports", list(permutations(("p", "q", "r", "t"))))
def test_matches_ycell_under_every_translation_and_relabelling(ports):
    # A = {p,r}, B = {q,r}, T = {t,r}; swapping r and t gives the same cell
    # (A = {p,t}, T = {r,t}), so either label is a shared port
    masks = _masks(ports, YCELL)
    for gm in range(16):
        assert verify_mod._matches_ycell(ports, frozenset(gm ^ m for m in masks)) in {"r", "t"}


@pytest.mark.parametrize("index, moved_to", [
    (0, {"p", "q"}), (0, {"r", "t"}), (1, {"q", "r"}),
    (2, {"q", "t"}), (3, {"p", "q"}), (3, {"r", "t"}),
])
def test_matches_ycell_refuses_a_moved_member(index, moved_to):
    ports = ("p", "q", "r", "t")
    members = list(YCELL)
    members[index] = moved_to
    assert verify_mod._matches_ycell(ports, _masks(ports, members)) is None


def test_matches_ycell_refuses_k0():
    assert verify_mod._matches_ycell(("a", "b", "c", "d"), BASE_CELLS[0]) is None


# -- the exhaustive walks against their definitions -----------------------------------

def _walk_graphs():
    return [*atlas_graphs(max_edges=8), Graph([("p", "q")])]


def test_edge_walk_visits_every_subset_with_its_odd_nodes():
    for g in _walk_graphs():
        walk = list(verify_mod._edge_walk(g))
        assert sorted(mask for mask, _ in walk) == list(range(1 << len(g.edges)))
        for mask, odd in walk:
            want = sum(1 << i for i, v in enumerate(g.nodes)
                       if (mask & g.incidence_mask(v)).bit_count() % 2)
            assert odd == want, (g.edges, mask)


def test_edge_walk_finds_exactly_the_semi_kekule_subsets():
    for g in _walk_graphs():
        inc = [g.incidence_mask(v) for v in g.internal]
        internal = sum(1 << i for i, v in enumerate(g.nodes) if v in g.internal)
        walked = {mask for mask, odd in verify_mod._edge_walk(g) if odd & internal == internal}
        want = {m for m in range(1 << len(g.edges))
                if all((m & x).bit_count() % 2 for x in inc)}
        assert walked == want, g.edges
    # the single edge p-q has no internal node, so both of its subsets count
    assert [odd for _, odd in verify_mod._edge_walk(Graph([("p", "q")]))] == [0, 0b11]


def test_port_free_masks_are_the_subsets_without_a_port_edge():
    for g in _walk_graphs():
        port_edges = 0
        for p in g.ports:
            port_edges |= g.incidence_mask(p)
        want = [m for m in range(1 << len(g.edges)) if not m & port_edges]
        assert verify_mod._port_free_masks(g) == want, g.edges
