"""Naive brute-force oracles, independent of the library under test.

Everything here works on plain edge-pair lists and enumerates full power
sets, so it is only usable on tiny graphs; that is the point.
"""

from __future__ import annotations

from itertools import combinations


def norm(edges):
    return [tuple(sorted(e)) for e in edges]


def degree_map(edges):
    deg = {}
    for u, v in norm(edges):
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def port_set(edges):
    return {n for n, d in degree_map(edges).items() if d == 1}


def internal_set(edges):
    return {n for n, d in degree_map(edges).items() if d > 1}


def all_subsets(edges):
    es = norm(edges)
    for r in range(len(es) + 1):
        for combo in combinations(es, r):
            yield frozenset(combo)


def is_kekule(edges, w):
    cnt = {}
    for u, v in w:
        cnt[u] = cnt.get(u, 0) + 1
        cnt[v] = cnt.get(v, 0) + 1
    return all(cnt.get(n, 0) == 1 for n in internal_set(edges))


def is_perfect(edges, w):
    cnt = {}
    for u, v in w:
        cnt[u] = cnt.get(u, 0) + 1
        cnt[v] = cnt.get(v, 0) + 1
    return all(cnt.get(n, 0) == 1 for n in degree_map(edges))


def kekule_states(edges):
    return [w for w in all_subsets(edges) if is_kekule(edges, w)]


def semi_kekule_states(edges):
    internal = internal_set(edges)
    out = []
    for w in all_subsets(edges):
        cnt = {}
        for u, v in w:
            cnt[u] = cnt.get(u, 0) + 1
            cnt[v] = cnt.get(v, 0) + 1
        if all(cnt.get(n, 0) % 2 == 1 for n in internal):
            out.append(w)
    return out


def assignment_of(edges, w):
    ports = port_set(edges)
    return frozenset(n for e in w for n in e if n in ports)


def cell_of(edges):
    return {assignment_of(edges, w) for w in kekule_states(edges)}


def is_curve(edges, c):
    internal = internal_set(edges)
    cnt = {}
    for u, v in c:
        cnt[u] = cnt.get(u, 0) + 1
        cnt[v] = cnt.get(v, 0) + 1
    return all(d == 2 for n, d in cnt.items() if n in internal)


def is_alternating(edges, c, w):
    if not is_curve(edges, c):
        return False
    wc = frozenset(c) & frozenset(w)
    cnt = {}
    for u, v in c:
        cnt[u] = cnt.get(u, 0) + 1
        cnt[v] = cnt.get(v, 0) + 1
    inner = {n for n, d in cnt.items() if d >= 2}
    hit = {}
    for u, v in wc:
        hit[u] = hit.get(u, 0) + 1
        hit[v] = hit.get(v, 0) + 1
    return all(hit.get(n, 0) == 1 for n in inner)


def alternating_curves(edges, w, port_free=True):
    ports = port_set(edges)
    out = []
    for c in all_subsets(edges):
        if port_free and any(n in ports for e in c for n in e):
            continue
        if is_alternating(edges, c, w):
            out.append(c)
    return out


def components_of(c):
    adj = {}
    for u, v in c:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen, comps = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            n = stack.pop()
            if n in comp:
                continue
            comp.add(n)
            stack.extend(adj[n] - comp)
        seen |= comp
        comps.append(frozenset(e for e in c if e[0] in comp))
    return comps


def alternating_path_exists(edges, w, p, q):
    """Simple p..q path among the alternating curves; pure enumeration."""
    for c in all_subsets(edges):
        if not c or not is_alternating(edges, c, w):
            continue
        comps = components_of(c)
        if len(comps) != 1:
            continue
        cnt = {}
        for u, v in c:
            cnt[u] = cnt.get(u, 0) + 1
            cnt[v] = cnt.get(v, 0) + 1
        ends = {n for n, d in cnt.items() if d == 1}
        if ends == {p, q}:
            return True
    return False


def graph_attributes(edges):
    """Node tuples, degrees, neighbour lists, incidence masks and edge
    indices of a valid edge list, each built on its own from the sorted
    edge list."""
    es = sorted(set(norm(edges)))
    index = {e: i for i, e in enumerate(es)}
    deg = degree_map(es)
    nodes = tuple(sorted(deg))
    return {
        "edges": tuple(es),
        "nodes": nodes,
        "ports": tuple(n for n in nodes if deg[n] == 1),
        "internal": tuple(n for n in nodes if deg[n] > 1),
        "degree": deg,
        "neighbors": {n: tuple(sorted((v if u == n else u, index[(u, v)])
                                      for u, v in es if n in (u, v)))
                      for n in nodes},
        "incidence": {n: sum(1 << index[e] for e in es if n in e) for n in nodes},
        "index": index,
    }
