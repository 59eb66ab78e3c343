"""Seeded inputs, timed ops and output checks for the benchmark workloads.

Each workload is a fixed batch of ops built from ``--seed``; the library only
ever sees the generated inputs.  An op's ``run`` is the timed call into
kekulec and returns a plain, deterministic value; its ``check`` runs outside
the timed region and returns an error string or None.  ``props`` records the
input properties (edges, ports, cycle rank, ...) so a later change can report
the measured share of a workload that has a property.

Inputs that trip a known defect of the library are only built with
``known_defects`` set, so that a default run has no failing op.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

WORKLOADS = ("hex-cell", "hex-omni", "atlas-verify", "cli-batch")

# Known defects at the commit that defined the benchmark; an op that raises
# the named exception on these inputs is counted in ``failed`` and named.
KNOWN_DEFECTS = {
    "RecursionError": "recursive cover backtracker on chains of ~1,000+ internal nodes",
    "AttributeError": "parse_document on a non-object 'channels' or 'sockets'",
}


@dataclass
class Op:
    name: str
    props: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None   # exception type expected at this commit


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup_notes: dict = field(default_factory=dict)


def _rng(stream: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, so streams are stable across processes
    return random.Random(f"{stream}:{seed}")


def build(name: str, K, seed: int, scale: str, known_defects: bool, workdir: str) -> Workload:
    """Generate the inputs of one workload; ``K`` is the imported kekulec package."""
    builders = {"hex-cell": _hex_cell, "hex-omni": _hex_omni,
                "atlas-verify": _atlas_verify, "cli-batch": _cli_batch}
    return builders[name](K, seed, scale, known_defects, workdir)


# -- shared generators ----------------------------------------------------------

_LATTICES: dict[tuple[int, int], tuple[list, list]] = {}


def hex_patch(K, m: int, n: int, ports: int, rng: random.Random):
    """networkx hexagonal-lattice patch with pendant ports on degree-2 boundary nodes."""
    if (m, n) not in _LATTICES:
        import networkx as nx
        h = nx.hexagonal_lattice_graph(m, n)
        label = {v: f"c{v[0]:02d}{v[1]:02d}" for v in h}
        _LATTICES[(m, n)] = ([(label[u], label[v]) for u, v in h.edges],
                             sorted(label[v] for v in h if h.degree[v] == 2))
    edges, spots = _LATTICES[(m, n)]
    chosen = sorted(rng.sample(spots, ports))
    return K.Graph(edges + [(f"p{i:02d}", s) for i, s in enumerate(chosen)])


def _props(K, g) -> dict:
    return {"edges": len(g.edges), "ports": len(g.ports), "cycle_rank": K.cycle_rank(g)}


# -- hex-cell: kekule_cell plus the channel table, as in `kekulec channels` ----------

# ((rows, cols), ports, count) per patch class; chains are make_A(n)
_HEX_CELL = {
    "full": {"patches": [((2, 4), 8, 10), ((2, 4), 10, 10), ((3, 3), 8, 10),
                         ((3, 3), 10, 10), ((3, 3), 12, 10), ((3, 4), 8, 10),
                         ((4, 3), 10, 8), ((4, 4), 8, 8)],
             "chains": (300, 500, 700, 900)},
    "tiny": {"patches": [((3, 3), 8, 2)], "chains": (40,)},
}
_DEFECT_CHAINS = (1200, 3000)


def _hex_cell(K, seed, scale, known_defects, workdir) -> Workload:
    rng = _rng("hex-cell", seed)
    spec = _HEX_CELL[scale]
    graphs = []
    for (m, n), k, count in spec["patches"]:
        for i in range(count):
            graphs.append((f"hex{m}x{n}p{k}#{i}", hex_patch(K, m, n, k, rng), None))
    graphs += [(f"a{n}", K.make_A(n), None) for n in spec["chains"]]
    if known_defects:
        graphs += [(f"a{n}", K.make_A(n), "RecursionError") for n in _DEFECT_CHAINS]
    ops = [Op(name, _props(K, g), _cell_run(K, g), _cell_check(K, g, _rng(name, seed)), defect)
           for name, g, defect in graphs]
    return Workload("hex-cell", ops)


def _cell_run(K, g):
    def run():
        cell = K.kekule_cell(g, allow_large=True)
        members = cell.members()
        at = members[0]
        table = []
        for i, p in enumerate(g.ports):
            for q in g.ports[i + 1:]:
                table.append((at ^ cell.assignment((p, q))) in cell)
        return (tuple(m.labels() for m in members), tuple(table))
    return run


def _cell_check(K, g, rng):
    def check(out):
        members, table = out
        eps = K.signature(g)
        if any(len(m) % 2 != eps for m in members):
            return "cell member with the wrong parity"
        for m in rng.sample(members, min(2, len(members))):
            if not K.has_kekule_state_for(g, K.Assignment.of(g.ports, m)):
                return f"cell member {m} has no Kekulé state"
        masks = {K.Assignment.of(g.ports, m).mask for m in members}
        outside = [m for m in range(1 << len(g.ports))
                   if m.bit_count() % 2 == eps and m not in masks]
        if outside:
            a = K.Assignment(g.ports, rng.choice(outside))
            if K.has_kekule_state_for(g, a):
                return f"realized assignment {a} missing from the cell"
        pairs = list(combinations(g.ports, 2))
        if len(table) != len(pairs):
            return "channel table has the wrong size"
        at = K.Assignment.of(g.ports, members[0])
        for i in rng.sample(range(len(pairs)), min(3, len(pairs))):
            toggled = at ^ K.Assignment.of(g.ports, pairs[i])
            if table[i] != K.has_kekule_state_for(g, toggled):
                return f"channel {pairs[i]} openness disagrees with search"
        return None
    return check


# -- hex-omni: is_omniconjugated then realized_assignment_count, as in `kekulec omni` --

_HEX_OMNI = {
    "full": {"patches": [((2, 4), 8, 6), ((3, 3), 8, 6), ((3, 4), 8, 5),
                         ((4, 3), 8, 5), ((2, 4), 10, 4), ((3, 3), 10, 4)],
             "deltas": range(8, 15)},
    "tiny": {"patches": [((3, 3), 8, 1)], "deltas": range(3, 5)},
}


def _hex_omni(K, seed, scale, known_defects, workdir) -> Workload:
    rng = _rng("hex-omni", seed)
    spec = _HEX_OMNI[scale]
    graphs = []
    for (m, n), k, count in spec["patches"]:
        for i in range(count):
            graphs.append((f"hex{m}x{n}p{k}#{i}", hex_patch(K, m, n, k, rng), False))
    graphs += [(f"delta{n}", K.make_delta(n), True) for n in spec["deltas"]]
    ops = [Op(name, _props(K, g), _omni_run(K, g), _omni_check(K, g, name, is_delta))
           for name, g, is_delta in graphs]
    return Workload("hex-omni", ops)


def _omni_run(K, g):
    def run():
        verdict = K.is_omniconjugated(g)
        realized = K.realized_assignment_count(g)
        witness = None if verdict.witness is None else verdict.witness.labels()
        return (verdict.omniconjugated, witness, realized)
    return run


def _omni_check(K, g, name, is_delta):
    def check(out):
        omni, witness, realized = out
        space = 1 << (len(g.ports) - 1)
        if omni != (realized == space) or realized > space:
            return f"verdict {omni} disagrees with {realized} of {space} realized"
        if is_delta and not omni:
            return f"{name} must be omniconjugated"
        if witness is not None:
            a = K.Assignment.of(g.ports, witness)
            if len(a) % 2 != K.signature(g) or K.has_kekule_state_for(g, a):
                return f"witness {witness} is not a missing parity-correct assignment"
        if not is_delta and len(g.edges) <= 50:
            cell = K.kekule_cell(g, allow_large=True)
            if len(cell) != realized:
                return f"realized count {realized} != cell size {len(cell)}"
        return None
    return check


# -- atlas-verify: one op per claim of run_claims at default bounds ---------------

def _atlas_verify(K, seed, scale, known_defects, workdir) -> Workload:
    from kekulec import smallgraphs, verify
    t0 = time.perf_counter()
    smallgraphs.atlas_graphs()
    atlas_s = time.perf_counter() - t0
    if scale == "full":
        bounds = verify.Bounds(seed=seed)
    else:
        bounds = verify.Bounds(max_edges=5, random_count=4, seed=seed)
    ops = []
    for claim, _ in verify.CLAIMS:
        def run(claim=claim):
            (result,) = verify.run_claims(bounds, [claim])
            return (result.claim, result.ok, result.detail)

        def check(out, claim=claim):
            if out[0] != claim or not out[1]:
                return f"claim {claim} did not pass: {out[2]}"
            return None
        ops.append(Op(claim, {"claim": claim}, run, check))
    return Workload("atlas-verify", ops, {"smallgraphs.atlas_s": atlas_s})


# -- cli-batch: in-process cli.main(argv) over builtins, hex and random documents ----

_CLI = {
    "full": {"random": 18, "hex": [((1, 2), 3), ((1, 2), 4), ((2, 2), 4), ((2, 2), 6)],
             "all_builtins": True},
    "tiny": {"random": 1, "hex": [((1, 2), 2)], "all_builtins": False},
}
_FORMATTED = ("states", "cell", "semikekule", "channels", "omni", "classify", "transform")
_MUTATIONS = ("truncated", "not-object", "no-edges", "edges-not-list", "empty-edges",
              "self-loop", "duplicate-edge", "bad-label", "bad-channel", "bad-initial")
_DEFECT_MUTATIONS = ("channels-not-object", "sockets-not-object")


def _mutate(doc: dict, text: str, kind: str) -> str:
    d = json.loads(json.dumps(doc))
    if kind == "truncated":
        return text[: len(text) // 2]
    if kind == "not-object":
        return "[" + text + "]"
    if kind == "no-edges":
        d.pop("edges")
    elif kind == "edges-not-list":
        d["edges"] = {"a": "b"}
    elif kind == "empty-edges":
        d["edges"] = []
    elif kind == "self-loop":
        d["edges"].append([d["edges"][0][0], d["edges"][0][0]])
    elif kind == "duplicate-edge":
        d["edges"].append(list(reversed(d["edges"][0])))
    elif kind == "bad-label":
        d["edges"][0] = [7, d["edges"][0][1]]
    elif kind == "bad-channel":
        d["channels"] = {"A": [d["edges"][0][0]]}
    elif kind == "bad-initial":
        d["initial"] = "p"
    elif kind == "channels-not-object":
        d["channels"] = [1]
    elif kind == "sockets-not-object":
        d["sockets"] = ["AB"]
    return json.dumps(d, sort_keys=True)


def _cli_documents(K, rng, scale, known_defects):
    """(name, document text, graph or None when malformed, defect)."""
    spec = _CLI[scale]
    names = [n for n in K.builtin_names() if "<" not in n]
    if not spec["all_builtins"]:
        names = names[:3]
    names += [f"a{rng.randint(3, 12)}", f"delta{rng.randint(3, 6)}"]
    docs = [(n, K.builtin(n).document()) for n in names]
    for (m, n), k in spec["hex"]:
        g = hex_patch(K, m, n, k, rng)
        docs.append((f"hex{m}x{n}p{k}", K.to_document(g)))
    from kekulec.smallgraphs import random_connected_graph
    for i in range(spec["random"]):
        g = random_connected_graph(rng, max_edges=rng.randint(5, 12), max_nodes=9)
        ports = list(g.ports)
        rng.shuffle(ports)
        channels = {f"C{j}": sorted(ports[2 * j: 2 * j + 2])
                    for j in range(min(2, len(ports) // 2)) if rng.random() < 0.7}
        docs.append((f"random#{i}", K.to_document(g, channels=channels)))
    out = [(name, json.dumps(doc, sort_keys=True), doc, None) for name, doc in docs]
    kinds = [(k, None) for k in rng.sample(_MUTATIONS, max(1, round(len(out) / 9)))]
    if known_defects:
        kinds += [(k, "AttributeError") for k in _DEFECT_MUTATIONS]
    valid = list(out)
    for kind, defect in kinds:
        name, text, doc, _ = valid[rng.randrange(len(valid))]
        out.append((f"{name}~{kind}", _mutate(doc, text, kind), None, defect))
    return [(name, text, None if doc is None else K.parse_graph(text), defect)
            for name, text, doc, defect in out]


def _transform_args(g, rng) -> list[str]:
    options = [["--translate", ",".join(p for p in g.ports if rng.random() < 0.5) or "-"]]
    if g.ports:
        options.append(["--subdivide", rng.choice(g.ports)])
    merges = [u for u in g.internal if g.degree[u] == 2
              and all(g.degree[nb] > 1 for nb, _ in g.neighbors(u))]
    if merges:
        options.append(["--merge", rng.choice(merges)])
    splits = [u for u in g.internal if g.degree[u] >= 2]
    if splits:
        u = rng.choice(splits)
        nbs = [nb for nb, _ in g.neighbors(u)]
        k = rng.randint(1, len(nbs) - 1)
        options.append(["--split", f"{u}:{','.join(nbs[:k])}/{','.join(nbs[k:])}"])
    pairs = [(u, v) for u, v in combinations(g.internal, 2) if (u, v) not in g]
    if pairs:
        options.append(["--add-edge", ",".join(rng.choice(pairs))])
    return rng.choice(options)


def _script(doc: dict, rng) -> str:
    lines = ["state", "open"]
    for s in sorted(doc.get("sockets", {})):
        lines.append(f"socket {s}")
    lines.append("reset")
    chans = sorted(doc.get("channels", {}))
    rng.shuffle(chans)
    lines += [f"signal {c}" for c in chans]
    lines += ["reach", "reset", "state", "quit"]
    return "\n".join(lines) + "\n"


def _cli_batch(K, seed, scale, known_defects, workdir) -> Workload:
    from kekulec import cli
    rng = _rng("cli-batch", seed)
    ops = []
    for idx, (name, text, g, defect) in enumerate(_cli_documents(K, rng, scale, known_defects)):
        path = os.path.join(workdir, f"d{idx:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argvs = []
        extra = {"transform": _transform_args(g, rng) if g is not None else ["--translate", "-"]}
        if g is not None and g.ports and rng.random() < 0.5:
            chosen = {p for p in g.ports if rng.random() < 0.5}
            if len(chosen) % 2 != K.signature(g):
                chosen ^= {g.ports[0]}
            extra["semikekule"] = ["--assignment", ",".join(sorted(chosen)) or "-"]
        for cmd in _FORMATTED:
            for fmt in ("text", "json"):
                argvs.append([cmd, path, "--format", fmt] + extra.get(cmd, []))
        script = os.path.join(workdir, f"d{idx:03d}.script")
        with open(script, "w", encoding="utf-8") as fh:
            fh.write(_script(json.loads(text) if g is not None else {}, rng))
        argvs.append(["simulate", path, "--script", script])
        expected = _cli_expectations(K, g) if g is not None else None
        for argv in argvs:
            op_name = f"{name}:{argv[0]}" + (f":{argv[3]}" if len(argv) > 3 and argv[2] == "--format" else "")
            props = {"argv": [a.replace(workdir, "<work>") for a in argv], "malformed": g is None}
            if g is not None:
                props.update(_props(K, g))
            ops.append(Op(op_name, props, _cli_run(cli, argv, workdir),
                          _cli_check(argv, expected), defect))
    return Workload("cli-batch", ops)


def _cli_run(cli, argv, workdir):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return (code, out.getvalue().replace(workdir, "<work>"),
                err.getvalue().replace(workdir, "<work>"))
    return run


def _cli_expectations(K, g) -> dict:
    """Library results the JSON outputs must agree with, computed untimed."""
    cell = K.kekule_cell(g)
    exp = {"members": [list(m.labels()) for m in cell.members()],
           "count": len(K.enumerate_kekule_states(g))}
    if 2 <= len(g.ports) <= 20:
        exp["omniconjugated"] = K.is_omniconjugated(g).omniconjugated
    return exp


def _cli_check(argv, expected):
    cmd = argv[0]
    fmt = argv[3] if len(argv) > 3 and argv[2] == "--format" else "text"

    def check(out):
        code, stdout, stderr = out
        last = stderr.rstrip("\n").rsplit("\n", 1)[-1]
        if expected is None:
            if code not in (1, 2) or stdout or not last.startswith("error: "):
                return f"malformed document: exit {code}, stderr {last!r}"
            return None
        if code == 1:
            refused = cmd == "simulate" and "refused" in stdout and not stderr
            if not (refused or last.startswith("error: ")):
                return f"exit 1 without a domain error: {last!r}"
            return None
        if code != 0:
            return f"exit {code} on a valid document"
        if fmt != "json":
            return None
        try:
            data = json.loads(stdout)
        except ValueError:
            return "--format json output is not JSON"
        if cmd == "cell" and data["members"] != expected["members"]:
            return "cell members differ from kekule_cell"
        if cmd == "states" and data["count"] != expected["count"]:
            return "state count differs from enumerate_kekule_states"
        if cmd == "omni" and data["omniconjugated"] != expected.get("omniconjugated"):
            return "omni verdict differs from is_omniconjugated"
        return None
    return check
