"""Command-line frontend: analysis subcommands, graph rewrites, the switching
REPL, builtin graphs, and the structural verification suite.

Exit codes: 0 success, 1 domain error, 2 usage error (bad flags, unreadable
file).  All stdout output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .builtins import builtin, builtin_names
from .cells import Assignment, flex, flexible_ports, is_open
from .classify import classify_cell
from .errors import KekulecError
from .graph import (GraphDocument, dumps_document, parse_document,
                    signature, to_document)
from .kekule import enumerate_kekule_states, is_perfect_matching, kekule_cell
from .omni import is_omniconjugated, realized_assignment_count
from .semikekule import enumerate_semi_kekule, hsk_basis
from .switch import FunctionalCell
from .transform import (RewriteReport, add_internal_edge, glue_ports,
                        merge_node, split_node, subdivide_port_edge,
                        translate_graph)
from .verify import Bounds, run_claims

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
    except ValueError as exc:  # not UTF-8, or a NUL byte in the path
        print(f"file error: {exc}: {path!r}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _read_document(path: str, lint: bool) -> GraphDocument:
    doc = parse_document(_read_text(path))
    for w in doc.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if lint:
        for n in doc.graph.nodes:
            if doc.graph.degree[n] > 4:
                print(f"lint: node '{n}' has degree {doc.graph.degree[n]} > 4",
                      file=sys.stderr)
    return doc


def _parse_labels(text: str) -> tuple[str, ...]:
    if text in ("", "-"):
        return ()
    return tuple(text.split(","))


def _parse_assignment(text: str, flag: str) -> tuple[str, ...]:
    """The port labels of an assignment flag; none may repeat."""
    labels = _parse_labels(text)
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise KekulecError(f"duplicate label '{label}' in {flag}")
    return labels


def _emit(args, text_lines: list[str], json_obj) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands ---------------------------------------------------------------

def _cmd_states(args) -> int:
    doc = _read_document(args.graph, args.lint)
    states = enumerate_kekule_states(doc.graph, allow_large=args.allow_large)
    lines = [f"{len(states)} Kekulé states"]
    lines += [str(w) for w in states]
    pm = sum(1 for w in states if is_perfect_matching(doc.graph, w))
    lines.append(f"{pm} perfect matchings")
    _emit(args, lines, {
        "count": len(states),
        "perfect_matchings": pm,
        "states": [[list(e) for e in w.edges()] for w in states],
    })
    return 0


def _cmd_cell(args) -> int:
    doc = _read_document(args.graph, args.lint)
    cell = kekule_cell(doc.graph, allow_large=args.allow_large)
    ports = "{" + ",".join(cell.ports) + "}"
    lines = [f"ports: {ports}"] + cell.format_lines()
    _emit(args, lines, {
        "ports": list(cell.ports),
        "members": [list(k.labels()) for k in cell.members()],
    })
    return 0


def _cmd_semikekule(args) -> int:
    doc = _read_document(args.graph, args.lint)
    g = doc.graph
    basis = hsk_basis(g)
    r = len(basis)
    lines = [f"r = {r}"]
    lines += [f"cycle: {c}" for c in basis]
    lines.append(f"semi-Kekulé states per parity-correct assignment: {2 ** r}")
    out = {"r": r, "cycles": [[list(e) for e in c.edges()] for c in basis],
           "states_per_assignment": 2 ** r}
    if args.assignment is not None:
        a = Assignment.of(g.ports, _parse_assignment(args.assignment, "--assignment"))
        states = enumerate_semi_kekule(g, a)
        lines.append(f"assignment {a}: {len(states)} states")
        lines += [str(w) for w in states]
        out["assignment"] = list(a.labels())
        out["states"] = [[list(e) for e in w.edges()] for w in states]
    _emit(args, lines, out)
    return 0


def _cmd_channels(args) -> int:
    doc = _read_document(args.graph, args.lint)
    g = doc.graph
    cell = kekule_cell(g, allow_large=args.allow_large)
    if args.at is not None:
        at = cell.assignment(_parse_assignment(args.at, "--at"))
    elif doc.initial is not None:
        at = cell.assignment(doc.initial)
    else:
        members = cell.members()
        if not members:
            raise KekulecError("graph has no Kekulé state")
        at = members[0]
    if at not in cell:
        raise KekulecError(f"assignment {at} is not in the Kekulé cell")
    lines = [f"at {at}:"]
    rows = []
    for i, p in enumerate(g.ports):
        for q in g.ports[i + 1:]:
            open_ = is_open(cell, at, cell.assignment((p, q)))
            lines.append("{" + p + "," + q + "}: " + ("open" if open_ else "closed"))
            rows.append({"channel": [p, q], "open": open_})
    _emit(args, lines, {"at": list(at.labels()), "channels": rows})
    return 0


def _cmd_omni(args) -> int:
    doc = _read_document(args.graph, args.lint)
    g = doc.graph
    verdict = is_omniconjugated(g)
    eps = signature(g)
    space = 1 << (len(g.ports) - 1)  # either parity class; k >= 2 here
    # an omniconjugated graph realizes its whole parity class
    realized = space if verdict.omniconjugated else realized_assignment_count(g)
    lines = [f"omniconjugated: {'true' if verdict.omniconjugated else 'false'}",
             f"signature: {eps}",
             f"kekulé assignments: {realized}",
             f"parity space: {space}"]
    out = {"omniconjugated": verdict.omniconjugated, "signature": eps,
           "kekule_assignments": realized, "parity_space": space}
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
        out["witness"] = list(verdict.witness.labels())
    _emit(args, lines, out)
    return 0


def _cmd_classify(args) -> int:
    doc = _read_document(args.graph, args.lint)
    cell = kekule_cell(doc.graph, allow_large=args.allow_large)
    if not cell.masks:
        raise KekulecError("graph has no Kekulé state; nothing to classify")
    flexed = flex(cell)
    result = classify_cell(flexed)
    lines = ["ports: {" + ",".join(cell.ports) + "}",
             "flexible ports: {" + ",".join(flexible_ports(cell)) + "}"]
    out = {"ports": list(cell.ports),
           "flexible_ports": list(flexible_ports(cell)),
           "kekule": result.is_kekule}
    if result.is_kekule:
        lines.append(f"class: {result.tag}")
        lines.append(f"translation: {result.translation}")
        lines.append("template: " + dumps_document(to_document(result.template)))
        out.update({"class": result.tag,
                    "translation": list(result.translation.labels()),
                    "template": to_document(result.template)})
    else:
        lines.append("class: not a Kekulé cell")
        out["class"] = None
    _emit(args, lines, out)
    return 0


def _cmd_transform(args) -> int:
    doc = _read_document(args.graph, args.lint)
    g = doc.graph
    if args.merge:
        out_graph = merge_node(g, args.merge)
        op = f"merge {args.merge}"
    elif args.split:
        try:
            node, groups = args.split.split(":", 1)
            g1, g2 = groups.split("/", 1)
        except ValueError:
            print("usage error: --split expects node:nb1,nb2/nb3,...",
                  file=sys.stderr)
            return USAGE_ERROR
        out_graph = split_node(g, node, _parse_labels(g1), _parse_labels(g2))
        op = f"split {node}"
    elif args.subdivide:
        out_graph = subdivide_port_edge(g, args.subdivide)
        op = f"subdivide {args.subdivide}"
    elif args.translate:
        a = Assignment.of(g.ports, _parse_assignment(args.translate, "--translate"))
        out_graph = translate_graph(g, a)
        op = f"translate {a}"
    elif args.add_edge:
        labels = _parse_labels(args.add_edge)
        if len(labels) != 2:
            print("usage error: --add-edge expects u,v", file=sys.stderr)
            return USAGE_ERROR
        out_graph = add_internal_edge(g, *labels)
        op = f"add-edge {labels[0]}-{labels[1]}"
    elif args.glue:
        try:
            path, ports = args.glue.rsplit(":", 1)
            p_here, p_there = ports.split(",", 1)
        except ValueError:
            print("usage error: --glue expects other.json:p,q", file=sys.stderr)
            return USAGE_ERROR
        other = _read_document(path, args.lint)
        out_graph = glue_ports(g, p_here, other.graph, p_there)
        op = f"glue {p_here}+{p_there}"
    else:
        print("usage error: one transform flag required", file=sys.stderr)
        return USAGE_ERROR
    report = RewriteReport.diff(op, g, out_graph)
    document = to_document(out_graph)
    if args.format == "json":
        # the report's fields are strings and tuples, which json writes as
        # arrays; vars() skips the deep copy of dataclasses.asdict
        print(json.dumps({"document": document,
                          "report": vars(report)}, sort_keys=True))
    else:
        print(dumps_document(document))
        for line in report.format_lines():
            print(line, file=sys.stderr)
    return 0


def _cmd_builtin(args) -> int:
    if args.list or args.name is None:
        for name in builtin_names():
            print(name)
        return 0
    b = builtin(args.name)
    print(dumps_document(b.document()))
    return 0


# -- simulation ----------------------------------------------------------------

def _simulate_command(fc: FunctionalCell, line: str, out) -> tuple[bool, bool]:
    """Run one REPL command.  Returns (keep_going, refused_or_violated)."""
    parts = line.split()
    cmd, rest = parts[0], parts[1:]
    if cmd == "quit":
        return False, False
    if cmd == "state":
        print(fc.current, file=out)
        return True, False
    if cmd == "open":
        for name, open_ in fc.open_channels().items():
            print(f"{name}: {'open' if open_ else 'closed'}", file=out)
        return True, False
    if cmd == "signal" and len(rest) == 1:
        step = fc.signal(rest[0])
        if step.fired:
            print(f"signal {rest[0]}: fired -> {fc.current}", file=out)
            return True, False
        print(f"signal {rest[0]}: refused", file=out)
        return True, True
    if cmd == "socket" and len(rest) == 1:
        fired, _ = fc.signal_socket(rest[0])
        print(f"socket {rest[0]}: fired {fired} -> {fc.current}", file=out)
        return True, False
    if cmd == "reach":
        states = fc.reachable_states()
        print(f"{len(states)} reachable states", file=out)
        for s in states:
            print(str(s), file=out)
        return True, False
    if cmd == "reset":
        fc.reset()
        print(f"reset -> {fc.current}", file=out)
        return True, False
    if cmd == "trace" and len(rest) == 2 and rest[0] == "dump":
        try:
            fh = open(rest[1], "w", encoding="utf-8")
        except ValueError as exc:  # a NUL byte in the path
            raise OSError(f"{exc}: {rest[1]!r}") from None
        with fh:
            for step in fc.trace:
                if step.fired:
                    fh.write(f"signal {step.channel}\n")
                else:
                    fh.write(f"# refused {step.channel}\n")
        print(f"trace: {len(fc.trace)} steps written to {rest[1]}", file=out)
        return True, False
    raise _UnknownCommand(line)


class _UnknownCommand(Exception):
    pass


def _cmd_simulate(args) -> int:
    doc = _read_document(args.graph, args.lint)
    fc = FunctionalCell.from_graph(doc.graph, doc.channels, doc.sockets, doc.initial)
    refused = False
    if args.script:
        for raw in _read_text(args.script).splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            print(f"> {line}")
            try:
                keep, bad = _simulate_command(fc, line, sys.stdout)
            except _UnknownCommand:
                print(f"unknown command: {line}", file=sys.stderr)
                return USAGE_ERROR
            except OSError as exc:  # trace dump to an unwritable path
                print(f"file error: {exc}", file=sys.stderr)
                return USAGE_ERROR
            refused = refused or bad
            if not keep:
                break
        return DOMAIN_ERROR if refused else 0
    # interactive loop
    while True:
        try:
            sys.stdout.write("> ")
            sys.stdout.flush()
            raw = sys.stdin.readline()
        except KeyboardInterrupt:
            return 0
        except UnicodeDecodeError as exc:  # stdin decoded with errors="strict"
            print(f"file error: stdin: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if not raw:
            return 0
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            keep, _ = _simulate_command(fc, line, sys.stdout)
        except _UnknownCommand:
            print(f"unknown command: {line}")
            continue
        except KekulecError as exc:
            print(f"error: {exc}")
            continue
        except OSError as exc:
            print(f"file error: {exc}", file=sys.stderr)
            continue
        if not keep:
            return 0


def _cmd_verify(args) -> int:
    bounds = Bounds(max_edges=args.max_edges, random_count=args.random_count,
                    seed=args.seed)
    names = args.claims.split(",") if args.claims else None
    failed = False
    for result in run_claims(bounds, names):
        status = "PASS" if result.ok else "FAIL"
        print(f"{status} {result.claim}: {result.detail}")
        if not result.ok:
            failed = True
            if result.counterexample is not None:
                print("counterexample: " + dumps_document(result.counterexample))
    return DOMAIN_ERROR if failed else 0


# -- argument parsing -----------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, fmt: bool = True) -> None:
    p.add_argument("--lint", action="store_true",
                   help="warn on nodes of degree > 4 (chemical plausibility)")
    if fmt:
        p.add_argument("--format", choices=("text", "json"), default="text")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kekulec",
        description="Kekulé states, cells, and switching behaviour of finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("states", help="enumerate Kekulé states")
    p.add_argument("graph")
    p.add_argument("--allow-large", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_states)

    p = sub.add_parser("cell", help="compute the Kekulé cell")
    p.add_argument("graph")
    p.add_argument("--allow-large", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_cell)

    p = sub.add_parser("semikekule", help="GF(2) kernel and semi-Kekulé states")
    p.add_argument("graph")
    p.add_argument("--assignment", help="comma-separated port labels ('-' for empty)")
    _add_common(p)
    p.set_defaults(fn=_cmd_semikekule)

    p = sub.add_parser("channels", help="channel openness at a state")
    p.add_argument("graph")
    p.add_argument("--at", help="port assignment to probe (defaults to the "
                                "document initial or the first cell member)")
    p.add_argument("--allow-large", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_channels)

    p = sub.add_parser("omni", help="decide omniconjugation")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(fn=_cmd_omni)

    p = sub.add_parser("classify", help="classify the cell (<= 4 ports)")
    p.add_argument("graph")
    p.add_argument("--allow-large", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("transform", help="rewrite the graph")
    p.add_argument("graph")
    p.add_argument("--merge", metavar="U0")
    p.add_argument("--split", metavar="U:NB1,NB2/NB3")
    p.add_argument("--subdivide", metavar="PORT")
    p.add_argument("--translate", metavar="P1,P2")
    p.add_argument("--add-edge", metavar="U,V")
    p.add_argument("--glue", metavar="OTHER.JSON:P,Q")
    _add_common(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("simulate", help="switching REPL over a graph document")
    p.add_argument("graph")
    p.add_argument("--script", help="replay commands from a file, exit 1 on refusal")
    _add_common(p, fmt=False)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("builtin", help="emit a built-in graph document")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_builtin)

    p = sub.add_parser("verify", help="run the structural verification suites")
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--random-count", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--claims", help="comma-separated claim ids to run")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # so a reader that left early is caught here
        return code
    except SystemExit as exc:  # argparse usage errors and unreadable files
        return int(exc.code or 0)
    except KekulecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # interpreter exit does not fail again; nothing can reach it any more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
