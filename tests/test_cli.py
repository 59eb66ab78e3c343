import argparse
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kekulec import KekulecError, builtin, dumps_document, kekule_cell, to_document
from kekulec.builtins import PARAMETRIC_EDGE_CAP, builtin_names
from kekulec.cli import build_parser, main


@pytest.fixture()
def graph_file(tmp_path):
    def write(name, text=None):
        path = tmp_path / f"{name}.json"
        if text is None:
            text = dumps_document(builtin(name).document())
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_states_phenantrene(graph_file, capsys):
    path = graph_file("phenantrene")
    code, out, _ = run(capsys, "states", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5 Kekulé states"
    assert lines[-1] == "5 perfect matchings"
    assert len(lines) == 7


def test_cell_golden_output(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "cell", path)
    assert code == 0
    assert out.splitlines() == ["ports: {p0,p1,p2}", "{}", "{p0,p1}", "{p1,p2}"]


def test_output_is_byte_identical(graph_file, capsys):
    path = graph_file("splitter-indene")
    _, first, _ = run(capsys, "cell", path)
    _, second, _ = run(capsys, "cell", path)
    assert first == second


def test_cell_json_format(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "cell", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [[], ["p0", "p1"], ["p1", "p2"]]


def test_semikekule_output(graph_file, capsys):
    path = graph_file("phenantrene")
    code, out, _ = run(capsys, "semikekule", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r = 3"
    assert lines[-1] == "semi-Kekulé states per parity-correct assignment: 8"


def test_semikekule_with_assignment(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "semikekule", path, "--assignment", "p0,p2")
    assert code == 0
    assert "assignment {p0,p2}: 1 states" in out


def test_channels_report(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "channels", path)
    assert code == 0
    assert out.splitlines() == ["at {}:", "{p0,p1}: open", "{p0,p2}: closed",
                                "{p1,p2}: open"]


def test_omni_delta3(graph_file, capsys):
    path = graph_file("delta3")
    code, out, _ = run(capsys, "omni", path)
    assert code == 0
    assert out.splitlines()[0] == "omniconjugated: true"


def test_omni_witness(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "omni", path)
    assert code == 0
    assert "witness: {p0,p2}" in out


def test_omni_golden_output(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "omni", path)
    assert code == 0
    assert out.splitlines() == ["omniconjugated: false", "signature: 0",
                                "kekulé assignments: 3", "parity space: 4",
                                "witness: {p0,p2}"]
    code, out, _ = run(capsys, "omni", path, "--format", "json")
    assert out == ('{"kekule_assignments": 3, "omniconjugated": false, "parity_space": 4, '
                   '"signature": 0, "witness": ["p0", "p2"]}\n')


@pytest.mark.parametrize("name", [n for n in builtin_names() + ["a7", "delta6"]
                                  if "<" not in n and len(builtin(n).graph.ports) >= 2])
def test_omni_counts_the_cell(graph_file, capsys, name):
    # an omniconjugated graph prints its parity space without counting; the
    # count must still be the size of the cell
    g = builtin(name).graph
    code, out, _ = run(capsys, "omni", graph_file(name), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kekule_assignments"] == len(kekule_cell(g, allow_large=True))
    assert data["omniconjugated"] == (data["kekule_assignments"] == data["parity_space"])


def test_classify_ethene(graph_file, capsys):
    path = graph_file("ethene3")
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert "class: k1-star" in out
    assert "translation: {p1}" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "cell", "missing.json")
    assert code == 2
    assert "file error" in err


def test_scale_refusal_names_the_cli_flag(graph_file, capsys):
    path = graph_file("delta12")
    code, out, err = run(capsys, "cell", path)
    assert (code, out) == (1, "")
    assert err == ("error: state count bound 2^55 exceeds 2^24; pass allow_large=True, "
                   "or --allow-large where the command has it, to override\n")
    code, out, _ = run(capsys, "cell", path, "--allow-large")
    assert code == 0 and len(out.splitlines()) == 1 + 2048


def test_cell_refuses_delta30_past_the_member_bound(graph_file, capsys):
    # the 2^29 members of Delta_30's cell pass the member bound, which
    # --allow-large does not lift: one error line, no traceback
    path = graph_file("delta30")
    code, out, err = run(capsys, "cell", path, "--allow-large")
    assert (code, out) == (1, "")
    assert err == ("error: cell of at least 536870912 members exceeds 2^20; "
                   "allow_large does not lift this bound\n")


def test_cell_refuses_a_caterpillar_past_the_dp_budget(graph_file, capsys):
    # a 13-node path with two pendant ports on each node: cycle rank 0, but
    # the DP gives up, and the scan of the parity class of its 26 ports would
    # take 2^25 probes
    edges = ([[f"s{i:02d}", f"s{i + 1:02d}"] for i in range(12)]
             + [[f"p{i:02d}{side}", f"s{i:02d}"] for i in range(13) for side in "ab"])
    path = graph_file("caterpillar13", text=json.dumps({"edges": edges}))
    code, out, err = run(capsys, "cell", path)
    assert (code, out) == (1, "")
    assert err == ("error: cell search bound 2^25 probes exceeds 2^24; pass "
                   "allow_large=True, or --allow-large where the command has it, to override\n")


def test_parse_error_is_domain_error(graph_file, capsys):
    path = graph_file("bad", text='{"edges": [["a", "a"]]}')
    code, _, err = run(capsys, "cell", path)
    assert code == 1
    assert "self-loop" in err


def test_unknown_key_warning_on_stderr(graph_file, capsys):
    path = graph_file("warned", text='{"edges": [["a", "b"]], "color": 1}')
    code, out, err = run(capsys, "cell", path)
    assert code == 0
    assert "unknown key 'color'" in err
    assert "color" not in out


def test_lint_flag(graph_file, capsys):
    path = graph_file("delta5")
    code, _, err = run(capsys, "cell", path, "--lint")
    assert code == 0
    assert "degree 5 > 4" in err


def test_transform_merge(graph_file, capsys, tmp_path):
    path = graph_file("a5")
    code, out, err = run(capsys, "transform", path, "--merge", "a3")
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [["a1", "a2"], ["a2", "a5"]]
    assert "operation: merge a3" in err


def test_transform_split_round_trip(graph_file, capsys):
    path = graph_file("b")
    code, out, _ = run(capsys, "transform", path, "--split", "a3:a2/a4,a5")
    assert code == 0
    assert json.loads(out)["edges"]


def test_transform_translate(graph_file, capsys):
    path = graph_file("house5")
    code, out, _ = run(capsys, "transform", path, "--translate", "n1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["operation"] == "translate {n1}"


def test_transform_glue(graph_file, capsys):
    left = graph_file("delta3")
    right = graph_file("a2", text='{"edges": [["qa", "qb"]]}')
    code, out, _ = run(capsys, "transform", left, "--glue", f"{right}:p1,qa")
    assert code == 0
    assert "qb" in out


def test_transform_requires_one_flag(graph_file, capsys):
    path = graph_file("a5")
    code, _, err = run(capsys, "transform", path)
    assert code == 2
    assert "usage error" in err


def test_transform_subdivide(graph_file, capsys):
    code, out, err = run(capsys, "transform", graph_file("a3"), "--subdivide", "a1")
    assert code == 0
    assert json.loads(out)["edges"] == [["a1", "a1#1"], ["a1#1", "a2"], ["a2", "a3"]]
    assert err.splitlines()[:2] == ["operation: subdivide a1", "removed nodes: -"]


@pytest.mark.parametrize("flag, value, message", [
    ("--split", "a2", "usage error: --split expects node:nb1,nb2/nb3,..."),
    ("--split", "a2:a1", "usage error: --split expects node:nb1,nb2/nb3,..."),
    ("--add-edge", "a1", "usage error: --add-edge expects u,v"),
    ("--add-edge", "a1,a2,a3", "usage error: --add-edge expects u,v"),
    ("--glue", "other.json", "usage error: --glue expects other.json:p,q"),
    ("--glue", "other.json:p", "usage error: --glue expects other.json:p,q"),
])
def test_transform_malformed_flag_is_usage_error(graph_file, capsys, flag, value, message):
    code, out, err = run(capsys, "transform", graph_file("a3"), flag, value)
    assert (code, out, err) == (2, "", message + "\n")


def test_builtin_list(capsys):
    code, out, _ = run(capsys, "builtin", "--list")
    assert code == 0
    assert "ycell-pyracylene" in out.splitlines()


def test_builtin_emits_document(capsys):
    code, out, _ = run(capsys, "builtin", "ethene3")
    assert code == 0
    doc = json.loads(out)
    assert doc["channels"] == {"A": ["p0", "p1"], "T": ["p0", "p2"]}


def test_builtin_unknown_name(capsys):
    code, _, err = run(capsys, "builtin", "nosuch")
    assert code == 1
    assert "unknown builtin" in err


def test_simulate_script_clean_run(graph_file, capsys, tmp_path):
    path = graph_file("ycell-tree")
    script = tmp_path / "walk.txt"
    script.write_text("state\nopen\nsocket AB\nsignal T\nreach\nquit\n")
    code, out, _ = run(capsys, "simulate", path, "--script", str(script))
    assert code == 0
    assert "socket AB: fired A" in out
    assert "4 reachable states" in out


def test_simulate_script_refusal_exits_nonzero(graph_file, capsys, tmp_path):
    path = graph_file("ethene3")
    script = tmp_path / "walk.txt"
    script.write_text("signal T\n")
    code, out, _ = run(capsys, "simulate", path, "--script", str(script))
    assert code == 1
    assert "signal T: refused" in out


def test_simulate_script_unknown_command(graph_file, capsys, tmp_path):
    path = graph_file("ethene3")
    script = tmp_path / "walk.txt"
    script.write_text("explode\n")
    code, _, err = run(capsys, "simulate", path, "--script", str(script))
    assert code == 2
    assert "unknown command" in err


def test_simulate_trace_dump_replays(graph_file, capsys, tmp_path):
    path = graph_file("ethene3")
    dump = tmp_path / "trace.txt"
    script = tmp_path / "walk.txt"
    script.write_text(f"signal A\nsignal T\ntrace dump {dump}\nquit\n")
    code, out, _ = run(capsys, "simulate", path, "--script", str(script))
    assert code == 0
    assert dump.read_text().splitlines() == ["signal A", "signal T"]
    code, out, _ = run(capsys, "simulate", path, "--script", str(dump))
    assert code == 0


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "omni-families")
    assert code == 0
    assert out.startswith("PASS omni-families:")


def test_verify_reports_a_failed_claim(capsys, monkeypatch):
    from kekulec import Graph, verify

    def fails(bounds):
        return verify._fail("omni-paths", "forced failure", Graph([("p", "q")]))

    claims = [(name, fails if name == "omni-paths" else fn) for name, fn in verify.CLAIMS]
    monkeypatch.setattr(verify, "CLAIMS", claims)
    code, out, _ = run(capsys, "verify", "--claims", "omni-families,omni-paths")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["FAIL omni-paths: forced failure",
                         'counterexample: {"edges": [["p", "q"]]}']
    assert len(lines) == 3 and lines[2].startswith("PASS omni-families:")


def test_verify_does_not_import_networkx():
    # the atlas is a table in smallgraphs, so verify runs without networkx
    import subprocess
    import sys
    script = ("import sys\n"
              "from kekulec import cli\n"
              "code = cli.main(['verify', '--claims', 'merge-split-invariance'])\n"
              "print(code, 'networkx' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("PASS merge-split-invariance:")
    assert lines[-1] == "0 False"


def test_verify_respects_max_edges(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "openness-path-equivalence",
                       "--max-edges", "6")
    assert code == 0
    assert "PASS openness-path-equivalence" in out


def test_main_reuses_one_parser(monkeypatch, capsys):
    from kekulec import cli
    built = []
    real = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    cli.build_parser()  # built at most once before counting starts
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "builtin", "--list")[0] == 0
    assert run(capsys, "builtin", "ethene3")[0] == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, message", [
    (["--max-edges", "0"], "max_edges must be at least 2"),
    (["--max-edges", "1"], "max_edges must be at least 2"),
    (["--random-count", "-1"], "random_count must be at least 0"),
    (["--claims", "nope"], "unknown claim 'nope'; available: state-difference-curves, "),
    (["--claims", "parity-law,nope"], "unknown claim 'nope'"),
])
def test_verify_rejects_bad_bounds_and_claims(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message)
    assert len(err.splitlines()) == 1


def test_simulate_script_trace_dump_to_unwritable_path(graph_file, capsys, tmp_path):
    path = graph_file("ethene3")
    script = tmp_path / "walk.txt"
    target = tmp_path / "missing" / "trace.txt"
    script.write_text(f"signal A\ntrace dump {target}\nstate\n")
    code, out, err = run(capsys, "simulate", path, "--script", str(script))
    assert code == 2
    assert err.startswith("file error: ")
    assert out.splitlines()[-1] == f"> trace dump {target}"


def test_simulate_interactive_trace_dump_to_unwritable_path(graph_file, tmp_path):
    import subprocess
    import sys
    path = graph_file("ethene3")
    target = tmp_path / "missing" / "trace.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "kekulec", "simulate", path],
        input=f"signal A\ntrace dump {target}\nstate\nquit\n",
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.startswith("file error: ")
    assert "Traceback" not in proc.stderr
    assert "> {p0,p1}" in proc.stdout


def test_simulate_interactive_over_pipe(graph_file):
    import subprocess
    import sys
    path = graph_file("ethene3")
    proc = subprocess.run(
        [sys.executable, "-m", "kekulec", "simulate", path],
        input="state\nsignal A\nbogus\nsignal T\nquit\n",
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "signal A: fired -> {p0,p1}" in proc.stdout
    assert "unknown command: bogus" in proc.stdout
    assert "signal T: fired -> {p1,p2}" in proc.stdout


def test_simulate_interactive_eof_exits_cleanly(graph_file):
    import subprocess
    import sys
    path = graph_file("ycell-tree")
    proc = subprocess.run(
        [sys.executable, "-m", "kekulec", "simulate", path],
        input="", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0


def test_reader_closing_the_pipe_early_ends_without_a_traceback(graph_file):
    import subprocess
    import sys
    # the cell of delta14 is 8,193 lines, about 200 kB: more than a pipe
    # holds, so the child is still writing when the reader goes
    path = graph_file("delta14")
    proc = subprocess.Popen(
        [sys.executable, "-m", "kekulec", "cell", "--allow-large", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("ports: {")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_channels_at_non_member_is_domain_error(graph_file, capsys):
    path = graph_file("ethene3")
    code, _, err = run(capsys, "channels", path, "--at", "p0,p2")
    assert code == 1
    assert "not in the Kekulé cell" in err


def test_classify_four_port_template_realizes_input(graph_file, capsys):
    path = graph_file("lemma2-k3")
    code, out, _ = run(capsys, "classify", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "k3"
    assert payload["kekule"] is True
    assert payload["template"]["edges"]


@pytest.mark.parametrize("key", ["channels", "sockets"])
def test_non_object_named_pairs_are_domain_errors(graph_file, capsys, key):
    text = json.dumps({"edges": [["p0", "u"], ["u", "v"], ["v", "p1"]], key: [1]})
    path = graph_file("bad", text)
    code, out, err = run(capsys, "cell", path)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: '{key}' must be an object of named pairs"]


def test_cell_on_a_long_path(graph_file, capsys):
    text = json.dumps({"edges": [[f"n{i:04d}", f"n{i + 1:04d}"] for i in range(3000)]})
    code, out, _ = run(capsys, "cell", graph_file("path3000", text))
    assert code == 0
    assert out.splitlines() == ["ports: {n0000,n3000}", "{n0000}", "{n3000}"]


@pytest.mark.parametrize("edge", ["ab", {"x": "u", "y": "v"}])
def test_non_list_edge_is_domain_error(graph_file, capsys, edge):
    path = graph_file("bad", json.dumps({"edges": [edge]}))
    code, out, err = run(capsys, "cell", path)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: malformed edge {edge!r}"]


def test_simulate_script_without_kekule_state(graph_file, capsys, tmp_path,
                                              no_state_graph):
    path = graph_file("nostate", dumps_document(to_document(no_state_graph)))
    script = tmp_path / "walk.txt"
    script.write_text("state\nquit\n")
    code, out, err = run(capsys, "simulate", path, "--script", str(script))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: graph has no Kekulé state"]


@pytest.mark.parametrize("command, message", [
    ("channels", "error: graph has no Kekulé state"),
    ("classify", "error: graph has no Kekulé state; nothing to classify"),
])
def test_command_without_kekule_state_is_domain_error(graph_file, capsys, no_state_graph,
                                                      command, message):
    path = graph_file("nostate", dumps_document(to_document(no_state_graph)))
    code, out, err = run(capsys, command, path)
    assert (code, out, err) == (1, "", message + "\n")


# a malformed value or a label as long as its document is cut to an excerpt
# in its one line
LONG = "x" * 200_000
LONG_MALFORMED = {
    "label": ({"edges": [["a", [1] * 200_000]]},
              "error: malformed label [1, 1, 1, ", "...\n"),
    "initial": ({"edges": [["a", "b"], ["b", "c"]], "initial": [1] * 100_000},
                "error: malformed initial assignment [1, 1, 1, ", "...\n"),
    "channel": ({"edges": [["a", "b"], ["b", "c"]], "channels": {"x": ["a"] * 100_000}},
                "error: malformed channel 'x' ['a', 'a', 'a', ", "...\n"),
    "self-loop": ({"edges": [[LONG, LONG]]}, "error: self-loop at node 'xxx", "...'\n"),
    "duplicate": ({"edges": [["a", LONG], [LONG, "a"]]},
                  "error: duplicate edge a-xxx", "...\n"),
    "channel name": ({"edges": [["a", "b"], ["b", "c"]], "channels": {LONG: ["a"]}},
                     "error: malformed channel 'xxx", "...' ['a']\n"),
}


@pytest.mark.parametrize("name", LONG_MALFORMED)
def test_long_malformed_value_is_one_short_line(graph_file, capsys, name):
    document, start, end = LONG_MALFORMED[name]
    text = json.dumps(document, separators=(",", ":"))
    assert len(text) >= 200_000
    code, out, err = run(capsys, "cell", graph_file("long", text))
    assert (code, out) == (1, "")
    assert err.startswith(start) and err.endswith(end)
    assert len(err.splitlines()) == 1 and len(err) < 200


@pytest.mark.parametrize("command", [["cell"], ["transform", "--glue", "<bad>:p0,p1"]])
def test_undecodable_document_is_usage_error(graph_file, capsys, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"edges": [["p0", "\xff"]]}')
    argv = [command[0], graph_file("ethene3") if len(command) > 1 else str(bad)]
    argv += [a.replace("<bad>", str(bad)) for a in command[1:]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("file error: 'utf-8' codec can't decode byte 0xff")
    assert err.rstrip().endswith(repr(str(bad)))


def test_undecodable_simulate_script_is_usage_error(graph_file, capsys, tmp_path):
    script = tmp_path / "walk.txt"
    script.write_bytes(b"signal A\n\xff\n")
    code, out, err = run(capsys, "simulate", graph_file("ethene3"), "--script", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("file error: ")


def test_simulate_script_trace_dump_to_a_path_with_nul(graph_file, capsys, tmp_path):
    script = tmp_path / "walk.txt"
    script.write_text("signal A\ntrace dump a\0b\nstate\n")
    code, out, err = run(capsys, "simulate", graph_file("ethene3"), "--script", str(script))
    assert code == 2
    assert err.splitlines() == ["file error: embedded null byte: 'a\\x00b'"]
    assert out.splitlines()[-1] == "> trace dump a\0b"


def test_simulate_interactive_trace_dump_to_a_path_with_nul(graph_file, capsys,
                                                             monkeypatch):
    path = graph_file("ethene3")
    monkeypatch.setattr("sys.stdin", io.StringIO("signal A\ntrace dump a\0b\nstate\n"))
    code, out, err = run(capsys, "simulate", path)
    assert code == 0
    assert err.splitlines() == ["file error: embedded null byte: 'a\\x00b'"]
    assert "> {p0,p1}" in out


def test_simulate_interactive_undecodable_stdin(graph_file, capsys, monkeypatch):
    path = graph_file("ethene3")
    stdin = io.TextIOWrapper(io.BytesIO(b"state\n\xff\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, "simulate", path)
    assert code == 2
    assert err.startswith("file error: stdin: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("name", ["a3000", "a10001", "delta6", "delta140"])
def test_large_parametric_builtins_within_the_cap(capsys, name):
    code, out, _ = run(capsys, "builtin", name)
    assert code == 0
    assert 0 < len(json.loads(out)["edges"]) <= PARAMETRIC_EDGE_CAP


@pytest.mark.parametrize("name", ["a10002", "a" + "9" * 5000, "delta141", "delta800",
                                  "delta" + "1" * 30])
def test_oversized_parametric_builtins_are_domain_errors(capsys, name):
    code, out, err = run(capsys, "builtin", name)
    assert code == 1
    assert out == ""
    family = "delta" if name.startswith("delta") else "a"
    assert err.splitlines() == [f"error: builtin {family}<n> is limited to "
                                f"{PARAMETRIC_EDGE_CAP} edges"]
    with pytest.raises(KekulecError, match="limited to"):
        builtin(name)



@pytest.mark.parametrize("name", ["a\u0663", "delta\u0663", "a\uff13", "delta\u09ea"])
def test_parametric_builtins_take_ascii_digits_only(capsys, name):
    code, out, err = run(capsys, "builtin", name)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: unknown builtin '{name}'")
    with pytest.raises(KekulecError, match="unknown builtin"):
        builtin(name)


@pytest.mark.parametrize("command, flag", [
    ("transform", "--translate"), ("channels", "--at"), ("semikekule", "--assignment")])
def test_assignment_flags_refuse_a_repeated_label(graph_file, capsys, command, flag):
    path = graph_file("ethene3")
    code, out, err = run(capsys, command, path, flag, "p0,p0")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: duplicate label 'p0' in {flag}"]


def test_add_edge_with_equal_ends_keeps_its_message(graph_file, capsys):
    path = graph_file("ethene3")
    code, _, err = run(capsys, "transform", path, "--add-edge", "u,u")
    assert code == 1
    assert err.splitlines() == ["error: endpoints must differ"]


# -- no input produces a traceback ------------------------------------------------

_LABELS = st.sampled_from(["a", "b", "c", "p", "q", "u", "v"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | _LABELS | st.just(""),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_LABELS, inner, max_size=3)),
    max_leaves=6)
_PAIR = st.lists(_LABELS, min_size=2, max_size=2, unique=True)
_EDGES = st.lists(_PAIR, min_size=1, max_size=7, unique_by=lambda e: frozenset(e))
_OBJECTS = st.fixed_dictionaries(
    {"edges": _EDGES | st.lists(_PAIR | _JSON, min_size=1, max_size=4)},
    optional={"channels": st.dictionaries(_LABELS, _PAIR, max_size=3) | _JSON,
              "sockets": st.dictionaries(_LABELS, _PAIR, max_size=2) | _JSON,
              "initial": st.lists(_LABELS, max_size=3, unique=True) | _JSON})
_DOCUMENTS = st.integers(0, 3).flatmap(lambda i: _OBJECTS if i else _JSON)
_SCRIPT = "state\nopen\nreach\nsignal a\nsocket a\nreset\nstate\nquit\n"
_COMMANDS = [
    ["states"], ["cell"], ["channels"], ["channels", "--at", "a,b"], ["omni"],
    ["classify"], ["semikekule"], ["semikekule", "--assignment", "a,p"],
    ["transform", "--translate", "a"], ["transform", "--merge", "u"],
    ["transform", "--split", "u:a/b"], ["transform", "--subdivide", "p"],
    ["transform", "--add-edge", "u,v"], ["simulate", "--script", "<script>"],
]


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_DOCUMENTS, command=st.sampled_from(_COMMANDS))
def test_no_document_raises_out_of_main(tmp_path, capsys, document, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    script = tmp_path / "script.txt"
    script.write_text(_SCRIPT, encoding="utf-8")
    argv = [command[0], str(path)]
    argv += [str(script) if a == "<script>" else a for a in command[1:]]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1 and command[0] != "simulate":
        assert err.splitlines()[-1].startswith("error: ")


def _splice(document, at, junk):
    text = json.dumps(document).encode()
    return text[:at] + junk + text[at:]


# arbitrary bytes, and JSON documents with a few arbitrary bytes spliced in
_BYTES = st.binary(max_size=80) | st.builds(
    _splice, _DOCUMENTS, st.integers(0, 120), st.binary(min_size=1, max_size=4))


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_BYTES, command=st.sampled_from(_COMMANDS))
def test_no_document_bytes_raise_out_of_main(tmp_path, capsys, data, command):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    script = tmp_path / "script.txt"
    script.write_text(_SCRIPT, encoding="utf-8")
    argv = [command[0], str(path)]
    argv += [str(script) if a == "<script>" else a for a in command[1:]]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 2 and command[0] != "simulate":
        assert err.splitlines()[-1].startswith(("file error: ", "usage error: "))


_WORDS = st.sampled_from(["signal", "socket", "trace", "dump", "state", "open",
                          "reach", "reset", "quit", "A", "B", "AB", "S", "T", "p0",
                          "#", "t.txt", "missing/t.txt", "a\0b", ""])
_COMMAND_LINES = st.sampled_from(["signal A", "signal T", "socket AB", "open", "reach",
                                  "trace dump t.txt", "trace dump missing/t.txt",
                                  "trace dump a\0b", "reset", "state"])
_LINES = st.lists(_COMMAND_LINES | st.lists(_WORDS, max_size=4).map(" ".join)
                  | st.text(max_size=12), max_size=8)


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["ethene3", "splitter-indene"]), lines=_LINES)
def test_no_stdin_line_raises_out_of_simulate(graph_file, capsys, monkeypatch, tmp_path,
                                              name, lines):
    monkeypatch.chdir(tmp_path)  # `trace dump` writes relative paths here
    path = graph_file(name)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, _, _ = run(capsys, "simulate", path)
    assert code in (0, 1, 2)


# argv drawn from the real parser: a subcommand, its positional, some of its
# options with values that mostly fit them, and now and then arbitrary tokens;
# or arbitrary tokens alone.  File names are relative to the test's directory.
_PARSER = build_parser()
(_SUBPARSERS,) = [a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]
_ARGV_JUNK = st.text(max_size=10) | st.sampled_from(
    sorted(_SUBPARSERS.choices)
    + sorted({o for p in _SUBPARSERS.choices.values() for a in p._actions
              for o in a.option_strings})
    + ["not-utf8.json", "missing.json", ".", "-", "", "--", "99999999999"])
_ARGV_DOCUMENTS = ("ethene3", "splitter-indene", "house5")
_ARGV_POSITIONALS = {
    "graph": st.sampled_from([f"{name}.json" for name in _ARGV_DOCUMENTS]),
    "name": st.sampled_from(builtin_names() + ["a5", "delta4", "a1", "nope"]),
}
_ARGV_LABELS = st.sampled_from(["p0,p2", "p0,p1,p2", "p1", "p0,p0", "a,b", "-", "", "u",
                                "u:p0/p2", "u:p0,v/p1", "u:a/b", "u,v", "p0,u", "v,u",
                                "ethene3.json:p0,p1", "script.txt", "not-utf8.json:p0",
                                "omni-families,parity-law", "nope"])


def _option_argv(action):
    flag = st.sampled_from(action.option_strings)
    if action.nargs == 0:
        return flag.map(lambda f: [f])
    if action.choices:
        value = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        value = st.integers(-3, 12).map(str)
    else:
        value = _ARGV_LABELS
    return st.tuples(flag, value | _ARGV_JUNK).map(list)


def _command_argv(command):
    sub = _SUBPARSERS.choices[command]
    positionals = [st.lists(_ARGV_POSITIONALS[a.dest], min_size=1, max_size=1)
                   for a in sub._actions if not a.option_strings]
    actions = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    parts = [st.just([command]), *positionals,
             st.lists(st.one_of([_option_argv(a) for a in actions]), max_size=3)
             .map(lambda opts: sum(opts, [])),
             st.sampled_from([0, 0, 0, 1, 2]).flatmap(
                 lambda n: st.lists(_ARGV_JUNK, min_size=n, max_size=n))]
    return st.tuples(*parts).map(lambda ps: sum(ps, []))


_ARGV = (st.sampled_from(sorted(_SUBPARSERS.choices)).flatmap(_command_argv)
         | st.lists(_ARGV_JUNK, max_size=6))


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV, max_edges=st.integers(2, 4), random_count=st.integers(0, 2))
def test_no_argv_raises_out_of_main(graph_file, capsys, monkeypatch, tmp_path,
                                    argv, max_edges, random_count):
    monkeypatch.chdir(tmp_path)
    for name in _ARGV_DOCUMENTS:
        graph_file(name)
    (tmp_path / "script.txt").write_text(_SCRIPT, encoding="utf-8")
    (tmp_path / "not-utf8.json").write_bytes(b"\xff{}")
    monkeypatch.setattr("sys.stdin", io.StringIO(_SCRIPT))  # the interactive loop
    if next((t for t in argv if not t.startswith("-")), None) == "verify":
        # the last occurrence wins: every claim stays within tiny universes
        argv += ["--max-edges", str(max_edges), "--random-count", str(random_count)]
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 2)


# nesting past the decoder's recursion and an integer literal past Python's
# int-string digit limit, each with its one line; malformed JSON keeps its text
PATHOLOGICAL_JSON = {
    "deep-array": ("[" * 100_000, "error: JSON nests too deeply to parse"),
    "deep-unknown-key": ('{"edges": [["p0", "p1"]], "x": ' + "[" * 2000 + "]" * 2000 + "}",
                         "error: JSON nests too deeply to parse"),
    "long-int": ('{"edges": [["p0", "p1"]], "x": ' + "7" * 5000 + "}",
                 "error: JSON integer literal has too many digits to parse"),
    "malformed": ("{nope", "error: invalid JSON: Expecting property name enclosed in "
                  "double quotes: line 1 column 2 (char 1)"),
}


@pytest.mark.parametrize("name", PATHOLOGICAL_JSON)
@pytest.mark.parametrize("command", [["cell"], ["transform", "--glue", "<bad>:p0,p1"]])
def test_pathological_json_is_one_line_error(graph_file, capsys, tmp_path, command, name):
    text, message = PATHOLOGICAL_JSON[name]
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    argv = [command[0], graph_file("ethene3") if len(command) > 1 else str(bad)]
    argv += [a.replace("<bad>", str(bad)) for a in command[1:]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("name", ["deep-array", "long-int"])
def test_pathological_json_in_a_child_process(tmp_path, name):
    import subprocess
    import sys
    text, message = PATHOLOGICAL_JSON[name]
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "kekulec", "cell", str(bad)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")
