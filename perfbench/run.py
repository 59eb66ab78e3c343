#!/usr/bin/env python3
"""Benchmark runner for kekulec: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (no install needed; ``src/`` is used):

    python3 perfbench/run.py --workload hex-cell --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

The load is a closed loop: one client, one process, no threads; each op waits
for the previous one.  A run first sets up (import kekulec, load the atlas,
generate the inputs) in this process and again in a few child processes, then
repeats passes over the workload's fixed batch of ops for ``--seconds``
(at least ``MIN_PASSES``).  Every op's output is checked outside the timed
region: structurally on the first pass, by digest on later passes, and
against the recorded golden digest when the seed has one.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object; a readable summary goes
to stderr and the per-op records to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3           # untraced passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2    # of each kind in a --trace 1 run
PER_OP_SAMPLES = 20      # batches this large sample each op once, as its median
SETUP_CHILDREN = 6       # extra set-ups in child processes, spread over the run
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"

# --trace 1 metrics: counts may be 0 on a workload that bypasses the layer;
# the times are layers every workload exercises.
PER_LAYER_COUNTS = [
    "kekule.enumerate_kekule_states.calls", "kekule.enumerate_kekule_states.states",
    "kekule.kekule_cell.calls", "kekule.kekule_cell.members",
    "kekule.has_kekule_state_for.calls", "kekule.kekule_states_for.calls",
    "kekule.alternating_path.calls",
    "graph.parse_document.calls", "graph.Graph.calls", "graph.cycle_basis.calls",
    "graph.curve_components.calls",
    "gf2.solve_affine.calls", "gf2.solve_affine.rows", "gf2.rank.calls",
    "cells.channel_decomposition.calls", "classify.classify_cell.calls",
    "transform.calls", "switch.signal.calls", "cli.main.calls",
]
PER_LAYER_TIMES = ["kekule.self_s", "graph.self_s", "cells.self_s", "op.self_s"]


def import_kekulec():
    """Import kekulec from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "kekulec" / "__init__.py").is_file():
        raise SystemExit(f"error: kekulec sources not found under {src}")
    sys.path.insert(0, str(src))
    import kekulec
    if Path(kekulec.__file__).resolve().parent != (src / "kekulec").resolve():
        raise SystemExit(f"error: imported kekulec from {kekulec.__file__}, not {src}")
    return kekulec


def setup(args):
    """Import, atlas load and input generation: everything before the first op."""
    t0 = time.perf_counter()
    K = import_kekulec()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        wl = workloads.build(args.workload, K, args.seed, args.scale,
                             args.known_defects, workdir)
    except BaseException:
        _remove_workdir(workdir)
        raise
    return K, wl, workdir, time.perf_counter() - t0


def _remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still uses it


def child_setup_time(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    if args.known_defects:
        cmd.append("--known-defects")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_pass(ops, tracer=None):
    """One timed pass over the batch; returns (wall, latencies, outputs, errors, counts)."""
    gc.collect()
    clock = time.perf_counter
    lat, outs, errs, counts = [], [], [], []
    start = clock()
    for op in ops:
        if tracer is not None:
            before = dict(tracer.counters)
            tracer.open_root()
        t0 = clock()
        try:
            out, err = op.run(), None
        except Exception as exc:  # op boundary: a raising op is a failed op
            out, err = None, type(exc).__name__
        dt = clock() - t0
        if tracer is not None:
            tracer.close_root(dt)
            counts.append({k: v - before[k] for k, v in tracer.counters.items() if v != before[k]})
        lat.append(dt)
        outs.append(out)
        errs.append(err)
    return clock() - start, lat, outs, errs, counts


def latency_samples(per_op_ms: list[list[float]]) -> tuple[list[float], int]:
    """Sorted latency samples and the tail percentile to read from them.

    A batch of at least PER_OP_SAMPLES ops yields one sample per op, the
    median of its passes, so that a burst of host noise in one pass does not
    reach the tail.  A smaller batch (atlas-verify's 15 claims) pools every
    pass instead.  The tail is the highest whole percentile with at least ten
    samples beyond it, counted at MIN_PASSES for pooled samples.
    """
    if len(per_op_ms) >= PER_OP_SAMPLES:
        samples, n = [statistics.median(ms) for ms in per_op_ms], len(per_op_ms)
    else:
        samples, n = [x for ms in per_op_ms for x in ms], len(per_op_ms) * MIN_PASSES
    return sorted(samples), max(50, math.floor(100 * (1 - 10 / n)))


def nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


class Verdicts:
    """Collects op failures and output-check problems across passes."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: dict[str, int] = {}

    def absorb(self, outs, errs) -> None:
        first = self.digests[0] is None
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if errs[i] is not None:
                self.failed += 1
                d = f"error:{errs[i]}"
                if errs[i] == op.known_defect:
                    self.known[errs[i]] = self.known.get(errs[i], 0) + 1
                elif first:
                    self.problems.append(f"{op.name}: raised {errs[i]}")
            else:
                d = digest(outs[i])
                problem = op.check(outs[i]) if first else None
                if problem is not None:
                    self.failed += 1
                    self.problems.append(f"{op.name}: {problem}")
            if first:
                self.digests[i] = d
            elif d != self.digests[i]:
                self.failed += 1
                self.problems.append(f"{op.name}: output changed between passes")

    def combined(self) -> str:
        lines = "\n".join(f"{op.name} {d}" for op, d in zip(self.ops, self.digests))
        return hashlib.sha256(lines.encode()).hexdigest()


def golden_key(args) -> str:
    return f"{args.workload}/{args.scale}/{args.seed}"


def check_golden(args, combined: str) -> str | None:
    if args.known_defects or not BASELINE.is_file():
        return None
    golden = json.loads(BASELINE.read_text()).get("golden", {})
    want = golden.get(golden_key(args))
    if want is not None and want != combined:
        return f"output digest {combined[:16]} differs from the recorded {want[:16]}"
    return None


def measure(args) -> int:
    K, wl, workdir, setup_s = setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, K, wl, [setup_s])
    finally:
        _remove_workdir(workdir)


def _measure(args, K, wl, setups) -> int:
    ops = wl.ops
    verdicts = Verdicts(ops)
    tracer = Tracer() if args.trace else None
    walls = {"U": [], "T": []}
    per_op_ms = [[] for _ in ops]
    snaps, op_counts = [], None
    elapsed = 0.0
    while True:
        nu, nt = len(walls["U"]), len(walls["T"])
        done_min = (nu >= MIN_TRACED_PASSES and nt >= MIN_TRACED_PASSES) if args.trace \
            else nu >= MIN_PASSES
        if done_min and elapsed + statistics.median(walls["U"] + walls["T"]) > args.seconds:
            break
        kind = "T" if args.trace and nt < nu else "U"
        if kind == "T":
            tracer.reset()
            tracer.install()
            try:
                wall, lat, outs, errs, counts = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            snaps.append(tracer.snapshot())
            if op_counts is None:
                op_counts = counts
            elif counts != op_counts:
                verdicts.problems.append("per-op work counts differ between traced passes")
        else:
            wall, lat, outs, errs, _ = run_pass(ops)
            for i, dt in enumerate(lat):
                per_op_ms[i].append(dt * 1e3)
        elapsed += wall
        walls[kind].append(wall)
        verdicts.absorb(outs, errs)
        del outs
        # the host's speed drifts over tens of seconds: spread the child
        # set-ups over the run instead of timing them back to back
        if elapsed >= (len(setups) - 1) * args.seconds / SETUP_CHILDREN:
            setups.append(child_setup_time(args))
    while len(setups) <= SETUP_CHILDREN:
        setups.append(child_setup_time(args))

    combined = verdicts.combined()
    golden = check_golden(args, combined)
    if golden:
        verdicts.problems.append(golden)
    lat_u, pct = latency_samples(per_op_ms)
    wall_u = statistics.median(walls["U"])
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "known_defects": args.known_defects,
        "ops": len(ops), "passes": {k: len(v) for k, v in walls.items()},
        "pass_walls_s": walls,
        "tail_percentile": pct, "setups_s": setups, "digest": combined,
        # per-op latency: measured and recorded, but host contention moves
        # these order statistics by 20-30% between runs, so not gated
        "latency": {"op_p50_ms": {"value": statistics.median(lat_u), "unit": "ms"},
                    "op_tail_ms": {"value": nearest_rank(lat_u, pct), "unit": "ms"}},
        "setup_notes": wl.setup_notes, "known_defect_failures": verdicts.known,
        "problems": verdicts.problems,
    }
    if args.trace:
        layer = _per_layer(snaps, walls, len(ops))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        record["trace"] = _trace_medians(snaps)
        record["trace"].update(wl.setup_notes)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_u, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    record["ops_detail"] = [
        {"name": op.name, "props": op.props, "digest": d,
         "median_ms": statistics.median(ms) if ms else None, "pass_ms": ms,
         **({"work": op_counts[i]} if op_counts else {})}
        for i, (op, d, ms) in enumerate(zip(ops, verdicts.digests, per_op_ms))]
    expected_failures = sum(verdicts.known.values())
    correct = not verdicts.problems and verdicts.failed == expected_failures
    result = {"correct": correct, "attempted": verdicts.attempted,
              "failed": verdicts.failed, "metrics": metrics}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    record_path(args, args.workload).write_text(json.dumps(record, indent=1, sort_keys=True))
    _summary(args, record, metrics)
    print(json.dumps(result))
    return 0


def record_path(args, workload: str) -> Path:
    tag = f"{workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    return OUT_DIR / (tag + ("-defects" if args.known_defects else "") + ".json")


def _per_layer(snaps, walls, n_ops) -> dict:
    first = snaps[0]
    out = {name: (first[name], "count") for name in PER_LAYER_COUNTS}
    out["kekule.has_kekule_state_for.hit_ratio"] = (
        first["kekule.has_kekule_state_for.hit_ratio"], "ratio")
    out["omni.probes_per_op"] = (first["omni.probes"] / n_ops, "count")
    for name in PER_LAYER_TIMES:
        out[name] = (statistics.median(s[name] for s in snaps), "s")
    traced = statistics.median(walls["T"])
    out["traced_wall_s"] = (traced, "s")
    out["trace_overhead_s"] = (traced - statistics.median(walls["U"]), "s")
    return out


def _trace_medians(snaps) -> dict:
    """Every traced key: counts from the first pass, times as the pass median."""
    out = {}
    for key in sorted(snaps[0]):
        if key.endswith("_s"):
            out[key] = statistics.median(s[key] for s in snaps)
        else:
            out[key] = snaps[0][key]
    return out


def _summary(args, record, metrics) -> None:
    err = sys.stderr
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"ops/pass={record['ops']} passes={record['passes']} "
          f"tail=p{record['tail_percentile']}", file=err)
    res = record["result"]
    print(f"# attempted={res['attempted']} failed={res['failed']} "
          f"fail_frac={res['failed'] / res['attempted']:.4f} correct={res['correct']}",
          file=err)
    for name, defect_count in sorted(record["known_defect_failures"].items()):
        print(f"# known defect {name} ({workloads.KNOWN_DEFECTS[name]}): "
              f"{defect_count} failed ops", file=err)
    for problem in record["problems"][:20]:
        print(f"# PROBLEM {problem}", file=err)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}", file=err)
    for name, m in record["latency"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']} (not gated)", file=err)


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        if args.known_defects:
            cmd.append("--known-defects")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        rows.append((name, json.loads(record_path(args, name).read_text())))
    for name, record in rows:
        result = record["result"]
        frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={frac:.4f} "
              f"ops/pass={record['ops']} tail=p{record['tail_percentile']}")
        for metric, m in {**result["metrics"], **record["latency"]}.items():
            print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few small inputs per workload, for the smoke test")
    p.add_argument("--known-defects", action="store_true",
                   help="add the inputs that trip the known defects (ops then fail)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
