#!/usr/bin/env python3
"""Smoke and determinism test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that a run passes its output checks, fails no
op, and prints exactly the metric names and units recorded in BENCHMARK.json
(end-to-end with --trace 0, per-layer with --trace 1); that two traced runs of
one seed repeat every work count exactly; that --known-defects fails only the
named known defects; and that the runner refuses to run, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def run(cwd: Path, workload: str, trace: int, defects: bool = False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if defects:
        cmd.append("--known-defects")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def record(workload: str, trace: int, defects: bool = False) -> dict:
    tag = f"{workload}-tiny-seed3-trace{trace}" + ("-defects" if defects else "")
    return json.loads((OUT_DIR / f"{tag}.json").read_text())


def counts(rec: dict) -> tuple:
    trace = {k: v for k, v in rec["trace"].items() if not k.endswith("_s")}
    return trace, [op.get("work") for op in rec["ops_detail"]]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            res = result_of(run(ROOT, w, trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"] or res["failed"]:
                failures.append(f"{w} trace={trace}: correct={res['correct']} failed={res['failed']}")
            if got != want[trace]:
                failures.append(f"{w} trace={trace}: metrics {sorted(got)} != BENCHMARK.json")
            if any(not isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                failures.append(f"{w} trace={trace}: non-numeric metric value")
        first = counts(record(w, 1))
        result_of(run(ROOT, w, 1))
        if counts(record(w, 1)) != first:
            failures.append(f"{w}: work counts differ between two traced runs of one seed")
        res = result_of(run(ROOT, w, 0, defects=True))
        rec = record(w, 0, defects=True)
        expected = sum(rec["known_defect_failures"].values())
        if not res["correct"] or res["failed"] != expected:
            failures.append(f"{w} --known-defects: failed={res['failed']} "
                            f"known={rec['known_defect_failures']} problems={rec['problems'][:3]}")
        print(f"{w}: ok" if not failures else f"{w}: {failures}", flush=True)

    WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "hex-cell", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("runner did not refuse a checkout without the library")
    finally:
        shutil.rmtree(bare)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for f in failures:
        print("FAIL", f)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
