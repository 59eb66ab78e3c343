#!/usr/bin/env python3
"""Run the benchmark over many seeds, report run-to-run spreads, record a baseline.

    python3 perfbench/record.py --seeds 1-10                 # spreads only
    python3 perfbench/record.py --seeds 1-10 --write         # also write baseline.json
    python3 perfbench/record.py --seeds 1-5 --workloads hex-cell

For each workload and end-to-end metric it prints the median and the
inter-quartile spread (q3 - q1) / median over the seeds, next to the bound
from BENCHMARK.json.  ``--write`` adds two traced runs per workload (their
work counts must match exactly), one ``--known-defects`` run per workload,
and stores everything, with the golden output digest of every seed, in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def run(workload: str, seed: int, seconds: int, trace: int = 0, defects: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if defects:
        cmd.append("--known-defects")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    tag = f"{workload}-full-seed{seed}-trace{trace}" + ("-defects" if defects else "")
    return json.loads((OUT_DIR / f"{tag}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def work_counts(trace: dict) -> dict:
    return {k: v for k, v in trace.items() if not k.endswith("_s")}


def op_summary(op: dict) -> dict:
    """An op's input properties, median untraced latency and traced work counts."""
    out = {"name": op["name"], "median_ms": round(op["median_ms"], 4),
           "props": {k: v for k, v in op["props"].items() if k != "argv"}}
    if "work" in op:
        out["work"] = op["work"]
    return out


def dump_baseline(baseline: dict) -> str:
    """Indented JSON with one line per op, so the file stays short and diffable."""
    ops = {name: entry.pop("ops", []) for name, entry in baseline["workloads"].items()}
    for name in ops:
        baseline["workloads"][name]["ops"] = f"@ops:{name}@"
    text = json.dumps(baseline, indent=1, sort_keys=True)
    for name, rows in ops.items():
        lines = ",\n    ".join(json.dumps(op, sort_keys=True) for op in rows)
        text = text.replace(f'"@ops:{name}@"', f"[\n    {lines}\n   ]")
    return text + "\n"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    baseline = {"machine": {"python": platform.python_version(), "platform": platform.platform(),
                            "cpus": __import__("os").cpu_count()},
                "run_seconds": seconds, "seeds": seeds, "workloads": {}, "golden": {}}
    ok = True
    for name in names:
        records = [run(name, seed, seconds) for seed in seeds]
        entry = {"why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
                 "ops_per_pass": records[0]["ops"],
                 "tail_percentile": records[0]["tail_percentile"],
                 "attempted": sum(r["result"]["attempted"] for r in records),
                 "failed": sum(r["result"]["failed"] for r in records),
                 "end_to_end": {}}
        print(f"{name}: ops/pass={entry['ops_per_pass']} tail=p{entry['tail_percentile']} "
              f"passes={[r['passes']['U'] for r in records]}")
        for r in records:
            if not r["result"]["correct"]:
                ok = False
                print(f"  seed {r['seed']}: INCORRECT {r['problems'][:5]}")
            baseline["golden"][f"{name}/full/{r['seed']}"] = r["digest"]
        for metric in [*bounds, *records[0]["latency"]]:
            found = [{**r["result"]["metrics"], **r["latency"]}[metric] for r in records]
            s = spread([m["value"] for m in found])
            s["unit"] = found[0]["unit"]
            entry["end_to_end"][metric] = s
            bound = bounds.get(metric)
            if bound is None:
                flag = "recorded, not gated"
            elif metric == "setup_s":
                flag = "ok (no spread limit)"
            else:
                flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] < bound else "OVER")
            print(f"  {metric:12s} median {s['median']:10.5g} {s['unit']:3s} "
                  f"spread {s['spread']:.3f} bound {bound} {flag}")
        if args.write:
            t1, t2 = run(name, seeds[0], seconds, trace=1), run(name, seeds[0], seconds, trace=1)
            if work_counts(t1["trace"]) != work_counts(t2["trace"]):
                ok = False
                print("  work counts differ between two traced runs of one seed")
            entry["per_layer"] = {"seed": seeds[0], "metrics": t1["result"]["metrics"],
                                  "all": t1["trace"]}
            d = run(name, seeds[0], seconds, defects=True)
            entry["known_defects_run"] = {
                "seed": seeds[0], "attempted": d["result"]["attempted"],
                "failed": d["result"]["failed"],
                "fail_frac": d["result"]["failed"] / d["result"]["attempted"],
                "failures": d["known_defect_failures"], "correct": d["result"]["correct"]}
            entry["ops"] = [op_summary(op) for op in t1["ops_detail"]]
        baseline["workloads"][name] = entry
    if args.write:
        (HERE / "baseline.json").write_text(dump_baseline(baseline))
        print(f"wrote {HERE / 'baseline.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
