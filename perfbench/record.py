#!/usr/bin/env python3
"""Run the benchmark over several seeds and record each metric's spread.

Run from the root of a checkout:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/x.json

For every workload in BENCHMARK.json (or those named by --workloads)
and every seed, this runs perfbench/run.py once, one run at a time,
with BENCHMARK.json's run_seconds. It then records each metric's
values, their median, and their spread, and prints a summary table.
The spread is Q3 - Q1 over the median, with the quartiles that
statistics.quantiles(values, n=4) gives. The output also holds the
machine block the benchmark printed. The exit status is nonzero when
a run failed or a spread exceeds its metric's bound. setup_s is
exempt: its bound limits only how far its median may drift.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    machine = next((json.loads(l.split(":", 1)[1]) for l in lines
                    if l.startswith("machine:")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return out.returncode, machine, result, out.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    record = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": seeds, "machine": None, "workloads": {}}
    ok = True
    for w in workloads:
        values = {}
        for seed in seeds:
            rc, machine, result, err = run_once(w, seed,
                                                spec["run_seconds"],
                                                args.trace)
            record["machine"] = record["machine"] or machine
            good = rc == 0 and result is not None and result["correct"]
            print(f"{w} seed {seed}: exit {rc}, "
                  f"{'correct' if good else 'FAILED'}", flush=True)
            if not good:
                ok = False
                print(err[-2000:], file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            summary[name] = {"values": v, "median": med,
                             "spread": spread, "bound": bound}
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                ok = False
                flag = "  OVER BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:36s} median {med:14.6g}  spread "
                  f"{spread:6.3f}" + (f"  bound {bound}" if bound else "")
                  + flag)
        record["workloads"][w] = summary
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
