"""Run every workload in a fresh process and print the end-to-end table.

    python3 bench/report.py --seeds 1 2 --seconds 30 --trace --out BENCH_new.json

One row per (workload, seed): setup_s, audits_per_s, audit_s.mean/p50/p90
with their sample count, failed_frac and peak_rss_mib, each with its unit.
With --trace every workload also gets a traced run, and the row adds the
tracing overhead.  --out writes every run, its failing cases and the environment
record to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"report: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return {"workload": workload, "seed": seed, "trace": trace, **json.loads(lines[-1]), **detail}


def _value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def print_table(runs: list) -> None:
    plain = [r for r in runs if not r["trace"]]
    traced = {(r["workload"], r["seed"]): r for r in runs if r["trace"]}
    header = (f"{'workload':16s} {'seed':>4s} {'setup_s[s]':>11s} {'audits_per_s[1/s]':>18s} "
              f"{'audit_s.mean[s]':>15s} {'audit_s.p50[s]':>15s} {'audit_s.p90[s]':>15s} {'n':>6s} "
              f"{'failed_frac':>12s} {'peak_rss_mib[MiB]':>18s} {'trace_overhead':>15s}")
    print(header)
    for r in plain:
        t = traced.get((r["workload"], r["seed"]))
        overhead = f"{_value(t, 'trace.overhead_frac'):15.4f}" if t else f"{'-':>15s}"
        print(f"{r['workload']:16s} {r['seed']:4d} {_value(r, 'setup_s'):11.4f} "
              f"{_value(r, 'audits_per_s'):18.4f} {_value(r, 'audit_s.mean'):15.6f} "
              f"{r['printed']['audit_s.p50']['value']:15.6f} "
              f"{_value(r, 'audit_s.p90'):15.6f} {r['attempted']:6d} "
              f"{r['failed'] / r['attempted']:12.4f} {_value(r, 'peak_rss_mib'):18.2f} {overhead}")
    for r in runs:
        for f in r["failures"]:
            print(f"{r['workload']} seed {r['seed']} trace {r['trace']}: case {f['case']} "
                  f"{f['outcome']} x{f['times']}: {f['label']}: {f['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload and seed")
    parser.add_argument("--out", help="write all runs to this JSON file")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        for workload in args.workloads:
            for trace in (0, 1) if args.trace else (0,):
                runs.append(run_one(workload, seed, args.seconds, trace))
                print(f"ran {workload} seed {seed} trace {trace}", file=sys.stderr)
    print_table(runs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "seeds": args.seeds, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
