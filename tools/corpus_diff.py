"""Byte-compare every audit of the benchmark corpus between two source trees.

    python3 tools/corpus_diff.py SRC_A SRC_B [--seeds 1 2 3]

SRC_A and SRC_B are directories holding the `shockaudit` package (a
checkout's `src/`).  The four `bench/` decks are built once per seed through
`bench/workloads.build_deck`; each tree then runs every audit through
`shockaudit.cli.main`, in its own process, tree B in reverse order.  For
each audit the exit status, stdout, stderr and every file written to the
output directory are compared.  The number of differing audits is printed
per workload, and the exit status is 1 if any audit differs.

Passing the same tree twice checks that an audit's bytes do not depend on
the calls made before it in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_tree(src: str, argvs: list, out_dirs: list) -> list:
    """One record per audit: exit status and digests of stdout, stderr and artifacts."""
    sys.path.insert(0, src)
    import shockaudit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"corpus_diff: imported {cli.__file__}, not the sources under {src}")
    records = []
    for argv, out_dir in zip(argvs, out_dirs):
        shutil.rmtree(out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # recorded and compared like any other outcome
                status = f"raised {exc!r}"
        artifacts = {}
        if os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    artifacts[name] = _digest(fh.read())
        records.append({
            "status": status,
            "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()),
            "artifacts": artifacts,
        })
    return records


def _spawn(src: str, job: str, result: str) -> list:
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src, job, result], check=True)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _differences(a: dict, b: dict) -> list:
    parts = [key for key in ("status", "stdout", "stderr") if a[key] != b[key]]
    names = sorted(set(a["artifacts"]) | set(b["artifacts"]))
    return parts + [name for name in names if a["artifacts"].get(name) != b["artifacts"].get(name)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="first source tree (directory holding shockaudit/)")
    parser.add_argument("src_b", help="second source tree, run in reverse order")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        src, job, result = sys.argv[2:5]
        with open(job, encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(result, "w", encoding="utf-8") as fh:
            json.dump(run_tree(src, spec["argv"], spec["out_dir"]), fh)
        return 0

    args = parse_args(argv)
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS, build_deck

    with tempfile.TemporaryDirectory(prefix="corpus_diff-") as work:
        audits = []  # (workload, seed, case label, argv, output directory)
        for workload in WORKLOADS:
            for seed in args.seeds:
                work_dir = os.path.join(work, f"{workload}-{seed}")
                out_dir = os.path.join(work_dir, "out")
                for case in build_deck(workload, seed, work_dir, out_dir):
                    audits.append((workload, seed, case.label, case.argv, out_dir))
        runs = []
        for name, src, order in (("a", args.src_a, audits), ("b", args.src_b, audits[::-1])):
            job = os.path.join(work, f"job-{name}.json")
            with open(job, "w", encoding="utf-8") as fh:
                json.dump({"argv": [a[3] for a in order], "out_dir": [a[4] for a in order]}, fh)
            runs.append(_spawn(os.path.abspath(src), job, os.path.join(work, f"result-{name}.json")))
    records_a, records_b = runs[0], runs[1][::-1]

    differing = {workload: 0 for workload in WORKLOADS}
    statuses = {workload: {} for workload in WORKLOADS}
    for (workload, seed, label, _, _), a, b in zip(audits, records_a, records_b):
        tally = statuses[workload]
        tally[str(a["status"])] = tally.get(str(a["status"]), 0) + 1
        parts = _differences(a, b)
        if parts:
            differing[workload] += 1
            print(f"differs: {workload} seed={seed} {label}: {', '.join(parts)}")
    for workload, tally in statuses.items():
        exits = ", ".join(f"{status} x{count}" for status, count in sorted(tally.items()))
        print(f"{workload}: {differing[workload]} of {sum(tally.values())} audits differ (exit status in A: {exits})")
    n_diff = sum(differing.values())
    print(f"total: {n_diff} of {len(audits)} audits differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
