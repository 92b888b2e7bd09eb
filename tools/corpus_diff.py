"""Byte-compare every audit of the benchmark corpus between two source trees.

    python3 tools/corpus_diff.py SRC_A SRC_B [--seeds 1 2 3]

SRC_A and SRC_B are directories holding the `shockaudit` package (a
checkout's `src/`).  The four `bench/` decks are built once per seed through
`bench/workloads.build_deck`; each tree then runs every audit through
`shockaudit.cli.main`, in its own process, tree B in reverse order.  For
each audit the exit status, stdout, stderr and every file written to the
output directory are compared.  The number of differing audits is printed
per workload, and the exit status is 1 if any audit differs.  For a
workload with differing audits, the two trees' JSON and CSV artifacts are
also compared place by place (same key path, same row and column):
- the largest absolute difference between numbers at the same place, so a
  roundoff change reads apart from a changed result;
- the number of numeric places that exist in only one tree (an added or
  removed key, row or column);
- the number of places that hold 0 in one tree and -0 in the other;
- the number of non-numeric places (text, booleans, null) that differ.
When every differing audit keeps its exit status and stderr and its
artifacts differ only in the sign of zero (stdout echoes the JSON
summary), the line ends "(sign of zero only)".

Passing the same tree twice checks that an audit's bytes do not depend on
the calls made before it in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_tree(src: str, argvs: list, out_dirs: list, keep_dirs: list) -> list:
    """One record per audit: exit status and digests of stdout, stderr and artifacts.

    Each audit's output directory is copied to its entry of keep_dirs.
    """
    sys.path.insert(0, src)
    import shockaudit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"corpus_diff: imported {cli.__file__}, not the sources under {src}")
    records = []
    for argv, out_dir, keep_dir in zip(argvs, out_dirs, keep_dirs):
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
            shutil.copytree(out_dir, keep_dir)
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


def _places(path: str) -> dict:
    """{place: leaf} of a JSON or CSV artifact, {} for any other or missing file.

    A number is a float (JSON integers too, so "-0" keeps its sign); any
    other leaf is its JSON text or CSV cell, a string.
    """
    places = {}
    if not os.path.isfile(path):
        return places
    if path.endswith(".json"):
        def walk(node, place):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, place + (key,))
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, place + (i,))
            elif isinstance(node, float):
                places[place] = node
            else:
                places[place] = json.dumps(node)

        with open(path, encoding="utf-8") as fh:
            walk(json.load(fh, parse_int=float), ())
    elif path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            for row, cells in enumerate(csv.reader(fh)):
                for col, cell in enumerate(cells):
                    try:
                        places[(row, col)] = float(cell)
                    except ValueError:
                        places[(row, col)] = cell
    return places


def compare_artifacts(dir_a: str, dir_b: str) -> dict:
    """How the JSON and CSV artifacts of two output directories differ, place by place.

    largest: the largest |a - b| over numbers at the same place (NaN against
    a number, or inf against a finite number, is inf); one_sided: numeric
    places in only one directory; sign_of_zero: places holding 0 in one and
    -0 in the other; text: non-numeric places that differ or exist in only
    one directory.  A missing directory has no places.
    """
    out = {"largest": 0.0, "one_sided": 0, "sign_of_zero": 0, "text": 0}
    names = {name for d in (dir_a, dir_b) if os.path.isdir(d) for name in os.listdir(d)}
    for name in sorted(names):
        a, b = _places(os.path.join(dir_a, name)), _places(os.path.join(dir_b, name))
        for place in a.keys() | b.keys():
            x, y = a.get(place), b.get(place)  # None: the place is missing
            if isinstance(x, float) and isinstance(y, float):
                if x == y and math.copysign(1.0, x) != math.copysign(1.0, y):
                    out["sign_of_zero"] += 1
                elif x != y and not (math.isnan(x) and math.isnan(y)):
                    delta = abs(x - y)  # NaN against a number, or inf against finite: inf
                    out["largest"] = max(out["largest"], math.inf if math.isnan(delta) else delta)
            elif None in (x, y) and (isinstance(x, float) or isinstance(y, float)):
                out["one_sided"] += 1
            elif x != y:
                out["text"] += 1
    return out


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
            json.dump(run_tree(src, spec["argv"], spec["out_dir"], spec["keep_dir"]), fh)
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
        # Each audit's artifacts per tree, by its index in audits.
        keep = {name: [os.path.join(work, f"kept-{name}", str(i)) for i in range(len(audits))]
                for name in "ab"}
        runs = []
        for name, src, order in (("a", args.src_a, slice(None)), ("b", args.src_b, slice(None, None, -1))):
            job = os.path.join(work, f"job-{name}.json")
            with open(job, "w", encoding="utf-8") as fh:
                json.dump({
                    "argv": [a[3] for a in audits[order]],
                    "out_dir": [a[4] for a in audits[order]],
                    "keep_dir": keep[name][order],
                }, fh)
            runs.append(_spawn(os.path.abspath(src), job, os.path.join(work, f"result-{name}.json")))
        records_a, records_b = runs[0], runs[1][::-1]

        differing = {workload: 0 for workload in WORKLOADS}
        places = {workload: {"largest": 0.0, "one_sided": 0, "sign_of_zero": 0, "text": 0}
                  for workload in WORKLOADS}
        # Workloads with a differing audit that the sign of zero does not explain.
        not_sign_only = set()
        statuses = {workload: {} for workload in WORKLOADS}
        for i, ((workload, seed, label, _, _), a, b) in enumerate(zip(audits, records_a, records_b)):
            tally = statuses[workload]
            tally[str(a["status"])] = tally.get(str(a["status"]), 0) + 1
            parts = _differences(a, b)
            if parts:
                differing[workload] += 1
                found, total = compare_artifacts(keep["a"][i], keep["b"][i]), places[workload]
                if ("status" in parts or "stderr" in parts or not found["sign_of_zero"]
                        or found["largest"] or found["one_sided"] or found["text"]):
                    not_sign_only.add(workload)
                total["largest"] = max(total["largest"], found.pop("largest"))
                for key, count in found.items():
                    total[key] += count
                print(f"differs: {workload} seed={seed} {label}: {', '.join(parts)}")
    for workload, tally in statuses.items():
        exits = ", ".join(f"{status} x{count}" for status, count in sorted(tally.items()))
        line = f"{workload}: {differing[workload]} of {sum(tally.values())} audits differ (exit status in A: {exits})"
        if differing[workload]:
            total = places[workload]
            line += (
                f"; max |difference| of JSON/CSV numbers: {total['largest']:.3g}"
                f"; numeric places in one tree only: {total['one_sided']}"
                f"; places differing only in the sign of zero: {total['sign_of_zero']}"
                f"; differing text places: {total['text']}"
            )
            if workload not in not_sign_only:
                line += " (sign of zero only)"
        print(line)
    n_diff = sum(differing.values())
    print(f"total: {n_diff} of {len(audits)} audits differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
