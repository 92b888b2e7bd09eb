"""shockaudit benchmark: one workload in one process, as a closed loop.

    python3 bench/run.py --workload fv_reference --seed 1 --seconds 30 --trace 0

Each audit is one in-process `shockaudit.cli.main` call, artifact writes
included, issued only after the previous one returned and was checked
against the benchmark's own reference values.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
split into an untraced and a traced half and reports per-layer metrics.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# p90 of 100 samples has 10 samples above it.
MIN_SAMPLES = 100
# A timed phase never runs past this multiple of --seconds, even short of MIN_SAMPLES.
MAX_STRETCH = 4.0
SETUP_PROBES = 8

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS, build_deck  # noqa: E402


def import_cli():
    """shockaudit.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "shockaudit", "cli.py")):
        sys.exit(f"bench: no shockaudit sources under {SRC}")
    sys.path.insert(0, SRC)
    import shockaudit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported {cli.__file__}, not the sources under {SRC}")
    return cli


class Runner:
    """Issues audits one at a time and classifies each outcome.

    An outcome is "ok", "known" (the case's documented defect: a failure,
    counted and listed, but not a wrong answer) or "wrong" (unexpected exit
    code, exception, or a check that failed).
    """

    def __init__(self, cli, out_dir: str, tracer=None):
        self.cli = cli
        self.out_dir = out_dir
        self.tracer = tracer

    def audit(self, case):
        paths = [os.path.join(self.out_dir, f"{case.stem}.{ext}") for ext in ("json", "csv")]
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if self.tracer is not None:
            self.tracer.audit_id += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                # Looked up per call, so the tracer's wrapper is used once installed.
                status = self.cli.main(case.argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # the loop must go on; the audit is recorded as wrong
                status = f"raised {exc!r}"
            elapsed = perf_counter() - start
        outcome, reason = self._verify(case, status, out.getvalue(), err.getvalue(), paths)
        written = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
        return elapsed, outcome, reason, written

    @staticmethod
    def _verify(case, status, stdout, stderr, paths):
        if status != 0:
            if case.known_defect and status == 4 and case.known_defect in stderr:
                return "known", f"exit 4: {case.known_defect}"
            return "wrong", f"exit {status}: {' '.join(stderr.split())[:200]}"
        with open(paths[0], encoding="utf-8") as fh:
            text = fh.read()
        if text != stdout:
            return "wrong", "JSON artifact differs from the stdout summary"
        with open(paths[1], "rb") as fh:
            lines = fh.read().count(b"\n")
        if lines != case.csv_lines:
            return "wrong", f"CSV artifact has {lines} lines, expected {case.csv_lines}"
        try:
            problem = case.check(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed summary: {exc!r}"
        return ("wrong", problem) if problem else ("ok", "")


def timed_phase(runner, deck, seconds: float, min_samples: int, between=None):
    """Whole passes over the deck until `seconds` and `min_samples` are reached.

    Only the audits are timed: `between(elapsed, done)`, called after every
    audit, runs off the clock.
    """
    records = []
    elapsed = 0.0
    while True:
        for case in deck:
            start = perf_counter()
            records.append(runner.audit(case))
            elapsed += perf_counter() - start
            if between is not None:
                between(elapsed, len(records))
        if elapsed >= seconds and len(records) >= min_samples:
            break
        if elapsed >= MAX_STRETCH * seconds:
            break
    return records, elapsed


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cache_sizes() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            sizes[parts[0]] = int(parts[1])
    return sizes


def environment(args) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": _cache_sizes(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until it is ready to time an audit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if status != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe exited {status}")
    return ready


class SetupProbes:
    """SETUP_PROBES set-up probes spread evenly over the timed phase.

    The host's speed drifts over seconds, so probes taken back to back
    would all sample one moment of it; spread out, their median follows the
    same stretch of time as the audit metrics.
    """

    def __init__(self, args):
        self.args = args
        self.interval = args.seconds / SETUP_PROBES
        self.times = []

    def __call__(self, elapsed: float, _done: int = 0) -> None:
        while len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.interval:
            self.times.append(probe_setup(self.args))

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.times.append(probe_setup(self.args))
        return self.times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _failures(records, deck) -> list:
    """Each failing case once, in deck order, with how often it failed."""
    seen = {}
    for i, (_, outcome, reason, _) in enumerate(records):
        if outcome != "ok":
            idx = i % len(deck)
            entry = seen.setdefault(idx, {"case": idx, "label": deck[idx].label, "outcome": outcome,
                                          "reason": reason, "times": 0})
            entry["times"] += 1
    return [seen[k] for k in sorted(seen)]


def end_to_end(records, elapsed, setup, deck):
    """The result line's metrics, a note on each, and the printed-only p50."""
    latencies = sorted(r[0] for r in records)
    ok = sum(r[1] == "ok" for r in records)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "audits_per_s": _metric(ok / elapsed, "1/s"),
        "ok_frac": _metric(ok / len(records), "ratio"),
        "audit_s.mean": _metric(statistics.fmean(latencies), "s"),
        "audit_s.p90": _metric(p90, "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    # Printed but kept out of the result line: on a host whose speed flips
    # between two modes the median of ~1 ms audits jumps between them (README.md).
    printed = {"audit_s.p50": _metric(statistics.median(latencies), "s")}
    n = len(records)
    above = sum(x > p90 for x in latencies)
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: {', '.join(f'{x:.4f}' for x in setup)}",
        "audits_per_s": f"{ok} correct audits in {elapsed:.3f} s ({n // len(deck)} passes of {len(deck)})",
        "ok_frac": f"{ok} of {n}; failed_frac = 1 - ok_frac",
        "audit_s.mean": f"n={n}",
        "audit_s.p90": f"n={n}, {above} above",
        "peak_rss_mib": "ru_maxrss of this process",
        "audit_s.p50": f"n={n}; printed only, not in the result line",
    }
    return metrics, notes, printed


def traced_run(runner, deck, args):
    from tracer import Tracer, layer_metrics

    half = args.seconds / 2.0
    untraced, t_untraced = timed_phase(runner, deck, half, 0)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer

    def first_pass_only(_elapsed, done):
        if done >= len(deck):
            tracer.keep_spans = False

    traced, t_traced = timed_phase(runner, deck, half, 0, between=first_pass_only)
    n = len(traced)
    metrics = layer_metrics(tracer, n)
    metrics["cli.artifact_bytes"] = _metric(sum(r[3] for r in traced) / n, "bytes")
    plain = sum(r[1] == "ok" for r in untraced) / t_untraced
    with_trace = sum(r[1] == "ok" for r in traced) / t_traced
    metrics["trace.untraced_audits_per_s"] = _metric(plain, "1/s")
    metrics["trace.traced_audits_per_s"] = _metric(with_trace, "1/s")
    metrics["trace.overhead_frac"] = _metric(1.0 - with_trace / plain, "ratio")
    os.makedirs(WORK_ROOT, exist_ok=True)
    spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    notes = {"spans": f"{len(tracer.spans)} spans of the first traced pass in {spans_path}",
             "audits": f"{len(untraced)} untraced in {t_untraced:.3f} s, {n} traced in {t_traced:.3f} s"}
    return untraced + traced, metrics, notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(work_dir, "out")
    printed = {}
    setup = []
    try:
        deck = build_deck(args.workload, args.seed, work_dir, out_dir)
        runner = Runner(cli, out_dir)
        runner.audit(deck[0])  # untimed warm-up
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            records, metrics, notes = traced_run(runner, deck, args)
        else:
            probes = SetupProbes(args)
            probes(0.0)
            records, elapsed = timed_phase(runner, deck, args.seconds, MIN_SAMPLES, between=probes)
            setup = probes.finish()
            metrics, notes, printed = end_to_end(records, elapsed, setup, deck)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(r[1] != "ok" for r in records)
    failures = _failures(records, deck)
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in {**metrics, **printed}.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {m['value']:<24.8g} {m['unit']:<6s} {note}")
    print(f"  {'failed_frac':42s} {failed / len(records):<24.8g} {'ratio':<6s} {failed} of {len(records)} audits")
    for key in ("audits", "spans"):
        if key in notes:
            print(f"  {notes[key]}")
    for f in failures:
        print(f"  failing case {f['case']} ({f['outcome']}, {f['times']}x): {f['label']}: {f['reason']}")
    detail = {"env": environment(args), "failures": failures, "setup_probes_s": setup, "printed": printed}
    print("detail " + json.dumps(detail))
    result = {
        "correct": not any(r[1] == "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
