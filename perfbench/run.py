"""The fracmean benchmark.

Runs one named workload through the public API of the library in this
checkout (``src/``) and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 perfbench/run.py --workload quad_moments --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke     # every workload once, tiny, shape check

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
set-up in fresh processes, one warm-up pass, then timed passes until
``--seconds`` have gone by. With ``--trace 1`` it reports the per-layer
metrics: passes alternate untraced and traced, and the spans of the last
traced pass are written next to the full report in ``perfbench/out/``.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = {"full": 5, "tiny": 2}


def load_library():
    """Import fracmean from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fracmean
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fracmean from {SRC}: {exc}")
    origin = Path(fracmean.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: fracmean was imported from {origin}, not from {SRC}")
    return fracmean


def read_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--smoke", action="store_true", help="run every workload once at the tiny size")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    return args


# --- environment ----------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fracmean").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "FRACMEAN_THREADS": os.environ["FRACMEAN_THREADS"],
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- passes -----------------------------------------------------------------------


def run_pass(cells, tracer=None):
    """Every cell once; returns (pass wall s, [(result or exception, call s)])."""
    outs = []
    start = time.perf_counter()
    for idx, cell in enumerate(cells):
        t0 = time.perf_counter()
        try:
            out = cell.call() if tracer is None else tracer.root(idx, cell.call)
        except Exception as exc:  # a raising call is a failed call; the run goes on
            out = exc
        outs.append((out, time.perf_counter() - t0))
    return time.perf_counter() - start, outs


class Ledger:
    """Checks every result and accumulates what the run reports."""

    def __init__(self, cells):
        self.cells = cells
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_values = None
        self.deterministic = True
        self.outcomes = None  # outcomes of the latest pass

    def check(self, outs):
        from workloads import Outcome

        outcomes = []
        for cell, (out, _) in zip(self.cells, outs):
            if isinstance(out, Exception):
                err = f"{type(out).__name__}: {out}"
                outcome = Outcome(1, 1, err, detail={"failed": [err]})
            else:
                outcome = cell.check(out)
            outcomes.append(outcome)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            if outcome.failed:
                miss = f"{cell.label}: {outcome.detail.get('failed', outcome.detail)}"
                if miss not in self.failures:
                    self.failures.append(miss)
        values = [o.values for o in outcomes]
        if self.first_values is None:
            self.first_values = values
        elif values != self.first_values:
            self.deterministic = False
        self.outcomes = outcomes
        return outcomes

    def values_sha256(self):
        return hashlib.sha256(json.dumps(self.first_values).encode()).hexdigest()


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def measure_setup(args):
    """Median seconds, in fresh processes, from the first import of fracmean
    until the workload's inputs are built."""
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timed_run(args, cells, ledger):
    setup = measure_setup(args)
    ledger.check(run_pass(cells)[1])  # warm-up
    walls, pass_call_ms = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, outs = run_pass(cells)
        ledger.check(outs)
        walls.append(wall)
        pass_call_ms.append([1000.0 * dt for _, dt in outs])
    call_ms = sorted(ms for per_pass in pass_call_ms for ms in per_pass)
    q1, med, q3 = quartiles(walls)
    # Means over the timed passes. The speed of a shared 2-CPU host drifts by
    # up to 1.7x in phases of many seconds; a median over one run then lands
    # in whichever phase held the run longer, and jumps between runs.
    metrics = {
        "wall_s": statistics.fmean(walls),
        # each pass's median call: with a few cells of distinct cost, the median
        # of all calls pooled falls on the edge between two of them
        "call_ms.p50": statistics.fmean(statistics.median(per_pass) for per_pass in pass_call_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "wall_s": {"mean": metrics["wall_s"], "median": med, "q1": q1, "q3": q3, "n": len(walls), "samples": walls},
        "call_ms": {
            "p50": metrics["call_ms.p50"],
            "p50_pooled": statistics.median(call_ms),
            "n": len(call_ms),
            # the highest percentile reported needs at least ten calls beyond it
            **({"p90": call_ms[math.ceil(0.9 * len(call_ms)) - 1]} if len(call_ms) >= 100 else {}),
        },
        "setup_s": {"median": metrics["setup_s"], "samples": setup},
    }
    return metrics, detail


def traced_run(args, cells, ledger, threads):
    import tracer as tracing

    tracer = tracing.Tracer()

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            wall, outs = run_pass(cells, tracer)
        finally:
            tracer.uninstall()
        ledger.check(outs)
        metrics, table = tracing.summarize(tracer.spans, tracer.held_peaks, threads)
        return wall, metrics, table

    _, warm, _ = traced_pass()
    counts = {k: warm[k] for k in tracing.EXACT_COUNTS}
    untraced, traced, per_pass, criterion_ms = [], [], [], []
    counts_repeat = True
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, outs = run_pass(cells)
        untraced.append(wall)
        criterion_ms.extend(o.detail["criterion_wall_ms"] for o in ledger.check(outs) if "criterion_wall_ms" in o.detail)
        wall, metrics, table = traced_pass()
        traced.append(wall)
        per_pass.append(metrics)
        counts_repeat &= {k: metrics[k] for k in tracing.EXACT_COUNTS} == counts

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(counts)
    ratios = [o.err_ratio for o in ledger.outcomes if o.err_ratio is not None]
    metrics["moments.transform.err_ratio"] = max(ratios, default=0.0)
    for cid in range(1, 14):
        ms = [c[cid] for c in criterion_ms if cid in c]
        metrics[f"verify.c{cid:02d}.wall_s"] = statistics.median(ms) / 1000.0 if ms else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-{args.size}.spans.csv.gz"
    with gzip.open(spans_path, "wt") as fh:
        fh.write(",".join(tracing.SPAN_FIELDS) + "\n")
        fh.writelines(",".join(map(str, span)) + "\n" for span in tracer.spans)
    detail = {
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "counts_repeat": counts_repeat,
        "span_table": table,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail, counts_repeat


# --- entry points -----------------------------------------------------------------------


def setup_probe(args):
    start = time.perf_counter()
    load_library()
    import workloads

    workloads.WORKLOADS[args.workload].build(args.seed, args.size == "tiny")
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def bench(args):
    spec = read_spec()
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    os.environ["FRACMEAN_THREADS"] = str(workload.threads)
    cells = workload.build(args.seed, args.size == "tiny")
    ledger = Ledger(cells)

    if args.trace:
        metrics, detail, counts_repeat = traced_run(args, cells, ledger, workload.threads)
        declared = spec["per_layer"]
    else:
        metrics, detail = timed_run(args, cells, ledger)
        counts_repeat = True
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")

    correct = ledger.failed == 0 and ledger.deterministic and counts_repeat
    report = {
        "environment": environment(args),
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "deterministic": ledger.deterministic,
        "values_sha256": ledger.values_sha256(),
        "cells": [
            {"label": cell.label, **outcome.detail, **({"err_ratio": outcome.err_ratio} if outcome.err_ratio is not None else {})}
            for cell, outcome in zip(cells, ledger.outcomes)
        ],
        "metrics": metrics,
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def smoke(args):
    """Each workload once at the tiny size, untraced and traced; checks the
    shape of the result line and that both processes computed the same
    values. No timing is asserted. Covers quad_moments too, which
    BENCHMARK.json leaves out."""
    spec = read_spec()
    load_library()
    import workloads

    problems = []
    for workload in workloads.WORKLOADS:
        known = len(problems)
        digests = set()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {m["name"]: m["unit"] for m in spec[section]}
            got = result.get("metrics", {})
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            elif result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            elif set(got) != set(units) or any(
                set(v) != {"value", "unit"} or v["unit"] != units[k] or not math.isfinite(v["value"])
                for k, v in got.items()
            ):
                problems.append(f"{where}: metrics do not match BENCHMARK.json")
            report = json.loads((OUT / f"{workload}-seed{args.seed}-tiny-trace{trace}.json").read_text())
            digests.add(report["values_sha256"])
        if len(digests) > 1:
            problems.append(f"{workload}: untraced and traced runs computed different values")
        print(f"smoke {workload}: {'ok' if len(problems) == known else 'FAILED'}", flush=True)
    for line in problems:
        print("  " + line)
    return 1 if problems else 0


def main(argv=None):
    args = parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.setup_probe:
        return setup_probe(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
