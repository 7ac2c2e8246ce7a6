"""One benchmark run of one workload, in its own process.

Started by run.py with the BLAS thread count pinned.  Imports lindkit from the
checkout's src/, generates the seeded batch, warms up, prints READY, then
runs the batch as a closed loop and prints one JSON line with its results.
With --setup-only it stops after READY, so run.py can time set-up alone.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import lindkit  # noqa: E402

import calibrate  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
STOP_AFTER_S = 120.0  # start no further round after this much run time


def run_rounds(batches, ref, tracer=None):
    """Run one batch per round, with a reference-kernel sample before every
    task and after the last.  Outputs are checked after each round's tasks
    have run, outside any timing.

    Returns (samples, round_s, failures): samples are (calibrated seconds,
    raw seconds, label) per task; round_s holds (calibrated, raw) batch time
    per round, the sum of its task times; failures are (label, category,
    reason)."""
    samples, round_s, failures = [], [], []
    start = time.perf_counter()
    for r, batch in enumerate(batches):
        refs, outcomes = [], []
        for i, task in enumerate(batch):
            refs.append(ref.measure())
            if tracer is not None:
                tracer.task = r * len(batch) + i
            outcomes.append(workloads.run_task(task))
            if tracer is not None:
                tracer.task = None
        refs.append(ref.measure())
        cal = raw = 0.0
        for i, (task, out) in enumerate(zip(batch, outcomes)):
            seconds = out.seconds * calibrate.factor(refs, i)
            samples.append((seconds, out.seconds, task.label))
            cal += seconds
            raw += out.seconds
            bad = workloads.failure(task, out)
            if bad:
                failures.append((task.label, *bad))
        round_s.append((cal, raw))
        if time.perf_counter() - start > STOP_AFTER_S:
            break
    return samples, round_s, failures


def latency_summary(samples):
    """p50 and tail latency (calibrated, with the raw value of the same
    task), each with the size class of the sample it picked and that
    sample's distance in ranks to the nearest sample of another size class
    (a small margin means the figure can jump between classes)."""
    ordered = sorted(samples)
    values = [s[0] for s in ordered]
    labels = [s[2].split("/")[0] for s in ordered]

    def margin(i):
        lo = next((i - j for j in range(i, -1, -1) if labels[j] != labels[i]), i + 1)
        hi = next((j - i for j in range(i, len(labels)) if labels[j] != labels[i]),
                  len(labels) - i)
        return min(lo, hi)

    _, i50 = stats.nearest_rank(values, 50)
    q, _, n = stats.tail_percentile(values)
    _, iq = stats.nearest_rank(values, q)
    return {"n": n, "p50_ms": 1e3 * values[i50], "p50_raw_ms": 1e3 * ordered[i50][1],
            "p50_class": labels[i50], "p50_margin": margin(i50),
            "tail_q": q, "tail_ms": 1e3 * values[iq], "tail_raw_ms": 1e3 * ordered[iq][1],
            "tail_class": labels[iq], "tail_margin": margin(iq)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(lindkit.__file__).startswith(src + os.sep):
        sys.exit(f"lindkit imported from {lindkit.__file__}, not from {src}")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    rounds = workloads.rounds_for(args.workload, args.seconds)
    try:
        batches = [workloads.build_batch(args.workload, args.seed,
                                         os.path.join(workdir, f"round-{r}"), round_index=r)
                   for r in range(rounds)]
        warm = workloads.build_batch(args.workload, args.seed,
                                     os.path.join(workdir, "warmup"), warmup=True)
        for task in warm:
            bad = workloads.failure(task, workloads.run_task(task))
            if bad:
                print(f"warm-up task {task.label} failed: {bad}", file=sys.stderr)
        print("READY", flush=True)
        ref = calibrate.Reference()
        print(f"REF {statistics.median([ref.measure() for _ in range(5)])!r}", flush=True)
        if args.setup_only:
            return 0

        samples, round_s, failures = run_rounds(batches, ref)
        result = {
            "workload": args.workload, "seed": args.seed,
            "rounds": len(round_s), "tasks_per_round": len(batches[0]),
            "attempted": len(samples), "failed": len(failures),
            # Every failure but the known defect means the program is wrong.
            "incorrect": sum(1 for f in failures if f[1] != "known"),
            "failures": sorted({f"{label}: {cat}: {why}" for label, cat, why in failures})[:20],
            "run_s": statistics.median([c for c, _ in round_s]),
            "run_raw_s": statistics.median([w for _, w in round_s]),
            "latency": latency_summary(samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if args.trace:
            result["trace"] = traced_pass(args, batches[:len(round_s)], ref, result["run_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def traced_pass(args, batches, ref, untraced_run_s):
    tr = tracing.Tracer()
    with tr.installed():
        _, round_s, failures = run_rounds(batches, ref, tr)
    values = tracing.layer_metrics(tr.spans)
    # A CLI call fails when it raises or exits with a code the task did not expect.
    values["cli.main.failed"] += sum(1 for f in failures if f[1] in ("exit", "known"))
    traced_run_s = statistics.median([c for c, _ in round_s])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.metric_names()}
    metrics.update({
        "trace.run_s": {"value": traced_run_s, "unit": "s"},
        "trace.overhead_s": {"value": traced_run_s - untraced_run_s, "unit": "s"},
        "trace.spans": {"value": len(tr.spans), "unit": "count"},
        "trace.absent": {"value": len(tr.absent), "unit": "count"},
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    return {"metrics": metrics, "absent": tr.absent}


if __name__ == "__main__":
    sys.exit(main())
