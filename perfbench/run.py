"""lindkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; lindkit is imported from its src/.
With --trace 0 the run reports the end-to-end metrics (set-up time, batch
time, per-task latency percentiles, peak memory); with --trace 1 it reports
per-layer calls and self times from a traced pass and the tracing overhead.
Progress lines go first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run happens in a child process with the BLAS thread count pinned to 1.
Set-up is timed in SETUPS separate children and reported as the median.
The exit code is nonzero, with no JSON line, if the run cannot be made.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 4            # set-up timings per untraced run (the main child included)
RUN_DEADLINE_S = 170  # the whole run, every child included
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def spawn(args, setup_only: bool, deadline: float):
    """Start a child.  Returns (calibrated and raw seconds until it printed
    READY, the rest of its stdout)."""
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
                break
        ref = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or len(ref) != 2 or ref[0] != "REF":
        raise RunFailed(f"child exited with code {code} (ready: {ready is not None})")
    return (ready * calibrate.REFERENCE_S / float(ref[1]), ready), rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lindkit", "__init__.py")):
        print(f"perfbench: no lindkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn(args, True, deadline)[0])
        ready, rest = spawn(args, False, deadline)
        setups.append(ready)
        lines = rest.strip().splitlines()
        if not lines:
            raise RunFailed("child printed no result")
        res = json.loads(lines[-1])
    except (RunFailed, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(report(args, res, setups))
    print(json.dumps(summary(args, res, setups)))
    return 0


def summary(args, res, setups) -> dict:
    if args.trace:
        metrics = res["trace"]["metrics"]
    else:
        lat = res["latency"]
        metrics = {
            "setup_s": {"value": statistics.median(c for c, _ in setups), "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "task_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
            "task_p90_ms": {"value": lat["tail_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    return {"correct": res["incorrect"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def report(args, res, setups) -> str:
    lat = res["latency"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{res['rounds']} round(s) of {res['tasks_per_round']} tasks",
        f"  setup_s      {statistics.median(c for c, _ in setups):.4f} s   median of "
        f"{len(setups)} set-ups (raw {statistics.median(w for _, w in setups):.4f} s)",
        f"  run_s        {res['run_s']:.4f} s   median batch time over {res['rounds']} round(s) "
        f"(raw {res['run_raw_s']:.4f} s, calibrated/raw {res['run_s'] / res['run_raw_s']:.3f})",
        f"  task_p50_ms  {lat['p50_ms']:.3f} ms  (raw {lat['p50_raw_ms']:.3f}) p50 of "
        f"n={lat['n']} tasks ({lat['p50_class']}, {lat['p50_margin']} ranks from another class)",
        f"  task_p90_ms  {lat['tail_ms']:.3f} ms  (raw {lat['tail_raw_ms']:.3f}) p{lat['tail_q']} "
        f"of n={lat['n']} tasks, "
        f"10 beyond ({lat['tail_class']}, {lat['tail_margin']} ranks from another class)",
        f"  peak_rss_mib {res['peak_rss_mib']:.1f} MiB",
        f"  failed_frac  {res['failed'] / res['attempted']:.6f}  "
        f"({res['failed']} of {res['attempted']} tasks; {res['failed'] - res['incorrect']} "
        f"known defect, {res['incorrect']} other)",
    ]
    lines += [f"  failure: {f}" for f in res["failures"]]
    if args.trace:
        tr = res["trace"]
        m = {name: entry["value"] for name, entry in tr["metrics"].items()}
        lines.append(f"  traced run_s {m['trace.run_s']:.4f} s, overhead "
                     f"{m['trace.overhead_s']:+.4f} s over the untraced pass; "
                     f"{m['trace.spans']} spans; absent: {', '.join(tr['absent']) or 'none'}")
        for name in sorted(k for k in m if k.endswith(".self_s") and m[k] > 0):
            base = name[: -len(".self_s")]
            lines.append(f"  {base:36s} calls {m[base + '.calls']:8d}  self {m[name]:9.4f} s")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
