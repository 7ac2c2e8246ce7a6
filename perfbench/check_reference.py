"""Check that a calibration sample does not depend on the task before it.

    python3 perfbench/check_reference.py --seconds 90

Runs tasks of all three workloads in turn in one process, with the BLAS
thread count pinned as in a benchmark run.  After each task it takes one
calibration sample as a run does (an untimed pass over the flush buffer,
then a timed run of the reference kernel) and, after a second run of the
same task, one timed run of the kernel without the flush.  It prints the median of each
kind per workload, and the median ratio of each sample to the one taken
after the `spectral` task of the same turn.  A ratio near 1 for the
calibration sample means that the scale factor follows the machine's speed,
not the work of the task before it.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import calibrate  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=90.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    ref = calibrate.Reference()

    def single():
        t0 = time.perf_counter()
        ref.run_kernel()
        return time.perf_counter() - t0

    tmp = os.path.join(ROOT, ".perfbench", f"refcheck-{os.getpid()}")
    try:
        batches = {w: workloads.build_batch(w, args.seed, os.path.join(tmp, w))
                   for w in workloads.WORKLOADS}
        samples = {w: {"sample": [], "single": []} for w in batches}
        end = time.monotonic() + args.seconds
        k = 0
        while time.monotonic() < end:
            for w, batch in batches.items():
                task = batch[k % len(batch)]
                workloads.run_task(task)
                samples[w]["sample"].append(ref.measure())
                workloads.run_task(task)
                samples[w]["single"].append(single())
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    base = samples["spectral"]
    for w, s in samples.items():
        cells = [f"{kind} {1e3 * statistics.median(v):.3f} ms "
                 f"(x{statistics.median(a / b for a, b in zip(v, base[kind])):.3f})"
                 for kind, v in s.items()]
        print(f"{w:9s} n={len(s['sample']):4d}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
