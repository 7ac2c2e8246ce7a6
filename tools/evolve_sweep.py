"""Time lindblad.evolve_many and lindblad.spectrum of several lindkit
checkouts in one process.

    python3 tools/evolve_sweep.py --src ../parent/src --src src

Each ``--src`` directory holds a lindkit package; each is imported under its
own package name (lindkit_0, lindkit_1, ...), so all of them run in one
process, on the same inputs, interleaved.  BLAS is pinned to one thread.
For d in DIMS a random generator (seed SEED, two Lindblad operators) is
scaled to ||L||_1 = d^2 as in perfbench's dynamics workload, evolved over
three grids: that workload's 50-point linspace(0.05, 2, 50), the 150-point
t, t + 1e-5, t - 1e-5 grid entropy-check evolves over it, and the single
time 1.0; and its spectrum is taken (case "spectrum").  A round times, for
every (d, case), REPEAT calls of each checkout in turn and keeps each one's
best; the checkouts take turns going first from round to round.  After
ROUNDS rounds the tool prints one JSON line per (d, case): each checkout's
median and quartiles over the rounds, and in how many rounds it was faster
than the first ``--src``.  Timing separate runs of one checkout after
another drifted by about +-30 % on a 2-core host; rounds that interleave
the checkouts share that drift.
"""
import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from functools import partial

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

DIMS = (2, 4, 8, 12, 16, 24)
REPEAT = 3
ROUNDS = 11
SEED = 7


def load(src: str, name: str):
    """The lindkit package under ``src``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(src), "lindkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(d: int):
    """(model parts, rho0, {name: times}) for the grids at dimension d."""
    rng = np.random.default_rng([SEED, d])
    g, l1, l2, w = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for _ in range(4))
    w = w @ w.conj().T
    times = np.linspace(0.05, 2.0, 50).tolist()
    eps = 1e-5
    grids = {"linspace50": times,
             "entropy150": [s for t in times for s in (t, t + eps, t - eps)],
             "single": [1.0]}
    return (g + g.conj().T, [l1, l2]), w / np.trace(w).real, grids


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory that holds a lindkit package (repeat to compare)")
    args = ap.parse_args()
    packages = [load(src, f"lindkit_{i}") for i, src in enumerate(args.src)]

    work = []  # (d, case, [call per package])
    for d in DIMS:
        (h, ops), rho, grids = cases(d)
        models = []
        for lk in packages:
            model = lk.lindblad.LindbladModel(d, h, ops)
            s = d * d / float(np.linalg.norm(lk.lindblad.build_superoperator(model), 1))
            model = lk.lindblad.LindbladModel(d, s * h, [np.sqrt(s) * op for op in ops])
            models.append((lk, model, lk.quantum.DensityMatrix.from_matrix(rho)))
        for name, grid in grids.items():
            work.append((d, name, [partial(lk.lindblad.evolve_many, model, rho0, grid)
                                   for lk, model, rho0 in models]))
        work.append((d, "spectrum", [partial(lk.lindblad.spectrum, model)
                                     for lk, model, _ in models]))

    best = {(d, name): [[] for _ in packages] for d, name, _ in work}
    for r in range(ROUNDS):
        turn = [(r + i) % len(packages) for i in range(len(packages))]
        for d, name, calls in work:
            for i in turn:
                fastest = float("inf")
                for _ in range(REPEAT):
                    start = time.perf_counter()
                    calls[i]()
                    fastest = min(fastest, time.perf_counter() - start)
                best[d, name][i].append(fastest)

    for (d, name), per_package in best.items():
        print(json.dumps({
            "d": d, "case": name, "rounds": ROUNDS,
            "median_s": {src: statistics.median(t) for src, t in zip(args.src, per_package)},
            "quartiles_s": {src: statistics.quantiles(t, n=4)[::2]
                            for src, t in zip(args.src, per_package)},
            "faster_than_first": {src: sum(x < y for x, y in zip(t, per_package[0]))
                                  for src, t in zip(args.src[1:], per_package[1:])},
        }), flush=True)


if __name__ == "__main__":
    main()
