"""Time lindblad.evolve_many over the dynamics time grids for a range of d.

    python3 tools/evolve_sweep.py --src src

Imports lindkit from ``--src`` (so two checkouts can be compared run by run),
pins BLAS to one thread, and prints one JSON line per (d, grid) with the best
of REPEAT wall times, for d in DIMS.  Each model is a random generator (seed
SEED) with two Lindblad operators, scaled to ||L||_1 = d^2 as in perfbench's
dynamics workload.  The grids are that workload's 50-point linspace(0.05, 2, 50) and
the 150-point t, t + 1e-5, t - 1e-5 grid entropy-check evolves over it.
"""
import argparse
import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

DIMS = (2, 4, 8, 12, 16, 24)
REPEAT = 5
SEED = 7


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True,
                    help="directory that holds the lindkit package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import json

    import numpy as np

    from lindkit import lindblad, quantum

    times = np.linspace(0.05, 2.0, 50).tolist()
    eps = 1e-5
    grids = {"linspace50": times,
             "entropy150": [s for t in times for s in (t, t + eps, t - eps)]}
    rng = np.random.default_rng(SEED)
    for d in DIMS:
        g, l1, l2, w = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                        for _ in range(4))
        model = lindblad.LindbladModel(d, g + g.conj().T, [l1, l2])
        s = d * d / float(np.linalg.norm(lindblad.build_superoperator(model), 1))
        model = lindblad.LindbladModel(d, s * model.hamiltonian,
                                       [np.sqrt(s) * op for op in model.lindblads])
        w = w @ w.conj().T
        rho0 = quantum.DensityMatrix.from_matrix(w / np.trace(w).real)
        for name, grid in grids.items():
            best = float("inf")
            for _ in range(REPEAT):
                start = time.perf_counter()
                lindblad.evolve_many(model, rho0, grid)
                best = min(best, time.perf_counter() - start)
            print(json.dumps({"d": d, "grid": name, "best_s": best}), flush=True)


if __name__ == "__main__":
    main()
