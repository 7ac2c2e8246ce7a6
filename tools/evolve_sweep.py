"""Time lindblad.evolve_many, spectrum, build_superoperator,
channels.kernel_from_generator and the lindblad-evolve and entropy-check
commands of several lindkit checkouts in one process.

    python3 tools/evolve_sweep.py --src ../parent/src --src src

Each ``--src`` directory holds a lindkit package; each is imported under its
own package name (lindkit_0, lindkit_1, ...), so all of them run in one
process, on the same inputs, interleaved.  BLAS is pinned to one thread.
For d in DIMS a random generator (seed SEED, two Lindblad operators) is
scaled to ||L||_1 = d^2 as in perfbench's dynamics workload and evolved over
that workload's 50-point linspace(0.05, 2, 50) (case "linspace50") and at
the single time 1.0 (case "single").  Case "stencil50" evolves it at those
50 times and STENCIL_EPS either side of each, as entropy-check does, with
lindblad.evolve_stencil.  Case "stencil-stiff" takes that stencil at the
single time 0, where the + eps step is all the work, of the generator
scaled to eps ||R||_1 = 1e4 (R the generator in the Hermitian basis).  The
spectrum is taken (case "spectrum"), the generator built (case "build",
lindblad.build_superoperator), and a config with the 50-point grid run
through the command line in-process (cases
"evolve-cli" and "entropy-cli": ``cli.main([command, "--config", path])``
for lindblad-evolve and entropy-check, each record written to memory).
Case "evolve-record" writes the in-memory record of that lindblad-evolve
run, built once, with ``records.canonical_json``: the encoder's share of
"evolve-cli".
Case "matrix-texts:<entries>", with d null, writes a table of two
matrix columns alone, ``records.canonical_json(records.Rows(re=re, im=im))``
with re and im the real and imaginary stacks of MATRIX_TEXTS_STATES[k]
seeded d = 4 density matrices: 64 to 8192 entries in all, on either side
of the entry count from which the records writer takes its numpy kernel.
Case "bundled-cli:<command>", with d null, runs each of the eight commands
on its bundled default config (``cli.main([command])``, the record written
to memory; ``ramsey-scan`` runs the fig-both config: 2 x 401 fringe rows)
once per round, not once per d, so that the fixed cost of an in-process
call, reading and parsing its config, shows next to its experiment (an
exit code of 3, cp-check's verdict on the transpose, counts as a run).
Case "jordan" takes matcore.general_eig, with cluster tolerance
JORDAN_TOL, of an n x n matrix, n = d^2 >= 6: a [3, 2, 1] Jordan cluster
at 0 and n - 6 distinct eigenvalues evenly spaced over [1, 2], under a
seeded orthogonal similarity.  It is the one case that runs the chain
code (matcore._cluster_chains), which no command reaches on these models.
Case "kernel" takes channels.kernel_from_generator of the generator at
tau = KERNEL_TAU, and case "kernel-diagonal" that of the model with only
the diagonals of the same H and operators, whose generator has no
off-diagonal entry.  The rest of a perfbench ``spectral`` task has a
case each: "spectrum-meas" takes the spectrum of a measurement model in a
random basis (two operators), whose stationary modes are one d-fold
cluster; "gks" takes
channels.gks_build(channels.gks_project(L)); "choi" takes
channels.choi_cp_test of the "kernel" case's kernel, and "choi-kraus"
that test and then a read of its spectrum's eigen-matrices (``kraus_like``),
the cost of a caller that reads the vectors; and "perturb" takes
perturb.first_order of H perturbed by the Hermitian part of
sum_a L_a^dag L_a, as that workload does.  A round times,
for every (d, case), REPEAT calls of each checkout in turn and keeps each
one's best; the checkouts take turns going first from round to round.
After ROUNDS rounds the tool prints one JSON line per (d, case): each
checkout's minimum, median and quartiles over the rounds, and in how many
rounds it was faster than the first ``--src``.  ``--case PREFIX`` keeps
only the cases whose names start with PREFIX (repeat for more).  The
minimum is the steadiest of these: a round that lands in a slow phase of
the host moves the median and quartiles, not the minimum.  Timing
separate runs of one checkout after another drifted by about +-30 % on a
2-core host; rounds that interleave the checkouts share that drift.
"""
import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
from functools import partial

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

DIMS = (2, 3, 4, 5, 6, 8, 12, 16, 24)
KERNEL_TAU = 0.5
STENCIL_EPS = 1e-5
JORDAN_TOL = 1e-4
REPEAT = 3
ROUNDS = 11
SEED = 7
# the states of the "matrix-texts" cases: 32 entries each at d = 4
MATRIX_TEXTS_STATES = (2, 4, 8, 16, 32, 64, 128, 256)


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
    grids = {"linspace50": np.linspace(0.05, 2.0, 50).tolist(), "single": [1.0]}
    return (g + g.conj().T, [l1, l2]), w / np.trace(w).real, grids


def measurement_parts(d: int):
    """(projector vectors, l coefficients, h coefficients) of the
    "spectrum-meas" model at dimension d: a random basis, two operators."""
    rng = np.random.default_rng([SEED, d, 1])
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    l = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    return list(basis.T), l, rng.standard_normal(d)


def jordan_matrix(d: int) -> np.ndarray:
    """The "jordan" case's matrix at dimension d: n = d^2, chains of length
    3, 2 and 1 at 0 and n - 6 eigenvalues evenly spaced over [1, 2], similar
    by a random orthogonal matrix (seed [SEED, d, 2])."""
    n = d * d
    j = np.diag(np.concatenate([np.zeros(6), np.linspace(1.0, 2.0, n - 6)]))
    j[[0, 1, 3], [1, 2, 4]] = 1.0
    q = np.linalg.qr(np.random.default_rng([SEED, d, 2]).standard_normal((n, n)))[0]
    return q @ j @ q.T


def density_stack(n: int, d: int) -> np.ndarray:
    """n seeded d x d density matrices (seed [SEED, n, d, 3])."""
    rng = np.random.default_rng([SEED, n, d, 3])
    w = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = w @ w.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def gks_round_trip(lk, gen):
    """The generator rebuilt from its GKS form, as a spectral task does."""
    return lk.channels.gks_build(lk.channels.gks_project(gen))


def choi_kraus(lk, kernel):
    """The Choi test of ``kernel``, then its eigen-matrices."""
    return lk.channels.choi_cp_test(kernel)[1].kraus_like


def run_cli(cli, argv: list) -> int:
    """``cli.main(argv)`` with its stdout written to memory.  An older
    checkout's command line finds a bundled config in the package named
    ``lindkit``, not in its own, so that name is bound to the checkout of
    ``cli`` first."""
    sys.modules["lindkit"] = sys.modules[cli.__package__]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def evolve_record(cli, path: str) -> dict:
    """The record lindblad-evolve writes for the config ``path``, as the
    command line holds it before writing it."""
    sys.modules["lindkit"] = sys.modules[cli.__package__]
    args = cli.build_parser().parse_args(["lindblad-evolve", "--config", path])
    doc, handler, inputs = cli._load("lindblad-evolve", path)
    _, result, _ = handler(args, *inputs)
    return cli._record(args, doc, result, [])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory that holds a lindkit package (repeat to compare)")
    ap.add_argument("--case", action="append",
                    help="keep only the cases whose names start with this (repeat for more)")
    args = ap.parse_args()
    packages = [load(src, f"lindkit_{i}") for i, src in enumerate(args.src)]
    clis = [importlib.import_module(f"lindkit_{i}.cli") for i in range(len(packages))]
    with tempfile.TemporaryDirectory() as configs:
        work = []  # (d, case, [call per package])
        for d in DIMS:
            (h, ops), rho, grids = cases(d)
            models = []
            for lk in packages:
                model = lk.lindblad.LindbladModel(d, h, ops)
                s = d * d / float(np.linalg.norm(lk.lindblad.build_superoperator(model), 1))
                model = lk.lindblad.LindbladModel(d, s * h, [np.sqrt(s) * op for op in ops])
                models.append((lk, model, lk.quantum.DensityMatrix.from_matrix(rho)))
            for name, diagonal in (("kernel", False), ("kernel-diagonal", True)):
                calls = []
                for lk, model, _ in models:
                    if diagonal:
                        model = lk.lindblad.LindbladModel(
                            d, np.diag(np.diag(model.hamiltonian)),
                            [np.diag(np.diag(op)) for op in model.lindblads])
                    gen = lk.lindblad.build_superoperator(model)
                    calls.append(partial(lk.channels.kernel_from_generator, gen, KERNEL_TAU))
                work.append((d, name, calls))
            for name, grid in grids.items():
                work.append((d, name, [partial(lk.lindblad.evolve_many, model, rho0, grid)
                                       for lk, model, rho0 in models]))
            work.append((d, "stencil50", [partial(lk.lindblad.evolve_stencil, model, rho0,
                                                  grids["linspace50"], STENCIL_EPS)
                                          for lk, model, rho0 in models]))
            stiff = []
            for lk, model, rho0 in models:
                s = 1e9 / float(np.linalg.norm(lk.lindblad._hermitian_generator(model), 1))
                stiff_model = lk.lindblad.LindbladModel(
                    d, s * model.hamiltonian, [np.sqrt(s) * op for op in model.lindblads])
                stiff.append(partial(lk.lindblad.evolve_stencil, stiff_model, rho0, [0.0],
                                     STENCIL_EPS))
            work.append((d, "stencil-stiff", stiff))
            work.append((d, "spectrum", [partial(lk.lindblad.spectrum, model)
                                         for lk, model, _ in models]))
            if d * d >= 6:
                work.append((d, "jordan", [partial(lk.matcore.general_eig, jordan_matrix(d),
                                                   JORDAN_TOL) for lk in packages]))
            vectors, l, hs = measurement_parts(d)
            work.append((d, "spectrum-meas", [partial(
                lk.lindblad.spectrum, lk.lindblad.measurement_model(
                    lk.quantum.ProjectorBasis.from_vectors(vectors), l, hs))
                for lk in packages]))
            gks, choi, kraus, pert = [], [], [], []
            for lk, model, _ in models:
                gen = lk.lindblad.build_superoperator(model)
                gks.append(partial(gks_round_trip, lk, gen))
                kernel = lk.channels.kernel_from_generator(gen, KERNEL_TAU)
                choi.append(partial(lk.channels.choi_cp_test, kernel))
                kraus.append(partial(choi_kraus, lk, kernel))
                delta = sum(op.conj().T @ op for op in model.lindblads)
                pert.append(partial(lk.perturb.first_order, model.hamiltonian,
                                    0.5 * (delta + delta.conj().T)))
            work += [(d, "gks", gks), (d, "choi", choi), (d, "choi-kraus", kraus),
                     (d, "perturb", pert)]
            work.append((d, "build", [partial(lk.lindblad.build_superoperator, model)
                                      for lk, model, _ in models]))
            path = os.path.join(configs, f"grid-d{d}.json")
            with open(path, "w") as fh:
                json.dump({"model": json.loads(models[0][1].to_json()),
                           "rho0": {"re": rho.real.reshape(-1).tolist(),
                                    "im": rho.imag.reshape(-1).tolist()},
                           "times": grids["linspace50"]}, fh)
            for command, name in (("lindblad-evolve", "evolve-cli"),
                                  ("entropy-check", "entropy-cli")):
                argv = [command, "--config", path]
                if any(run_cli(cli, argv) for cli in clis):
                    sys.exit(f"{command} failed on {path}")
                work.append((d, name, [partial(run_cli, cli, argv) for cli in clis]))
            work.append((d, "evolve-record", [partial(cli.canonical_json, evolve_record(cli, path))
                                              for cli in clis]))
        for n in MATRIX_TEXTS_STATES:
            rho = density_stack(n, 4)
            work.append((None, f"matrix-texts:{rho.size * 2}", [partial(
                lk.records.canonical_json, lk.records.Rows(re=rho.real, im=rho.imag))
                for lk in packages]))
        for command in clis[0]._COMMANDS:
            if any(run_cli(cli, [command]) not in (0, 3) for cli in clis):
                sys.exit(f"{command} failed on its default config")
            work.append((None, f"bundled-cli:{command}",
                         [partial(run_cli, cli, [command]) for cli in clis]))

        if args.case:
            work = [w for w in work if w[1].startswith(tuple(args.case))]
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
            "min_s": {src: min(t) for src, t in zip(args.src, per_package)},
            "median_s": {src: statistics.median(t) for src, t in zip(args.src, per_package)},
            "quartiles_s": {src: statistics.quantiles(t, n=4)[::2]
                            for src, t in zip(args.src, per_package)},
            "faster_than_first": {src: sum(x < y for x, y in zip(t, per_package[0]))
                                  for src, t in zip(args.src[1:], per_package[1:])},
        }), flush=True)


if __name__ == "__main__":
    main()
