"""Seeded workloads: generation of inputs, the task mix, and task execution.

A workload is a fixed mix of tasks.  One run executes ``rounds`` batches of
that mix as a closed loop, one client and one task at a time; each round's
inputs are generated from the seed and the round's index.  The program only ever sees the generated inputs (models and config
files), never the seed.

Calls into lindkit always go through its submodules (``lindblad.spectrum``,
``cli.main``), looked up at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks

WORKLOADS = ("spectral", "dynamics", "bundled")
_SALT = {name: i for i, name in enumerate(WORKLOADS)}

# Nominal time of one round, fixed when the benchmark was defined; a run
# executes max(1, round(seconds / nominal)) rounds, so every commit does the
# same work for a given --seconds and percentile ranks do not move with speed.
NOMINAL_ROUND_S = {"spectral": 24.0, "dynamics": 15.0, "bundled": 1.0}

# spectral: tasks per (d, kind); half generic models, half measurement models.
# Many cheap d = 4 tasks put the median rank inside the d = 4 class; sixteen
# d = 8 tasks put the tail rank (ten samples beyond) in the middle of the
# d = 8 class, where an order statistic of these long, noisier tasks is
# steadiest.
SPECTRAL_MIX = {4: 14, 6: 1, 8: 8, 10: 1}

# dynamics: (command, d) -> count.  Each born-check d has one long-horizon
# task (horizon_over_gamma = 1e6) next to the normal one.  Twenty d = 8
# evolve tasks hold the median rank and eighteen d = 8 entropy checks the
# tail rank, each with at least 9 ranks to spare on either side.  Few d = 12
# tasks: a task's calibration is only as good as the time between its two
# reference samples, so long tasks make run_s noisy.
DYNAMICS_MIX = {
    ("lindblad-evolve", 2): 1, ("lindblad-evolve", 4): 1,
    ("lindblad-evolve", 8): 20, ("lindblad-evolve", 12): 1,
    ("entropy-check", 2): 1, ("entropy-check", 4): 1,
    ("entropy-check", 8): 18, ("entropy-check", 12): 1,
    ("born-check", 2): 2, ("born-check", 4): 2,
    ("born-check", 8): 2, ("born-check", 12): 2,
    ("extract-generator", 2): 1, ("extract-generator", 4): 1,
    ("extract-generator", 8): 1, ("extract-generator", 12): 1,
}
LONG_HORIZON = 1e6
TIMES = np.linspace(0.05, 2.0, 50)  # starts past the entropy check's 1e-5 step

# bundled: every subcommand on a bundled config, named explicitly with
# --config, plus truncated Ramsey scans on generated small-grid copies of fig1
# and fig2.  "fig-both" is the side-by-side scan of fig1 and fig2.
BUNDLED_CONFIG = {
    "ramsey-scan": "fig-both", "ramsey-point": "fig1",
    "lindblad-evolve": "model-qubit", "lindblad-spectrum": "model-qubit",
    "born-check": "born-d3", "cp-check": "kernel-transpose",
    "entropy-check": "model-qubit", "extract-generator": "model-qubit",
}
TRUNCATED_POINTS = 11


@dataclass
class Task:
    label: str                      # "<size class>/<variant>", e.g. "spectral-d8/meas"
    argv: list | None = None        # CLI tasks
    doc: dict | None = None         # the config the CLI task reads
    expected_code: int = 0
    model: object = None            # spectral tasks
    degenerate: bool = False
    tau: float = 0.0
    perturbation: np.ndarray | None = None
    long_horizon: bool = False


@dataclass
class Outcome:
    seconds: float
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    output: dict = field(default_factory=dict)
    raised: str | None = None


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(rng, d):
    a = _cplx(rng, (d, d))
    return 0.5 * (a + a.conj().T)


def _unitary(rng, d):
    q, r = np.linalg.qr(_cplx(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mixed_state(rng, d):
    """Full-rank state, so entropy rates stay defined along the flow."""
    a = _cplx(rng, (d, d))
    rho = a @ a.conj().T + 0.5 * d * np.eye(d)
    return rho / np.trace(rho).real


def _separated(rng, n_ops, d, min_gap=0.2):
    """Measurement coefficients whose columns are pairwise separated, so every
    coherence decays at a rate of at least min_gap / 2."""
    while True:
        l = _cplx(rng, (n_ops, d))
        if checks.gamma_min(l) >= 0.5 * min_gap:
            return l


def _mat_doc(m):
    return {"re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def _model_doc(h, ops):
    return {
        "schema": "lindkit.model/1", "dim": h.shape[0],
        "h_re": h.real.reshape(-1).tolist(), "h_im": h.imag.reshape(-1).tolist(),
        "lindblads": [_mat_doc(op) for op in ops],
    }


def _generic_ops(rng, d):
    return _hermitian(rng, d), [0.5 * _cplx(rng, (d, d)) for _ in range(2)]


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def build_batch(workload: str, seed: int, workdir: str, warmup: bool = False,
                round_index: int = 0):
    """Generate the workload's batch for one round (or its small warm-up
    batch) from the seed, writing any config files under ``workdir``.  Each
    round draws its own inputs; same seed and round, same bytes."""
    rng = np.random.default_rng([seed, _SALT[workload], int(warmup), round_index])
    os.makedirs(workdir, exist_ok=True)
    tasks = {"spectral": _spectral, "dynamics": _dynamics, "bundled": _bundled}[workload](
        rng, workdir, warmup
    )
    if workload != "bundled":
        rng.shuffle(tasks)
    return tasks


def _spectral(rng, workdir, warmup):
    from lindkit import lindblad, quantum

    mix = {4: 1} if warmup else SPECTRAL_MIX
    tasks = []
    for d, count in mix.items():
        for _ in range(count):
            h, ops = _generic_ops(rng, d)
            tasks.append(_spectral_task(rng, f"spectral-d{d}/generic",
                                        lindblad.LindbladModel(d, h, ops), False))
            basis = quantum.ProjectorBasis.from_vectors(list(_unitary(rng, d).T))
            model = lindblad.measurement_model(basis, _separated(rng, 2, d),
                                               rng.standard_normal(d))
            tasks.append(_spectral_task(rng, f"spectral-d{d}/meas", model, True))
    return tasks


def _spectral_task(rng, label, model, degenerate):
    delta = sum(op.conj().T @ op for op in model.lindblads)
    return Task(label, model=model, degenerate=degenerate,
                tau=float(rng.uniform(0.2, 1.0)), perturbation=0.5 * (delta + delta.conj().T))


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _dynamics(rng, workdir, warmup):
    if warmup:
        mix = {(c, 2): 1 for c in ("lindblad-evolve", "entropy-check",
                                   "born-check", "extract-generator")}
    else:
        mix = DYNAMICS_MIX
    tasks = []
    for (command, d), count in mix.items():
        for k in range(count):
            long = command == "born-check" and k == 0 and not warmup
            doc = _dynamics_doc(rng, command, d, long)
            path = _write(workdir, f"{command}-d{d}-{k}.json", doc)
            label = f"{command}-d{d}" + ("/long" if long else "")
            tasks.append(Task(label, argv=[command, "--config", path], doc=doc,
                              long_horizon=long))
    return tasks


def _dynamics_doc(rng, command, d, long):
    if command in ("lindblad-evolve", "entropy-check"):
        h, ops = _generic_ops(rng, d)
        # Scale to ||L||_1 = d^2 (about the median of the raw draws), so the
        # cost of expm's scaling and squaring does not depend on the seed.
        s = d * d / float(np.linalg.norm(checks.superoperator(h, ops), 1))
        return {"model": _model_doc(s * h, [np.sqrt(s) * op for op in ops]),
                "rho0": _mat_doc(_mixed_state(rng, d)), "times": TIMES.tolist()}
    l = _separated(rng, 2, d)
    h = rng.standard_normal(d)
    if command == "born-check":
        return {"dim": d, "l_re": l.real.tolist(), "l_im": l.imag.tolist(),
                "h": h.tolist(), "horizon_over_gamma": LONG_HORIZON if long else 40.0,
                "tol": 1e-8, "rho0": _mat_doc(_mixed_state(rng, d))}
    # extract-generator on the measurement model in the computational basis
    ham = np.diag(h).astype(complex)
    ops = [np.diag(row) for row in l]
    step = 0.05 / float(np.linalg.norm(checks.superoperator(ham, ops)))
    return {"model": _model_doc(ham, ops), "h": step, "scheme": "central"}


def _bundled(rng, workdir, warmup):
    from lindkit import cli

    def bundled_doc(name):
        return json.loads(cli.bundled_config_path(name).read_text())

    tasks = []
    for command, name in BUNDLED_CONFIG.items():
        doc = ({n: bundled_doc(n) for n in ("fig1", "fig2")} if name == "fig-both"
               else bundled_doc(name))
        tasks.append(Task(f"{command}-bundled", argv=[command, "--config", name], doc=doc,
                          expected_code=3 if command == "cp-check" else 0))
    for name in ("fig1", "fig2"):
        doc = bundled_doc(name)
        # A fixed span keeps the quadrature cost the same for every seed.
        shift = float(rng.uniform(-0.02, 0.02))
        doc["grid"] = {"start": shift - 0.5, "stop": shift + 0.5,
                       "points": 3 if warmup else TRUNCATED_POINTS}
        path = _write(workdir, f"{name}-small.json", doc)
        tasks.append(Task(f"ramsey-scan-truncated/{name}", doc=doc,
                          argv=["ramsey-scan", "--config", path, "--truncate-gaussian"]))
    return tasks


# ---------------------------------------------------------------------------
# Execution and checking
# ---------------------------------------------------------------------------

def run_task(task: Task) -> Outcome:
    """Run one task; the returned seconds cover only the call into lindkit."""
    if task.argv is None:
        return _run_spectral(task)
    from lindkit import cli

    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(task.argv))
    except SystemExit as exc:  # argparse rejecting the command line
        code = exc.code
    except Exception as exc:  # a traceback escaping the CLI is a task failure
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), raised=raised)


def _run_spectral(task: Task) -> Outcome:
    from lindkit import channels, lindblad, perturb

    t0 = time.perf_counter()
    try:
        spec = lindblad.spectrum(task.model)
        sop = lindblad.build_superoperator(task.model)
        rebuilt = channels.gks_build(channels.gks_project(sop))
        kernel = channels.kernel_from_generator(sop, task.tau)
        is_cp, choi = channels.choi_cp_test(kernel)
        pert = perturb.first_order(task.model.hamiltonian, task.perturbation)
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, raised=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Outcome(seconds, output={"spectrum": spec, "rebuilt": rebuilt,
                                    "is_cp": is_cp, "choi": choi, "perturbation": pert})


def known_defect(task: Task, outcome: Outcome) -> bool:
    """The one failure expected at the seed commit: a long-horizon born-check
    exiting 3 with Overflow, because matcore.expm refuses ||tL||_1 > 1e6.
    Any other failure means wrong or missing output."""
    if not task.long_horizon or outcome.raised or outcome.code != 3:
        return False
    try:
        return checks.parse_strict(outcome.stderr)["error"]["type"] == "Overflow"
    except (ValueError, KeyError, TypeError):
        return False


def failure(task: Task, outcome: Outcome) -> tuple[str, str] | None:
    """None if the task succeeded, else (category, reason).  Categories:
    known (the known defect above), raised, exit (unexpected exit code), json
    (non-standard or unparsable output), check (wrong values)."""
    if known_defect(task, outcome):
        return "known", "long-horizon born-check exits 3 with Overflow"
    if outcome.raised:
        return "raised", outcome.raised
    if task.argv is None:
        bad = checks.check_spectral(task, outcome.output)
        return ("check", bad) if bad else None
    if outcome.code != task.expected_code:
        tail = outcome.stderr.strip().replace("\n", " ")[:200]
        return "exit", f"exit {outcome.code}, expected {task.expected_code}: {tail}"
    return checks.check_cli(task, outcome.stdout)
