"""Correctness checks for benchmark outputs, computed from the inputs alone.

Every check rebuilds what it needs from the generated inputs (the generator
matrix, exp(tL), the decay rates) with plain numpy/scipy, so it holds for any
seed.  Checks run outside the timed region.  A check returns None when the
output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import json

import numpy as np
import scipy.linalg

# Tolerances, relative to the scale named beside each use.
EIG_RESIDUAL_REL = 1e-8      # ||L v - lam v|| / ||L||_F per mode
GKS_ROUNDTRIP_REL = 1e-9     # ||gks_build(gks_project(L)) - L|| / ||L||_F
CHOI_SUM_REL = 1e-9          # |sum(choi eigenvalues) - d| / d
EVOLVE_ABS = 1e-9            # max |rho(t) - unvec(expm(tL) vec(rho0))|
ENTROPY_RATE_REL = 1e-8      # |rate - (-Tr L(rho) ln rho)| / max(1, |rate|)
ENTROPY_FD_ABS = 1e-6        # against a central difference of S, as the CLI checks it
ENTROPY_EPS = 1e-5           # the CLI's central-difference step
GAMMA_REL = 1e-9             # gamma_min against the closed form
TRUNCATION_ABS = 1e-8        # truncated vs analytic Gaussian average


class NonStandardJSON(ValueError):
    """Output contains NaN or Infinity, which strict JSON does not allow."""


def _reject_constant(name):
    raise NonStandardJSON(f"non-standard JSON constant {name}")


def parse_strict(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# Reference physics, written independently of the program under test
# ---------------------------------------------------------------------------

def superoperator(h: np.ndarray, ops) -> np.ndarray:
    """Row-major-vec matrix of L(rho) = -i[H, rho] + sum L rho L^+ - 1/2{L^+L, rho}."""
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in ops:
        ll = op.conj().T @ op
        out = out + np.kron(op, op.conj()) - 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return out


def model_arrays(doc: dict):
    """(H, [L_a]) from a lindkit.model/1 document."""
    d = int(doc["dim"])
    h = (np.asarray(doc["h_re"]) + 1j * np.asarray(doc["h_im"])).reshape(d, d)
    ops = [
        (np.asarray(e["re"]) + 1j * np.asarray(e["im"])).reshape(d, d)
        for e in doc["lindblads"]
    ]
    return h, ops


def matrix_from(doc: dict, d: int) -> np.ndarray:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    return (re + 1j * im).reshape(d, d)


def gamma_min(l_coeffs: np.ndarray) -> float:
    """Smallest pairwise coherence decay rate 1/2 sum_a |l_a,i - l_a,j|^2."""
    d = l_coeffs.shape[1]
    return min(
        0.5 * float(np.sum(np.abs(l_coeffs[:, i] - l_coeffs[:, j]) ** 2))
        for i in range(d)
        for j in range(i + 1, d)
    )


def vn_entropy(rho: np.ndarray) -> float:
    p = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def balance_defect(ops) -> float:
    return float(np.linalg.norm(sum(op.conj().T @ op - op @ op.conj().T for op in ops)))


# ---------------------------------------------------------------------------
# Spectral task: spectrum, GKS round trip, Choi test, perturbation
# ---------------------------------------------------------------------------

def check_spectral(task, out) -> str | None:
    d = task.model.dim
    lref = superoperator(task.model.hamiltonian, task.model.lindblads)
    scale = float(np.linalg.norm(lref))
    spec = out["spectrum"]
    for mu, mode in zip(spec.mus, spec.modes):
        v = np.asarray(mode).reshape(-1)
        v = v / np.linalg.norm(v)
        res = float(np.linalg.norm(lref @ v + mu * v))
        if res > EIG_RESIDUAL_REL * scale:
            return f"eigen-residual {res:.3e} at mu={complex(mu):.6g}"
    n_stationary = spec.classifications.count("stationary")
    want = d if task.degenerate else 1
    if n_stationary < want:
        return f"{n_stationary} stationary modes, expected at least {want}"
    if task.degenerate and "forbidden" in spec.classifications:
        return "forbidden mode in a balanced model"
    err = float(np.linalg.norm(out["rebuilt"] - lref))
    if err > GKS_ROUNDTRIP_REL * scale:
        return f"gks_build(gks_project(L)) differs from L by {err:.3e}"
    lambdas = np.asarray(out["choi"].lambdas)
    if abs(float(lambdas.sum()) - d) > CHOI_SUM_REL * d:
        return f"Choi eigenvalues sum to {lambdas.sum():.12g}, not {d}"
    if out["is_cp"] is not True:
        return "exp(tau L) of a Lindblad generator reported as not CP"
    pert = out["perturbation"]
    a, delta = task.model.hamiltonian, task.perturbation
    if np.max(np.abs(pert.base_eigenvalues - np.linalg.eigvalsh(a))) > 1e-10 * max(
        1.0, float(np.linalg.norm(a))
    ):
        return "unperturbed eigenvalues differ from eigvalsh"
    if abs(float(np.sum(pert.shifts)) - float(np.trace(delta).real)) > 1e-9 * max(
        1.0, float(np.linalg.norm(delta))
    ):
        return "first-order shifts do not sum to Tr(delta)"
    basis = pert.rotated_basis
    if np.linalg.norm(basis.conj().T @ basis - np.eye(d)) > 1e-10:
        return "rotated basis is not orthonormal"
    return None


# ---------------------------------------------------------------------------
# CLI records
# ---------------------------------------------------------------------------

def _check_evolve(doc, rec):
    h, ops = model_arrays(doc["model"])
    d = h.shape[0]
    lref = superoperator(h, ops)
    rho0 = matrix_from(doc["rho0"], d).reshape(-1)
    states = rec["result"]["states"]
    if [s["t"] for s in states] != [float(t) for t in doc["times"]]:
        return "time grid differs from the config"
    for s in states:
        want = scipy.linalg.expm(s["t"] * lref) @ rho0
        got = np.asarray(s["re"]) + 1j * np.asarray(s["im"])
        err = float(np.max(np.abs(got - want)))
        if err > EVOLVE_ABS:
            return f"rho(t={s['t']}) differs from expm(tL) vec(rho0) by {err:.3e}"
        if abs(s["trace"] - 1.0) > 1e-9:
            return f"trace {s['trace']} at t={s['t']}"
    return None


def _check_entropy(doc, rec):
    """Rates against the exact dS/dt = -Tr(L(rho) ln rho) and against a central
    difference of S, both along the flow expm(tL) vec(rho0) built here."""
    res = rec["result"]
    h, ops = model_arrays(doc["model"])
    d = h.shape[0]
    lref = superoperator(h, ops)
    rho0 = matrix_from(doc["rho0"], d).reshape(-1)
    step_up, step_down = scipy.linalg.expm(ENTROPY_EPS * lref), scipy.linalg.expm(-ENTROPY_EPS * lref)
    if [r["t"] for r in res["rows"]] != [float(t) for t in doc["times"]]:
        return "time grid differs from the config"
    for r in res["rows"]:
        vec = scipy.linalg.expm(r["t"] * lref) @ rho0
        rho = vec.reshape(d, d)
        p, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        ln_rho = (v * np.log(p)) @ v.conj().T
        exact = -float(np.trace((lref @ vec).reshape(d, d) @ ln_rho).real)
        diff = (vn_entropy((step_up @ vec).reshape(d, d))
                - vn_entropy((step_down @ vec).reshape(d, d))) / (2 * ENTROPY_EPS)
        if abs(r["rate"] - exact) > ENTROPY_RATE_REL * max(1.0, abs(exact)):
            return f"entropy rate {r['rate']} vs -Tr(L(rho) ln rho) = {exact} at t={r['t']}"
        for key in ("rate", "central_difference"):
            if abs(r[key] - diff) > ENTROPY_FD_ABS:
                return f"{key} {r[key]} vs difference of S(expm(tL) rho0) {diff} at t={r['t']}"
    if res["balanced"] != (balance_defect(ops) <= 1e-10):
        return "balanced flag disagrees with the operators"
    if res["passed"] is not True:
        return "entropy check did not pass"
    return None


def _check_born(doc, rec):
    res = rec["result"]
    l_re = np.asarray(doc["l_re"], dtype=float)
    l = l_re + 1j * np.asarray(doc.get("l_im", np.zeros_like(l_re)), dtype=float)
    g = gamma_min(np.atleast_2d(l))
    if abs(res["gamma_min"] - g) > GAMMA_REL * g:
        return f"gamma_min {res['gamma_min']} vs closed form {g}"
    if abs(res["horizon"] - doc["horizon_over_gamma"] / g) > 1e-9 * res["horizon"]:
        return "horizon is not horizon_over_gamma / gamma_min"
    if res["converged"] is not True or not res["residual"] <= doc["tol"]:
        return f"not converged: residual {res['residual']}"
    return None


def _check_extract(doc, rec):
    res = rec["result"]
    h, ops = model_arrays(doc["model"])
    lref = superoperator(h, ops)
    # The central estimate sinh(hL)/h errs by h^2 L^3 / 6 at leading order.
    bound = (doc["h"] * float(np.linalg.norm(lref, 2))) ** 2 / 3 + 1e-10
    if not res["relative_error"] <= bound:
        return f"central relative error {res['relative_error']:.3e} above {bound:.3e}"
    if not res["richardson_relative_error"] <= res["relative_error"] + 1e-12:
        return "Richardson estimate is worse than the central one"
    return None


def _check_spectrum(doc, rec):
    h, ops = model_arrays(doc["model"])
    lref = superoperator(h, ops)
    want = np.sort_complex(-np.linalg.eigvals(lref))
    modes = rec["result"]["modes"]
    got = np.sort_complex(np.array([m["re_mu"] + 1j * m["im_mu"] for m in modes]))
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-8 * max(
        1.0, float(np.linalg.norm(lref))
    ):
        return "mode eigenvalues differ from eig(L)"
    classes = [m["class"] for m in modes]
    if "stationary" not in classes or "forbidden" in classes:
        return f"unexpected mode classes {sorted(set(classes))}"
    return None


def _check_cp(doc, rec):
    res = rec["result"]
    d = int(doc["dim"])
    mat = (np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])).reshape(d * d, d * d)
    choi = mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    want = np.linalg.eigvalsh(choi)
    got = np.sort(np.asarray(res["choi_eigenvalues"]))
    if np.max(np.abs(got - want)) > 1e-10 * d:
        return "Choi eigenvalues differ from the reshuffled kernel's"
    if res["is_cp"] != bool(want.min() >= -1e-10 * d):
        return f"is_cp {res['is_cp']} contradicts the Choi spectrum"
    return None


def _pb_in_range(rows):
    for r in rows:
        for key in ("pb_e", "pb_e_avg"):
            if not -1e-12 <= r[key] <= 1 + 1e-12:
                return f"{key} = {r[key]} outside [0, 1] at {r['delta_omega']}"
    return None


def _grid(doc):
    g = doc["grid"]
    if "values" in g:
        return np.asarray(g["values"], dtype=float)
    return np.linspace(float(g["start"]), float(g["stop"]), int(g["points"]))


def _check_scan(doc, rec, truncated: bool):
    """``doc`` is one scan config, or {name: config} for the side-by-side run."""
    if "ramsey" not in doc:
        results = rec["result"]
        for sub in doc.values():
            bad = _check_scan_result(sub, results[sub["theory"]], truncated)
            if bad:
                return bad
        return None
    return _check_scan_result(doc, rec["result"], truncated)


def _check_scan_result(doc, result, truncated):
    rows = result["rows"]
    grid = _grid(doc)
    if len(rows) != grid.size or np.max(
        np.abs(np.array([r["delta_omega"] for r in rows]) - grid)
    ) > 1e-12:
        return "detuning grid differs from the config"
    bad = _pb_in_range(rows)
    if bad or not truncated:
        return bad
    from lindkit import ramsey  # analytic reference path, called untraced

    cfg = ramsey.RamseyConfig.from_dict(doc["ramsey"])
    if cfg.t0 - 8 * cfg.sigma <= 0:
        return None  # truncation is not negligible; only the range check applies
    for r in rows:
        want = ramsey.gaussian_fraction(cfg.with_detuning(r["delta_omega"]), doc["theory"])
        if abs(r["pb_e_avg"] - want) > TRUNCATION_ABS:
            return (f"truncated average {r['pb_e_avg']} vs analytic {want} "
                    f"at {r['delta_omega']}")
    return None


def _check_point(doc, rec):
    res = rec["result"]
    r = doc["ramsey"]
    if abs(res["delta_omega"] - (r["omega"] - (r["e_e"] - r["e_g"]))) > 1e-12:
        return "delta_omega is not omega - (E_e - E_g)"
    return _pb_in_range([res])


RECORD_CHECKS = {
    "lindblad-evolve": _check_evolve,
    "entropy-check": _check_entropy,
    "born-check": _check_born,
    "extract-generator": _check_extract,
    "lindblad-spectrum": _check_spectrum,
    "cp-check": _check_cp,
    "ramsey-point": _check_point,
}


def check_cli(task, stdout: str) -> tuple[str, str] | None:
    """Check one CLI record.  Returns None or (category, reason) with category
    "json" for unparsable or non-standard output and "check" for wrong values."""
    try:
        rec = parse_strict(stdout)
    except (NonStandardJSON, json.JSONDecodeError) as exc:
        return "json", str(exc)
    command = task.argv[0]
    try:
        if command == "ramsey-scan":
            bad = _check_scan(task.doc, rec, "--truncate-gaussian" in task.argv)
        else:
            bad = RECORD_CHECKS[command](task.doc, rec)
    except (KeyError, TypeError, ValueError) as exc:
        bad = f"malformed record: {type(exc).__name__}: {exc}"
    return ("check", bad) if bad else None
