"""Command-line front end.

Every subcommand reads a single JSON config (strictly validated: unknown keys
are rejected and physical invariants are checked before any computation),
runs one experiment, and emits a machine-readable record.  Outputs carry no
timestamps and all randomness is seeded, so identical config + seed gives
byte-identical output.

Exit codes: 0 success, 2 config error, 3 domain error (including a failed
check, e.g. a non-CP kernel), 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from importlib import resources

import numpy as np

from . import __version__, channels, lindblad, quantum, ramsey
from .errors import ConfigParse, LindkitError

SCHEMA_VERSION = 1

_BUNDLED = {
    "fig1": "fig1.json",
    "fig2": "fig2.json",
    "born-d3": "born_d3.json",
    "kernel-transpose": "kernel_transpose.json",
    "model-qubit": "model_qubit.json",
}

_EXIT_CONFIG, _EXIT_DOMAIN, _EXIT_IO = 2, 3, 4


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def bundled_config_path(name: str):
    return resources.files("lindkit").joinpath("configs", _BUNDLED[name])


def _read_config(path: str) -> dict:
    if path in _BUNDLED:
        text = bundled_config_path(path).read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigParse(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParse("config root must be a JSON object")
    return doc


def _check_keys(doc: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    missing = required - doc.keys()
    if missing:
        raise ConfigParse(f"{where}: missing keys {sorted(missing)}", field=sorted(missing)[0])
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigParse(f"{where}: unknown keys {sorted(unknown)}", field=sorted(unknown)[0])


def _matrix_from(doc: dict, where: str, dim: int) -> np.ndarray:
    _check_keys(doc, where, {"re"}, {"im"})
    re = np.asarray(doc["re"], dtype=float).reshape(-1)
    im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float).reshape(-1)
    if re.size != dim * dim or im.size != dim * dim:
        raise ConfigParse(f"{where}: expected {dim*dim} entries", field=where)
    return (re + 1j * im).reshape(dim, dim)


def _ramsey_config(doc: dict, where: str = "ramsey") -> ramsey.RamseyConfig:
    fields = {
        "e_g", "e_e", "u_eg_re", "u_eg_im", "omega", "tau", "t_free",
        "t0", "sigma", "lambda_tilde_re", "lambda_tilde_im",
    }
    _check_keys(doc, where, fields - {"u_eg_im", "lambda_tilde_re", "lambda_tilde_im"},
                {"u_eg_im", "lambda_tilde_re", "lambda_tilde_im"})
    try:
        return ramsey.RamseyConfig.from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise ConfigParse(f"{where}: {exc}") from exc


def _model_from(doc: dict, where: str = "model") -> lindblad.LindbladModel:
    _check_keys(doc, where, {"schema", "dim", "h_re", "h_im", "lindblads"})
    try:
        return lindblad.LindbladModel.from_json(json.dumps(doc))
    except (ValueError, LindkitError) as exc:
        raise ConfigParse(f"{where}: {exc}") from exc


def _grid_from(doc: dict) -> np.ndarray:
    if "values" in doc:
        _check_keys(doc, "grid", {"values"})
        return np.asarray(doc["values"], dtype=float)
    _check_keys(doc, "grid", {"start", "stop", "points"})
    pts = int(doc["points"])
    if pts < 2:
        raise ConfigParse("grid: need at least 2 points", field="points")
    return np.linspace(float(doc["start"]), float(doc["stop"]), pts)


def _times_from(doc: dict) -> list[float]:
    times = doc["times"]
    # the bound also rejects NaN, inf and integers beyond the float range
    if not isinstance(times, list) or not all(
        type(t) in (int, float) and abs(t) <= sys.float_info.max for t in times
    ):
        raise ConfigParse("times: expected a list of finite numbers", field="times")
    return [float(t) for t in times]


_VALIDATORS = {}


def validate_config(path: str, command: str) -> dict:
    """Parse and fully validate a config file for ``command``.

    Checks every physical invariant of the embedded objects before any
    computation and rejects unknown keys; returns the parsed document.
    Emitting the result with canonical_json, re-parsing, and emitting again
    is byte-identical.
    """
    if command not in _VALIDATORS:
        raise ConfigParse(f"unknown command {command!r}")
    doc = _read_config(path)
    _VALIDATORS[command](doc)
    return doc


def _validate_ramsey_scan(doc):
    _check_keys(doc, "config", {"ramsey", "theory", "grid"})
    _ramsey_config(doc["ramsey"])
    if doc["theory"] not in ("standard", "modified"):
        raise ConfigParse(f"unknown theory {doc['theory']!r}", field="theory")
    _grid_from(doc["grid"])


def _validate_ramsey_point(doc):
    _check_keys(doc, "config", {"ramsey", "theory"}, {"grid"})
    _ramsey_config(doc["ramsey"])
    if doc["theory"] not in ("standard", "modified"):
        raise ConfigParse(f"unknown theory {doc['theory']!r}", field="theory")


def _validate_evolve(doc):
    _check_keys(doc, "config", {"model", "rho0", "times"}, {"h", "scheme"})
    model = _model_from(doc["model"])
    _matrix_from(doc["rho0"], "rho0", model.dim)
    _times_from(doc)


def _validate_spectrum(doc):
    _check_keys(doc, "config", {"model"}, {"rho0", "times", "h", "scheme"})
    _model_from(doc["model"])


def _validate_born(doc):
    _check_keys(doc, "config", {"dim", "l_re", "h", "horizon_over_gamma", "tol"},
                {"l_im", "rho0"})
    d = int(doc["dim"])
    if "rho0" in doc:
        _matrix_from(doc["rho0"], "rho0", d)


def _validate_cp(doc):
    _check_keys(doc, "config",
                {"schema", "dim", "tau", "re", "im", "vec_order", "choi_convention"})


def _validate_extract(doc):
    _check_keys(doc, "config", {"model", "h", "scheme"}, {"rho0", "times"})
    _model_from(doc["model"])
    if doc["scheme"] not in ("central", "forward"):
        raise ConfigParse(f"unknown scheme {doc['scheme']!r}", field="scheme")


_VALIDATORS.update(
    {
        "ramsey-scan": _validate_ramsey_scan,
        "ramsey-point": _validate_ramsey_point,
        "lindblad-evolve": _validate_evolve,
        "lindblad-spectrum": _validate_spectrum,
        "born-check": _validate_born,
        "cp-check": _validate_cp,
        "entropy-check": _validate_evolve,
        "extract-generator": _validate_extract,
    }
)


def _record(command: str, args, config_doc, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "flags": {
            "config": args.config,
            "format": args.format,
            "seed": args.seed,
            "theory": getattr(args, "theory", None),
            "truncate_gaussian": getattr(args, "truncate_gaussian", False),
        },
        "config": config_doc,
        "result": result,
        "warnings": [str(w.message) for w in args.warnings],
    }


def _emit(args, text: str):
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)
# ---------------------------------------------------------------------------

def _cmd_ramsey_scan(args) -> int:
    if args.config == "fig-both":
        return _ramsey_scan_side_by_side(args)
    doc = validate_config(args.config, "ramsey-scan")
    cfg = _ramsey_config(doc["ramsey"])
    theory = args.theory or doc["theory"]
    if theory not in ("standard", "modified"):
        raise ConfigParse(f"unknown theory {theory!r}", field="theory")
    grid = _grid_from(doc["grid"])
    result = ramsey.scan(cfg, grid, theory, truncate=args.truncate_gaussian)
    if args.format == "csv":
        _emit(args, result.to_csv())
    else:
        _emit(args, canonical_json(
            _record("ramsey-scan", args, doc, json.loads(result.to_json()))
        ))
    return 0


def _ramsey_scan_side_by_side(args) -> int:
    """Default run: the standard and modified figure curves next to each
    other on the shared detuning grid."""
    results = {}
    docs = {}
    for name in ("fig1", "fig2"):
        doc = validate_config(name, "ramsey-scan")
        cfg = _ramsey_config(doc["ramsey"])
        results[doc["theory"]] = ramsey.scan(
            cfg, _grid_from(doc["grid"]), doc["theory"],
            truncate=args.truncate_gaussian,
        )
        docs[name] = doc
    std, mod = results["standard"], results["modified"]
    if args.format == "csv":
        lines = [
            "delta_omega,pb_e_standard,pb_e_avg_standard,"
            "pb_e_modified,pb_e_avg_modified"
        ]
        for k, dw in enumerate(std.delta_omegas):
            lines.append(
                f"{float(dw)!r},{float(std.pb_e[k])!r},{float(std.pb_e_avg[k])!r},"
                f"{float(mod.pb_e[k])!r},{float(mod.pb_e_avg[k])!r}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, canonical_json(_record(
            "ramsey-scan", args, docs,
            {
                "standard": json.loads(std.to_json()),
                "modified": json.loads(mod.to_json()),
            },
        )))
    return 0


def _cmd_ramsey_point(args) -> int:
    doc = validate_config(args.config, "ramsey-point")
    cfg = _ramsey_config(doc["ramsey"])
    theory = args.theory or doc["theory"]
    pb = ramsey.protocol(cfg, theory)
    avg = ramsey.gaussian_fraction(cfg, theory, truncate=args.truncate_gaussian)
    result = {
        "delta_omega": ramsey.derive(cfg).delta_omega,
        "pb_e": pb,
        "pb_e_avg": avg,
    }
    _emit(args, canonical_json(_record("ramsey-point", args, doc, result)))
    return 0


def _cmd_lindblad_evolve(args) -> int:
    doc = validate_config(args.config, "lindblad-evolve")
    model = _model_from(doc["model"])
    rho0 = quantum.DensityMatrix.from_matrix(
        _matrix_from(doc["rho0"], "rho0", model.dim)
    )
    times = _times_from(doc)
    states = [
        {
            "t": t,
            "re": rho.matrix.real.reshape(-1).tolist(),
            "im": rho.matrix.imag.reshape(-1).tolist(),
            "trace": float(np.trace(rho.matrix).real),
            "entropy": quantum.vn_entropy(rho),
            "repaired": rho.repaired,
        }
        for t, rho in zip(times, lindblad.evolve_many(model, rho0, times))
    ]
    _emit(args, canonical_json(
        _record("lindblad-evolve", args, doc, {"states": states})
    ))
    return 0


def _cmd_lindblad_spectrum(args) -> int:
    doc = validate_config(args.config, "lindblad-spectrum")
    model = _model_from(doc["model"])
    spec = lindblad.spectrum(model)
    rows = [
        {"re_mu": float(mu.real), "im_mu": float(mu.imag), "class": cls}
        for mu, cls in zip(spec.mus, spec.classifications)
    ]
    if args.format == "csv":
        lines = ["re_mu,im_mu,class"]
        lines += [f"{r['re_mu']!r},{r['im_mu']!r},{r['class']}" for r in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, canonical_json(_record(
            "lindblad-spectrum", args, doc,
            {"modes": rows, "balanced": model.balanced},
        )))
    return 0


def _cmd_born_check(args) -> int:
    doc = validate_config(args.config, "born-check")
    d = int(doc["dim"])
    l_re = np.asarray(doc["l_re"], dtype=float)
    l_im = np.asarray(doc.get("l_im", np.zeros_like(l_re)), dtype=float)
    basis = quantum.ProjectorBasis.computational(d)
    model = lindblad.measurement_model(basis, l_re + 1j * l_im, doc["h"])
    if "rho0" in doc:
        rho0 = quantum.DensityMatrix.from_matrix(_matrix_from(doc["rho0"], "rho0", d))
    else:
        rng = np.random.default_rng(args.seed)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rho0 = quantum.DensityMatrix.pure(v / np.linalg.norm(v))
    dm = lindblad.decay_matrix(model)
    gamma_min = dm.gamma_min()
    if gamma_min <= 0:
        raise ConfigParse("model has no decaying coherences; Born limit is empty",
                          field="l_re")
    horizon = float(doc["horizon_over_gamma"]) / gamma_min
    converged, residual = lindblad.born_limit_check(
        model, rho0, horizon, float(doc["tol"])
    )
    result = {
        "gamma_min": gamma_min,
        "horizon": horizon,
        "residual": residual,
        "tol": float(doc["tol"]),
        "converged": bool(converged),
    }
    _emit(args, canonical_json(_record("born-check", args, doc, result)))
    return 0 if converged else _EXIT_DOMAIN


def _cmd_cp_check(args) -> int:
    doc = validate_config(args.config, "cp-check")
    try:
        kernel = channels.Kernel.from_json(json.dumps(doc))
    except (ValueError, LindkitError) as exc:
        raise ConfigParse(str(exc)) from exc
    is_cp, spec = channels.choi_cp_test(kernel)
    result = {
        "is_cp": bool(is_cp),
        "choi_eigenvalues": spec.lambdas.tolist(),
        "min_eigenvalue": float(spec.lambdas.min()),
        "eigenvalue_sum": float(spec.lambdas.sum()),
    }
    _emit(args, canonical_json(_record("cp-check", args, doc, result)))
    return 0 if is_cp else _EXIT_DOMAIN


def _cmd_entropy_check(args) -> int:
    doc = validate_config(args.config, "entropy-check")
    model = _model_from(doc["model"])
    rho0 = quantum.DensityMatrix.from_matrix(
        _matrix_from(doc["rho0"], "rho0", model.dim)
    )
    eps = 1e-5
    times = _times_from(doc)
    # one pass over the interleaved grid t, t + eps, t - eps (0 when t < eps)
    grid = [s for t in times for s in (t, t + eps, t - eps if t >= eps else 0.0)]
    states = lindblad.evolve_many(model, rho0, grid)
    rows = []
    ok = True
    for k, t in enumerate(times):
        rho, rho_plus, rho_minus = states[3 * k:3 * k + 3]
        rate = quantum.entropy_rate(rho, model.lindblads)
        s_plus = quantum.vn_entropy(rho_plus)
        s_minus = quantum.vn_entropy(rho_minus)
        fd = (s_plus - s_minus) / (2 * eps if t >= eps else eps)
        rows.append({"t": t, "rate": rate, "central_difference": fd})
        if model.balanced and rate < -1e-12:
            ok = False
        if abs(rate - fd) > 1e-6:
            ok = False
    if args.format == "csv":
        lines = ["t,rate,central_difference"]
        lines += [f"{r['t']!r},{r['rate']!r},{r['central_difference']!r}" for r in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, canonical_json(_record(
            "entropy-check", args, doc,
            {"rows": rows, "balanced": model.balanced, "passed": ok},
        )))
    return 0 if ok else _EXIT_DOMAIN


def _cmd_extract_generator(args) -> int:
    doc = validate_config(args.config, "extract-generator")
    model = _model_from(doc["model"])
    h = float(doc["h"])
    scheme = doc["scheme"]
    gen = lindblad.build_superoperator(model)
    samples = [
        (tau, channels.kernel_from_generator(gen, tau))
        for tau in (h, 2 * h, 4 * h)
    ]
    est = channels.extract_generator(samples, scheme)
    rich = channels.extract_generator_richardson(samples)
    scale = float(np.linalg.norm(gen))
    result = {
        "h": h,
        "scheme": scheme,
        "relative_error": float(np.linalg.norm(est - gen)) / scale,
        "richardson_relative_error": float(np.linalg.norm(rich - gen)) / scale,
    }
    _emit(args, canonical_json(_record("extract-generator", args, doc, result)))
    return 0


_HANDLERS = {
    "ramsey-scan": _cmd_ramsey_scan,
    "ramsey-point": _cmd_ramsey_point,
    "lindblad-evolve": _cmd_lindblad_evolve,
    "lindblad-spectrum": _cmd_lindblad_spectrum,
    "born-check": _cmd_born_check,
    "cp-check": _cmd_cp_check,
    "entropy-check": _cmd_entropy_check,
    "extract-generator": _cmd_extract_generator,
}

_DEFAULT_CONFIGS = {
    "ramsey-scan": "fig-both",
    "ramsey-point": "fig1",
    "lindblad-evolve": "model-qubit",
    "lindblad-spectrum": "model-qubit",
    "born-check": "born-d3",
    "cp-check": "kernel-transpose",
    "entropy-check": "model-qubit",
    "extract-generator": "model-qubit",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindkit",
        description="Open-quantum-system experiments: Ramsey scans, Lindblad "
        "evolution and spectra, Born-rule and complete-positivity checks.",
    )
    parser.add_argument("--version", action="version", version=f"lindkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument(
            "--config",
            default=_DEFAULT_CONFIGS[name],
            help="JSON config path, or a bundled name: "
            + ", ".join(sorted(_BUNDLED))
            + (" (default fig-both: both figure curves side by side)"
               if name == "ramsey-scan" else ""),
        )
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for any stochastic step")
        if name.startswith("ramsey"):
            p.add_argument("--theory", choices=("standard", "modified"), default=None,
                           help="override the theory named in the config")
            p.add_argument("--truncate-gaussian", action="store_true",
                           help="clip the transit-time weight at T = 0 and renormalize")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    csv_capable = {"ramsey-scan", "lindblad-spectrum", "entropy-check"}
    try:
        if args.format == "csv" and args.command not in csv_capable:
            raise ConfigParse(
                f"{args.command} emits JSON records only; csv applies to "
                + ", ".join(sorted(csv_capable))
            )
        # every warning the handler raises goes into the record's warnings
        # field, or to stderr for CSV output, which has no record
        with warnings.catch_warnings(record=True) as args.warnings:
            warnings.simplefilter("always")
            code = args.handler(args)
        if args.format == "csv":
            for w in args.warnings:
                sys.stderr.write(f"lindkit: warning: {w.message}\n")
        return code
    except ConfigParse as exc:
        _emit_error(args, exc, _EXIT_CONFIG)
        return _EXIT_CONFIG
    except LindkitError as exc:
        _emit_error(args, exc, _EXIT_DOMAIN)
        return _EXIT_DOMAIN
    except _IoFailure as exc:
        sys.stderr.write(f"lindkit: I/O error: {exc}\n")
        return _EXIT_IO
    except OSError as exc:
        sys.stderr.write(f"lindkit: I/O error: {exc}\n")
        return _EXIT_IO


def _emit_error(args, exc: Exception, code: int):
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "field": getattr(exc, "field", None),
            "exit_code": code,
        },
    }
    sys.stderr.write(canonical_json(record))


if __name__ == "__main__":
    sys.exit(main())
