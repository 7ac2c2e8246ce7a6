"""Command-line front end.

Every subcommand reads a single JSON config, parses it once into the typed
inputs of its experiment (strictly: unknown keys are rejected and physical
invariants are checked before any computation), runs the experiment, and
emits a machine-readable record.  Outputs carry no timestamps and all
randomness is seeded, so identical config + seed gives byte-identical output.

Exit codes: 0 success, 2 config error, 3 domain error (including a failed
check, e.g. a non-CP kernel), 4 I/O error.  Every malformed config exits 2
with an error record on stderr whose ``field`` names the offending key.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from importlib import resources
from json.encoder import encode_basestring_ascii

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
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    written directly.

    With ``indent`` set, ``json`` formats through its pure-Python encoder,
    which costs an interpreter round trip per value; records here are mostly
    long lists of floats (the evolved states), so a list of floats only is one
    join over ``float.__repr__``, the repr ``json`` uses, checked with one
    ``math.isfinite`` pass.  Everything else follows ``json``: keys in
    ``sorted(doc.items())`` order, int, float, bool and None keys converted
    the same way, int and float subclasses written as plain numbers, strings
    through ``encode_basestring_ascii``, and the same TypeError for an object
    it cannot serialize and ValueError for NaN, infinity or a circular
    reference.
    """
    out = []
    _encode(doc, out, "\n", set())
    out.append("\n")
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True or key is False or key is None:
        return _LITERALS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _encode(o, out: list, nl: str, path: set) -> None:
    """Append the canonical form of ``o`` to ``out``.  ``nl`` is a newline
    and the indentation of the line ``o`` ends on; ``path`` holds the ids of
    the containers ``o`` is nested in."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append(_LITERALS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        try:
            floats = ("," + inner).join(map(float.__repr__, o))
        except TypeError:  # an item that is not a float: written one by one below
            pass
        else:
            if not all(map(math.isfinite, o)):
                for x in o:
                    _float_text(x)  # raises at the first NaN or infinity
            out += ("[", inner, floats, nl, "]")
            return
        _enter(o, path)
        out.append("[")
        for k, item in enumerate(o):
            out.append("," + inner if k else inner)
            _encode(item, out, inner, path)
        out += (nl, "]")
        path.remove(id(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        _enter(o, path)
        inner = nl + "  "
        out.append("{")
        for k, (key, value) in enumerate(sorted(o.items())):
            out += ("," + inner if k else inner,
                    encode_basestring_ascii(_key_text(key)), ": ")
            _encode(value, out, inner, path)
        out += (nl, "}")
        path.remove(id(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _enter(container, path: set) -> None:
    if id(container) in path:
        raise ValueError("Circular reference detected")
    path.add(id(container))


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
    for key, value in doc.items():
        name = _non_finite(value, key)
        if name is not None:
            raise ConfigParse(f"{name} must be finite", field=key)
    return doc


def _non_finite(value, name: str):
    """Innermost key of a NaN or infinite number in ``value``, else None."""
    if isinstance(value, float):
        return None if abs(value) <= sys.float_info.max else name  # NaN fails too
    pairs = value.items() if isinstance(value, dict) else (
        [(name, item) for item in value] if isinstance(value, list) else ())
    for key, item in pairs:
        found = _non_finite(item, key)
        if found is not None:
            return found
    return None


def _check_keys(doc, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(doc, dict):
        raise ConfigParse(f"{where}: expected a JSON object", field=where)
    missing = required - doc.keys()
    if missing:
        raise ConfigParse(f"{where}: missing keys {sorted(missing)}", field=sorted(missing)[0])
    unknown = doc.keys() - required - optional
    if unknown:
        raise ConfigParse(f"{where}: unknown keys {sorted(unknown)}", field=sorted(unknown)[0])


def _field(doc: dict, key: str, parse, *args, **kwargs):
    """``parse(doc[key], ...)``: a value of the wrong type or form becomes a
    ConfigParse naming ``key``; a lindkit error keeps its own type."""
    try:
        return parse(doc[key], *args, **kwargs)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigParse(f"{key}: {exc}", field=key) from exc


def _real(value, low: float | None = None, strict: bool = False) -> float:
    """A finite number, at least ``low`` (above it if ``strict``)."""
    x = float(value)
    if not np.isfinite(x) or low is not None and (x < low or strict and x == low):
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValueError(f"expected a finite number{bound}, got {value!r}")
    return x


def _reals(value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    return a


def _integer(value, low: int) -> int:
    n = int(value)
    if n != value or n < low:
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    return n


def _one_of(value, options: tuple):
    if value not in options:
        raise ValueError(f"expected one of {list(options)}, got {value!r}")
    return value


def _matrix_from(doc, where: str, dim: int) -> np.ndarray:
    _check_keys(doc, where, {"re"}, {"im"})
    re = _reals(doc["re"]).reshape(-1)
    im = _reals(doc.get("im", np.zeros_like(re))).reshape(-1)
    if re.size != dim * dim or im.size != dim * dim:
        raise ConfigParse(f"{where}: expected {dim*dim} entries", field=where)
    return (re + 1j * im).reshape(dim, dim)


def _density(doc, dim: int) -> quantum.DensityMatrix:
    return quantum.DensityMatrix.from_matrix(_matrix_from(doc, "rho0", dim))


def _ramsey(doc) -> ramsey.RamseyConfig:
    optional = {"u_eg_im", "lambda_tilde_re", "lambda_tilde_im"}
    _check_keys(doc, "ramsey",
                {"e_g", "e_e", "u_eg_re", "omega", "tau", "t_free", "t0", "sigma"}, optional)
    return ramsey.RamseyConfig.from_dict(doc)


def _model(doc) -> lindblad.LindbladModel:
    _check_keys(doc, "model", {"schema", "dim", "h_re", "h_im", "lindblads"})
    try:
        return lindblad.LindbladModel.from_dict(doc)
    except LindkitError as exc:
        raise ConfigParse(f"model: {exc}", field="model") from exc


def _grid(doc) -> np.ndarray:
    if "values" in doc:
        _check_keys(doc, "grid", {"values"})
        grid = np.asarray(doc["values"], dtype=float)
    else:
        _check_keys(doc, "grid", {"start", "stop", "points"})
        grid = np.linspace(_real(doc["start"]), _real(doc["stop"]),
                           _integer(doc["points"], 2))
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) < 0):
        raise ValueError("expected a non-empty ascending list of finite detunings")
    return grid


def _times(value) -> list[float]:
    # the bound also rejects NaN, inf and integers beyond the float range
    if not isinstance(value, list) or not all(
        type(t) in (int, float) and 0 <= t <= sys.float_info.max for t in value
    ):
        raise ValueError("expected a list of finite nonnegative numbers")
    return [float(t) for t in value]


# ---------------------------------------------------------------------------
# Config parses: the only readers of a config document.  Each checks every
# key its command uses and returns the typed inputs of the command's handler.
# ---------------------------------------------------------------------------

_THEORIES = ("standard", "modified")


def _parse_ramsey_point(doc):
    _check_keys(doc, "config", {"ramsey", "theory"}, {"grid"})
    return _field(doc, "ramsey", _ramsey), _field(doc, "theory", _one_of, _THEORIES)


def _parse_ramsey_scan(doc):
    _check_keys(doc, "config", {"ramsey", "theory", "grid"})
    return (*_parse_ramsey_point(doc), _field(doc, "grid", _grid))


def _parse_evolve(doc):
    _check_keys(doc, "config", {"model", "rho0", "times"}, {"h", "scheme"})
    model = _field(doc, "model", _model)
    times = _field(doc, "times", _times)
    return model, _field(doc, "rho0", _density, model.dim), times


def _parse_spectrum(doc):
    _check_keys(doc, "config", {"model"}, {"rho0", "times", "h", "scheme"})
    return (_field(doc, "model", _model),)


def _parse_born(doc):
    _check_keys(doc, "config", {"dim", "l_re", "h", "horizon_over_gamma", "tol"},
                {"l_im", "rho0"})
    d = _field(doc, "dim", _integer, 1)
    rho0 = _field(doc, "rho0", _density, d) if "rho0" in doc else None
    l_re = _field(doc, "l_re", _reals)
    l_coeffs = l_re + 1j * np.zeros_like(l_re)
    if "l_im" in doc:
        l_coeffs = _field(doc, "l_im", lambda l_im: l_re + 1j * _reals(l_im))
    basis = quantum.ProjectorBasis.computational(d)
    model = lindblad.measurement_model(basis, l_coeffs, _field(doc, "h", _reals))
    return (model, rho0, _field(doc, "horizon_over_gamma", _real, low=0.0),
            _field(doc, "tol", _real))


def _parse_cp(doc):
    _check_keys(doc, "config",
                {"schema", "dim", "tau", "re", "im"} | channels.KERNEL_CONVENTIONS.keys())
    for key, value in channels.KERNEL_CONVENTIONS.items():
        _field(doc, key, _one_of, (value,))
    try:
        return (channels.Kernel.from_dict(doc),)
    except (TypeError, ValueError, OverflowError, LindkitError) as exc:
        raise ConfigParse(str(exc)) from exc


def _parse_extract(doc):
    _check_keys(doc, "config", {"model", "h", "scheme"}, {"rho0", "times"})
    return (_field(doc, "model", _model), _field(doc, "h", _real, low=0.0, strict=True),
            _field(doc, "scheme", _one_of, ("central", "forward")))


def validate_config(path: str, command: str) -> dict:
    """Parse and fully validate a config file for ``command``.

    Runs the command's own parse, which checks every physical invariant of
    the embedded objects before any computation and rejects unknown keys;
    returns the parsed document.  Emitting the result with canonical_json,
    re-parsing, and emitting again is byte-identical.
    """
    if command not in _COMMANDS:
        raise ConfigParse(f"unknown command {command!r}")
    doc = _read_config(path)
    _COMMANDS[command][0](doc)
    return doc


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


def _csv(header, rows) -> str:
    """CSV text: the ``header`` names, then one line per row, floats written
    with ``float.__repr__`` and anything else (class labels) with ``str``."""
    lines = [",".join(header)]
    lines += [",".join(float.__repr__(x) if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _emit(args, text: str):
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed inputs, echoes the config
# document into its record unchanged, and returns the process exit code
# ---------------------------------------------------------------------------

def _cmd_ramsey_scan(args, doc, cfg, theory, grid) -> int:
    result = ramsey.scan(cfg, grid, args.theory or theory, truncate=args.truncate_gaussian)
    if args.format == "csv":
        _emit(args, _csv(("delta_omega", "pb_e", "pb_e_avg"), zip(
            result.delta_omegas.tolist(), result.pb_e.tolist(), result.pb_e_avg.tolist())))
    else:
        _emit(args, canonical_json(_record("ramsey-scan", args, doc, result.to_dict())))
    return 0


def _ramsey_scan_side_by_side(args) -> int:
    """Default run: the standard and modified figure curves next to each
    other on the shared detuning grid."""
    results, docs = {}, {}
    for name in ("fig1", "fig2"):
        docs[name] = _read_config(name)
        cfg, theory, grid = _parse_ramsey_scan(docs[name])
        results[theory] = ramsey.scan(cfg, grid, theory, truncate=args.truncate_gaussian)
    std, mod = results["standard"], results["modified"]
    if args.format == "csv":
        columns = (std.delta_omegas, std.pb_e, std.pb_e_avg, mod.pb_e, mod.pb_e_avg)
        _emit(args, _csv(("delta_omega", "pb_e_standard", "pb_e_avg_standard",
                          "pb_e_modified", "pb_e_avg_modified"),
                         zip(*(c.tolist() for c in columns))))
    else:
        _emit(args, canonical_json(_record(
            "ramsey-scan", args, docs,
            {"standard": std.to_dict(), "modified": mod.to_dict()},
        )))
    return 0


def _cmd_ramsey_point(args, doc, cfg, theory) -> int:
    theory = args.theory or theory
    pb = ramsey.protocol(cfg, theory)
    avg = ramsey.gaussian_fraction(cfg, theory, truncate=args.truncate_gaussian)
    result = {
        "delta_omega": ramsey.derive(cfg).delta_omega,
        "pb_e": pb,
        "pb_e_avg": avg,
    }
    _emit(args, canonical_json(_record("ramsey-point", args, doc, result)))
    return 0


def _cmd_lindblad_evolve(args, doc, model, rho0, times) -> int:
    rhos = lindblad.evolve_many(model, rho0, times)
    states = [
        {
            "t": t,
            "re": rho.matrix.real.reshape(-1).tolist(),
            "im": rho.matrix.imag.reshape(-1).tolist(),
            "trace": float(np.trace(rho.matrix).real),
            "entropy": float(entropy),
            "repaired": rho.repaired,
        }
        for t, rho, entropy in zip(times, rhos, quantum.vn_entropies(rhos))
    ]
    _emit(args, canonical_json(
        _record("lindblad-evolve", args, doc, {"states": states})
    ))
    return 0


def _cmd_lindblad_spectrum(args, doc, model) -> int:
    spec = lindblad.spectrum(model)
    columns = (spec.mus.real.tolist(), spec.mus.imag.tolist(), spec.classifications)
    if args.format == "csv":
        _emit(args, _csv(("re_mu", "im_mu", "class"), zip(*columns)))
    else:
        rows = [{"re_mu": re, "im_mu": im, "class": cls} for re, im, cls in zip(*columns)]
        _emit(args, canonical_json(_record(
            "lindblad-spectrum", args, doc,
            {"modes": rows, "balanced": model.balanced},
        )))
    return 0


def _cmd_born_check(args, doc, model, rho0, horizon_over_gamma, tol) -> int:
    if rho0 is None:
        rng = np.random.default_rng(args.seed)
        v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
        rho0 = quantum.DensityMatrix.pure(v / np.linalg.norm(v))
    dm = lindblad.decay_matrix(model)
    gamma_min = dm.gamma_min()
    if gamma_min <= 0:
        raise ConfigParse("model has no decaying coherences; Born limit is empty",
                          field="l_re")
    horizon = horizon_over_gamma / gamma_min
    converged, residual = lindblad.born_limit_check(model, rho0, horizon, tol)
    result = {
        "gamma_min": gamma_min,
        "horizon": horizon,
        "residual": residual,
        "tol": tol,
        "converged": bool(converged),
    }
    _emit(args, canonical_json(_record("born-check", args, doc, result)))
    return 0 if converged else _EXIT_DOMAIN


def _cmd_cp_check(args, doc, kernel) -> int:
    is_cp, spec = channels.choi_cp_test(kernel)
    result = {
        "is_cp": bool(is_cp),
        "choi_eigenvalues": spec.lambdas.tolist(),
        "min_eigenvalue": float(spec.lambdas.min()),
        "eigenvalue_sum": float(spec.lambdas.sum()),
    }
    _emit(args, canonical_json(_record("cp-check", args, doc, result)))
    return 0 if is_cp else _EXIT_DOMAIN


def _cmd_entropy_check(args, doc, model, rho0, times) -> int:
    eps = 1e-5
    # one pass over the interleaved grid t, t + eps, t - eps (0 when t < eps)
    grid = [s for t in times for s in (t, t + eps, t - eps if t >= eps else 0.0)]
    states = lindblad.evolve_many(model, rho0, grid)
    rates = quantum.entropy_rates(states[0::3], model.lindblads)
    s_plus = quantum.vn_entropies(states[1::3])
    s_minus = quantum.vn_entropies(states[2::3])
    balanced = model.balanced
    fd = (s_plus - s_minus) / np.where(np.array(times) >= eps, 2 * eps, eps)
    ok = not (balanced and (rates < -1e-12).any()) and not (np.abs(rates - fd) > 1e-6).any()
    columns = (times, rates.tolist(), fd.tolist())
    if args.format == "csv":
        _emit(args, _csv(("t", "rate", "central_difference"), zip(*columns)))
    else:
        rows = [{"t": t, "rate": r, "central_difference": c} for t, r, c in zip(*columns)]
        _emit(args, canonical_json(_record(
            "entropy-check", args, doc,
            {"rows": rows, "balanced": balanced, "passed": ok},
        )))
    return 0 if ok else _EXIT_DOMAIN


def _cmd_extract_generator(args, doc, model, h, scheme) -> int:
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


# command -> (parse, handler, default config): the parse reads the config
# document once and its result is the handler's input
_COMMANDS = {
    "ramsey-scan": (_parse_ramsey_scan, _cmd_ramsey_scan, "fig-both"),
    "ramsey-point": (_parse_ramsey_point, _cmd_ramsey_point, "fig1"),
    "lindblad-evolve": (_parse_evolve, _cmd_lindblad_evolve, "model-qubit"),
    "lindblad-spectrum": (_parse_spectrum, _cmd_lindblad_spectrum, "model-qubit"),
    "born-check": (_parse_born, _cmd_born_check, "born-d3"),
    "cp-check": (_parse_cp, _cmd_cp_check, "kernel-transpose"),
    "entropy-check": (_parse_evolve, _cmd_entropy_check, "model-qubit"),
    "extract-generator": (_parse_extract, _cmd_extract_generator, "model-qubit"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every call returns
    the same parser, which callers must not modify."""
    parser = argparse.ArgumentParser(
        prog="lindkit",
        description="Open-quantum-system experiments: Ramsey scans, Lindblad "
        "evolution and spectra, Born-rule and complete-positivity checks.",
    )
    parser.add_argument("--version", action="version", version=f"lindkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, handler, default_config) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument(
            "--config",
            default=default_config,
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
            p.add_argument("--theory", choices=_THEORIES, default=None,
                           help="override the theory named in the config")
            p.add_argument("--truncate-gaussian", action="store_true",
                           help="clip the transit-time weight at T = 0 and renormalize")
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
            if args.command == "ramsey-scan" and args.config == "fig-both":
                code = _ramsey_scan_side_by_side(args)
            else:
                parse, handler, _ = _COMMANDS[args.command]
                doc = _read_config(args.config)
                code = handler(args, doc, *parse(doc))
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
