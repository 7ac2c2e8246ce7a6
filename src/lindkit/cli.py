"""Command-line front end.

Every subcommand runs in three steps.  Its parse reads the JSON config once
into the typed inputs of its experiment: every key present goes through its
one strict reader, so an unknown key, a value of the wrong type (a number is
a JSON number, never ``true``, ``false`` or a string), a non-finite number or
a broken physical invariant is rejected before any computation.  The four
model commands share one parse and the two Ramsey commands another; the
commands of a kind differ only in the keys they require.  The handler then
runs the experiment and returns its exit code, its result and, for a tabular
command, the table its CSV holds: the ``records.Rows`` of the record, or for
the side-by-side scan one over the two records' columns.  Last, :func:`main`
alone writes the output: the JSON record of the config and result, or the
CSV table.  Outputs carry no timestamps and all randomness is seeded, so
identical config + seed gives byte-identical output.

Exit codes: 0 success, 2 config error, 3 domain error (including a failed
check, e.g. a non-CP kernel), 4 I/O error.  Every malformed config exits 2
with an error record on stderr whose ``field`` names the offending key.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from importlib import resources

import numpy as np

from . import __version__, channels, lindblad, quantum, ramsey
from .errors import ConfigParse, LindkitError
from .records import (Rows, canonical_json, check_keys, complex_matrix, field, integer,
                      one_of, real, reals, within)

SCHEMA_VERSION = 1

_BUNDLED = {
    "fig1": "fig1.json",
    "fig2": "fig2.json",
    "born-d3": "born_d3.json",
    "kernel-transpose": "kernel_transpose.json",
    "model-qubit": "model_qubit.json",
}

_EXIT_CONFIG, _EXIT_DOMAIN, _EXIT_IO = 2, 3, 4


def bundled_config_path(name: str):
    return resources.files(__package__).joinpath("configs", _BUNDLED[name])


@functools.cache
def _bundled_text(name: str) -> str:
    """The text of the bundled config ``name``, read once per process: a
    package resource does not change while the package runs."""
    return bundled_config_path(name).read_text()


def _read_config(path: str) -> dict:
    """A new document of the config ``path`` on every call, so no caller
    shares the document another call returned."""
    if path in _BUNDLED:
        text = _bundled_text(path)
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


def _density(doc, dim: int) -> quantum.DensityMatrix:
    check_keys(doc, "rho0", {"re"}, {"im"})
    with within("rho0"):
        matrix = complex_matrix(doc, "re", "im", (dim, dim))
    return quantum.DensityMatrix.from_matrix(matrix)


def _grid(doc) -> np.ndarray:
    if "values" in doc:
        return ramsey.detuning_grid(reals(check_keys(doc, "grid", {"values"})["values"]))
    check_keys(doc, "grid", {"start", "stop", "points"})
    return ramsey.detuning_grid(np.linspace(real(doc["start"]), real(doc["stop"]),
                                            integer(doc["points"], 2)))


def _times(value) -> list[float]:
    times = reals(value)
    if times.ndim != 1 or (times < 0).any():
        raise ValueError("expected a list of finite nonnegative numbers")
    return times.tolist()


# ---------------------------------------------------------------------------
# Config parses: the only readers of a config document.  A parse reads every
# key present, whichever command uses it, and returns the typed inputs of the
# command's handler; ``required`` names the keys the command needs besides
# those every command of the kind needs.
# ---------------------------------------------------------------------------

_THEORIES = ("standard", "modified")


def _parse_ramsey(doc, required=()):
    """(config, theory, detuning grid or None) of a Ramsey config."""
    check_keys(doc, "config", {"ramsey", "theory", *required}, {"grid"})
    return (ramsey.RamseyConfig.from_dict(doc["ramsey"]),
            field(doc, "theory", one_of, _THEORIES),
            field(doc, "grid", _grid) if "grid" in doc else None)


def _parse_model(doc, required=()):
    """(model, rho0, times, h, scheme) of a model config, None for each
    optional key it lacks."""
    check_keys(doc, "config", {"model", *required}, {"rho0", "times", "h", "scheme"})
    model = lindblad.LindbladModel.from_dict(doc["model"])
    return (model,
            _density(doc["rho0"], model.dim) if "rho0" in doc else None,
            field(doc, "times", _times) if "times" in doc else None,
            field(doc, "h", real, low=0.0, strict=True) if "h" in doc else None,
            field(doc, "scheme", one_of, ("central", "forward")) if "scheme" in doc else None)


def _parse_born(doc):
    check_keys(doc, "config", {"dim", "l_re", "h", "horizon_over_gamma", "tol"},
               {"l_im", "rho0"})
    d = field(doc, "dim", integer, 1)
    rho0 = _density(doc["rho0"], d) if "rho0" in doc else None
    # one row of d coefficients per operator; a flat l_re is one operator's row
    rows = len(doc["l_re"]) if field(doc, "l_re", np.ndim) == 2 else 1
    l_coeffs = complex_matrix(doc, "l_re", "l_im", (rows, d))
    h = field(doc, "h", reals, (d,))
    model = lindblad.measurement_model(quantum.ProjectorBasis.computational(d), l_coeffs, h)
    return (model, rho0, field(doc, "horizon_over_gamma", real, low=0.0),
            field(doc, "tol", real, low=0.0))


def _load(command: str, path: str):
    """(document, handler, handler inputs) of the config ``path`` for
    ``command``: the document as the record embeds it, read and parsed once.
    ramsey-scan's default, fig-both, is the document {"fig1": ..., "fig2": ...},
    each parsed as a ramsey-scan config, and runs side by side on one grid:
    the two grids must be equal bit for bit."""
    if command == "ramsey-scan" and path == "fig-both":
        doc = {name: _read_config(name) for name in ("fig1", "fig2")}
        parsed = [_parse_ramsey(part, required={"grid"}) for part in doc.values()]
        if parsed[0][2].tobytes() != parsed[1][2].tobytes():  # 1-d float arrays: bits, length
            raise ConfigParse("fig2: grid differs from fig1's grid", field="grid")
        return doc, _ramsey_scan_side_by_side, (parsed,)
    parse, handler, _, _ = _COMMANDS[command]
    doc = _read_config(path)
    return doc, handler, parse(doc)


def validate_config(path: str, command: str) -> dict:
    """Parse and fully validate a config file for ``command``.

    Runs the command's own parse, which checks every physical invariant of
    the embedded objects before any computation and rejects unknown keys;
    returns the parsed document, the one the command's record embeds.
    Emitting the result with canonical_json, re-parsing, and emitting again
    is byte-identical.
    """
    if command not in _COMMANDS:
        raise ConfigParse(f"unknown command {command!r}")
    return _load(command, path)[0]


def _record(args, config_doc, result, caught) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "flags": {
            "config": args.config,
            "format": args.format,
            "seed": args.seed,
            "theory": getattr(args, "theory", None),
            "truncate_gaussian": getattr(args, "truncate_gaussian", False),
        },
        "config": config_doc,
        "result": result,
        "warnings": [str(w.message) for w in caught],
    }


def _csv(table: Rows) -> str:
    """CSV text of ``table``: its keys in insertion order, then one line per
    row, floats written with ``float.__repr__`` and anything else (class
    labels) with ``str``."""
    lines = [",".join(table.columns)]
    lines += [",".join(float.__repr__(x) if isinstance(x, float) else str(x) for x in row)
              for row in zip(*table.columns.values())]
    return "\n".join(lines) + "\n"


def _emit(args, text: str):
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed inputs and returns the process
# exit code, the record's result and, for a tabular command, the Rows its CSV
# holds (None for any other)
# ---------------------------------------------------------------------------

def _scan_record(scan, grid: list) -> dict:
    """The ``lindkit.scan/1`` document of ``scan``, its rows on ``grid``."""
    return {"schema": "lindkit.scan/1", "theory": scan.theory,
            "config": scan.config.to_dict(),
            "rows": Rows(delta_omega=grid, pb_e=scan.pb_e.tolist(),
                         pb_e_avg=scan.pb_e_avg.tolist())}


def _cmd_ramsey_scan(args, cfg, theory, grid):
    result = ramsey.scan(cfg, grid, args.theory or theory, truncate=args.truncate_gaussian)
    doc = _scan_record(result, result.delta_omegas.tolist())
    return 0, doc, doc["rows"]


def _ramsey_scan_side_by_side(args, parsed):
    """Default run: the standard and modified figure curves, one per parsed
    config, next to each other on the one detuning grid, written once.  Each
    curve is its config's theory, so ``--theory`` has nothing to override."""
    if args.theory is not None:
        raise ConfigParse("--theory does not apply to the default fig-both run, which scans "
                          "each figure under its own theory; name one config with --config",
                          field="--theory")
    grid = parsed[0][2]
    column = grid.tolist()
    docs = {theory: _scan_record(
        ramsey.scan(cfg, grid, theory, truncate=args.truncate_gaussian), column)
        for cfg, theory, _ in parsed}
    std, mod = (docs[theory]["rows"].columns for theory in ("standard", "modified"))
    return 0, docs, Rows(delta_omega=column, pb_e_standard=std["pb_e"],
                         pb_e_avg_standard=std["pb_e_avg"], pb_e_modified=mod["pb_e"],
                         pb_e_avg_modified=mod["pb_e_avg"])


def _cmd_ramsey_point(args, cfg, theory, *_):
    dw, pb, avg = ramsey.point(cfg, args.theory or theory, truncate=args.truncate_gaussian)
    return 0, {"delta_omega": dw, "pb_e": pb, "pb_e_avg": avg}, None


def _cmd_lindblad_evolve(args, model, rho0, times, *_):
    rhos = lindblad.evolve_many(model, rho0, times)
    states = Rows(t=times, re=rhos.matrices.real, im=rhos.matrices.imag,
                  trace=np.trace(rhos.matrices, axis1=1, axis2=2).real.tolist(),
                  entropy=quantum.vn_entropies(rhos.eigenvalues).tolist(),
                  repaired=rhos.repaired.tolist())
    return 0, {"states": states}, None


def _cmd_lindblad_spectrum(args, model, *_):
    spec = lindblad.spectrum(model)
    modes = Rows(re_mu=spec.mus.real.tolist(), im_mu=spec.mus.imag.tolist(),
                 **{"class": spec.classifications})
    return 0, {"modes": modes, "balanced": model.balanced}, modes


def _cmd_born_check(args, model, rho0, horizon_over_gamma, tol):
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
    converged, residual = lindblad.born_limit_check(model, rho0, horizon, tol, dm)
    result = {
        "gamma_min": gamma_min,
        "horizon": horizon,
        "residual": residual,
        "tol": tol,
        "converged": bool(converged),
    }
    return (0 if converged else _EXIT_DOMAIN), result, None


def _cmd_cp_check(args, kernel):
    is_cp, spec = channels.choi_cp_test(kernel)
    result = {
        "is_cp": bool(is_cp),
        "choi_eigenvalues": spec.lambdas.tolist(),
        "min_eigenvalue": float(spec.lambdas.min()),
        "eigenvalue_sum": float(spec.lambdas.sum()),
    }
    return (0 if is_cp else _EXIT_DOMAIN), result, None


def _cmd_entropy_check(args, model, rho0, times, *_):
    eps = 1e-5
    # the states at t, t + eps and max(t - eps, 0): the times evolved once and
    # the +-eps steps taken for all of them at once; the quotient's span is
    # 2 eps, or t + eps for t < eps
    states, plus, minus = lindblad.evolve_stencil(model, rho0, times, eps)
    rates = quantum.entropy_rates(states.matrices, model.lindblads)
    s_plus = quantum.vn_entropies(plus.eigenvalues)
    s_minus = quantum.vn_entropies(minus.eigenvalues)
    balanced = model.balanced
    fd = (s_plus - s_minus) / (np.minimum(times, eps) + eps)
    ok = not (balanced and (rates < -1e-12).any()) and not (np.abs(rates - fd) > 1e-6).any()
    rows = Rows(t=times, rate=rates.tolist(), central_difference=fd.tolist())
    result = {"rows": rows, "balanced": balanced, "passed": ok}
    return (0 if ok else _EXIT_DOMAIN), result, rows


def _cmd_extract_generator(args, model, _rho0, _times, h, scheme):
    gen = lindblad.build_superoperator(model)
    taus = (h, 2 * h, 4 * h)
    samples = list(zip(taus, channels.kernels_from_generator(gen, taus)))
    est, rich = channels.extract_generators(samples, (scheme, "richardson"))
    # a zero generator's estimates are exactly 0, and so are their errors
    scale = float(np.linalg.norm(gen)) or 1.0
    result = {
        "h": h,
        "scheme": scheme,
        "relative_error": float(np.linalg.norm(est - gen)) / scale,
        "richardson_relative_error": float(np.linalg.norm(rich - gen)) / scale,
    }
    return 0, result, None


# command -> (parse, handler, default config, whether it writes CSV): the
# parse reads the config document once and its result is the handler's input
_COMMANDS = {
    "ramsey-scan": (functools.partial(_parse_ramsey, required={"grid"}), _cmd_ramsey_scan,
                    "fig-both", True),
    "ramsey-point": (_parse_ramsey, _cmd_ramsey_point, "fig1", False),
    "lindblad-evolve": (functools.partial(_parse_model, required={"rho0", "times"}),
                        _cmd_lindblad_evolve, "model-qubit", False),
    "lindblad-spectrum": (_parse_model, _cmd_lindblad_spectrum, "model-qubit", True),
    "born-check": (_parse_born, _cmd_born_check, "born-d3", False),
    "cp-check": (lambda doc: (channels.Kernel.from_dict(doc),), _cmd_cp_check,
                 "kernel-transpose", False),
    "entropy-check": (functools.partial(_parse_model, required={"rho0", "times"}),
                      _cmd_entropy_check, "model-qubit", True),
    "extract-generator": (functools.partial(_parse_model, required={"h", "scheme"}),
                          _cmd_extract_generator, "model-qubit", False),
}


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


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
    parser.command_parsers = sub.choices  # name -> that command's parser, for main
    for name, (_, handler, default_config, _) in _COMMANDS.items():
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
        p.add_argument("--seed", type=_seed, default=0,
                       help="seed for any stochastic step (an integer >= 0)")
        if name.startswith("ramsey"):
            p.add_argument("--theory", choices=_THEORIES, default=None,
                           help="override the theory named in the config")
            p.add_argument("--truncate-gaussian", action="store_true",
                           help="clip the transit-time weight at T = 0 and renormalize")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: when ``argv`` starts with a
    command, the namespace of that command's parser on the rest of it, with
    ``command`` set, and the full parser's otherwise (``--help``,
    ``--version``, a missing or unknown command).  An argument the command
    does not know is reported by the command's parser, under its own
    ``prog``."""
    parser = build_parser()
    command = parser.command_parsers.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    tabular = _COMMANDS[args.command][3]
    try:
        if args.format == "csv" and not tabular:
            raise ConfigParse(
                f"{args.command} emits JSON records only; csv applies to "
                + ", ".join(sorted(name for name, c in _COMMANDS.items() if c[3]))
            )
        # every warning the handler raises goes into the record's warnings
        # field, or to stderr for CSV output, which has no record
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc, handler, inputs = _load(args.command, args.config)
            code, result, table = handler(args, *inputs)
        if args.format == "csv":
            _emit(args, _csv(table))
            for w in caught:
                sys.stderr.write(f"lindkit: warning: {w.message}\n")
        else:
            _emit(args, canonical_json(_record(args, doc, result, caught)))
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
