"""Compare the command-line output of lindkit checkouts, case by case.

    python3 tools/cli_digest.py --src ../parent/src --src src

Each ``--src`` directory holds a lindkit package.  For each, a child process
runs every case in-process (``cli.main``) and records its exit code and the
sha256 of its stdout and of its stderr.  The cases are:

- the 8 subcommands on their default configs as JSON, and the 3 CSV-capable
  ones (ramsey-scan, lindblad-spectrum, entropy-check) as CSV;
- ramsey-scan and ramsey-point on their default configs with each
  ``--theory`` (standard, modified), each with and without
  ``--truncate-gaussian``;
- single-key mutations of each bundled config, run by the subcommand that
  reads it: every object key and the first entry of every list set to each
  of VALUES in turn, every object key removed, and an unknown key added to
  every object.  The two Ramsey subcommands run each of their cases, and
  their default-config cases, both as they are and with
  ``--truncate-gaussian``, the transit-time average over T >= 0 only;
- the top-level keys of EXTRA set to values that VALUES does not hold:
  extract-generator's forward scheme, an h whose Richardson step 2h is
  too large while the central step h is not, and the subnormal h = 1e-320,
  whose difference quotients overflow (exit 3 with Overflow);
- lindblad-evolve and entropy-check on a seeded generic model for each d in
  GENERIC_DIMS (a random Hamiltonian and two random Lindblad operators,
  scaled to ||L||_1 = d^2 as in perfbench's dynamics workload, and a
  full-rank initial state), each over the 50-point linspace(0.05, 2, 50),
  at the single time 1.0, so that the stepper runs above d = 2, and over
  the grid [0, 0.5, 0, 5e-6, 2], so that rho0's rows (at t = 0, and the
  entropy stencil's earlier state at t < 1e-5) are written above d = 2;
  entropy-check there as CSV too, and lindblad-spectrum of each model as
  JSON and as CSV, so that the row tables are written above d = 2;
  cp-check of each model's kernel at tau = GENERIC_TAU
  (``channels.kernel_from_generator``, written as its ``lindkit.kernel/1``
  document), so that the Choi spectrum is written above d = 2;
- lindblad-evolve as JSON, over the 50-point grid, of a seeded pure state
  under the Hamiltonian of each generic model alone (no Lindblad operator),
  for d = 1, 2 and each d in GENERIC_DIMS: most of those states are repaired.
  In every lindblad-evolve case each state's parts are written entry by
  entry: by the records writer's numpy kernel where the record's states
  hold at least ``records._REPR_MIN_ENTRIES`` entries (every 50-point grid
  from d = 3 up, and the generic models' 5-point grid from d = 8), and by
  float.__repr__ below that.  The d = 4 pure state, itself repaired, runs the
  grid with zeros too, so that a repaired rho0 flag is written in the
  states at t = 0;
- extract-generator on a seeded measurement model in the computational
  basis for each d in GENERIC_DIMS, as perfbench's dynamics workload builds
  it (a diagonal H and two diagonal Lindblad operators, h = 0.05 / ||L||_F,
  the central scheme), and on the same model with h = 1e300, which exits 3
  with Overflow: a diagonal generator's kernels are ``matcore.expm``'s
  entrywise branch, at and beyond its norm bound;
- lindblad-evolve, entropy-check and extract-generator on the
  pure-dephasing qubit (H = 0, L = sqrt(0.3) sigma_z), model-qubit's config
  with that model, whose exponentials are all diagonal;
- the command lines of ARGV, which the parser answers itself: help,
  version, a missing or unknown command, an option the command does not
  know; each exits through argparse, and its exit status is the case's
  exit code.

There are 2760 cases.

A mutated config is written to the same path for every checkout, since the
record echoes the path.  The tool prints each case whose result differs from
the first checkout's, with each side's exit code and, for an error record,
its error type and field; then, for the differing cases, one count per
(subcommand, top-level config key, first checkout's exit -> this checkout's
exit), with ``-`` for a default-config case; then the number of differing
cases.  A differing case whose stdout holds a record on both sides also
names the keys of the record's ``result`` whose values differ.  It exits 1
when any case differs.
"""
import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# (subcommand, bundled config it mutates)
CONFIGS = [
    ("ramsey-scan", "fig1"), ("ramsey-point", "fig2"), ("lindblad-evolve", "model-qubit"),
    ("lindblad-spectrum", "model-qubit"), ("born-check", "born-d3"),
    ("cp-check", "kernel-transpose"), ("entropy-check", "model-qubit"),
    ("extract-generator", "model-qubit"),
]
VALUES = [None, True, "x", "1", 2.5, 3.0, 0, -1, 1e300, float("nan"), 10**400, [], [1.0], {}]
CSV_COMMANDS = ("ramsey-scan", "lindblad-spectrum", "entropy-check")
# (subcommand, bundled config, top-level key, value) of the further cases
EXTRA = [("extract-generator", "model-qubit", "scheme", "forward"),
         ("extract-generator", "model-qubit", "h", 0.05),
         ("extract-generator", "model-qubit", "h", 1e-320)]
GENERIC_DIMS = (3, 4, 8, 12)
GENERIC_SEED = 30
GENERIC_TAU = 0.5
GRIDS = {"linspace50": np.linspace(0.05, 2.0, 50).tolist(), "single": [1.0],
         "zeros": [0.0, 0.5, 0.0, 5e-06, 2.0]}
# command lines that end in the parser
ARGV = [[], ["--help"], ["--version"], ["no-such-command"], ["ramsey-point", "--help"],
        ["lindblad-evolve", "--bad"], ["ramsey-scan", "--seed", "-1"]]


def _flag_sets(command):
    """The flags each case of ``command`` runs under, in turn."""
    return [[], ["--truncate-gaussian"]] if command.startswith("ramsey") else [[]]


def _named(name, flags):
    return " ".join([name, *flags])


def _paths(doc, prefix=()):
    """Every key of every object, and the first entry of every list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = [(0, doc[0])]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _objects(doc, prefix=()):
    """The path of every object in ``doc``, the root first."""
    if isinstance(doc, dict):
        yield prefix
        for key, value in doc.items():
            yield from _objects(value, prefix + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _objects(value, prefix + (k,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _cases(cli):
    """(case name, argv, config document or None, top-level key changed) of
    every case."""
    for command in cli._COMMANDS:
        for flags in _flag_sets(command):
            yield _named(f"default {command} json", flags), [command, *flags], None, "-"
            if command.startswith("ramsey"):
                for theory in cli._THEORIES:
                    argv = [command, "--theory", theory, *flags]
                    yield _named(f"default {command} json", argv[1:]), argv, None, "-"
    for command in CSV_COMMANDS:
        for flags in _flag_sets(command):
            yield (_named(f"default {command} csv", flags),
                   [command, "--format", "csv", *flags], None, "-")
    for command, name in CONFIGS:
        for flags in _flag_sets(command):
            for case, doc, key in _mutations(name, cli):
                yield _named(f"{command} {name} {case}", flags), [command, *flags], doc, key
    for command, name, key, value in EXTRA:
        doc = json.loads(cli.bundled_config_path(name).read_text())
        doc[key] = value
        yield f"{command} {name} {[key]} = {value!r}", [command], doc, key
    for d in GENERIC_DIMS:
        model, rho0 = _generic(d)
        yield (f"lindblad-spectrum generic d={d}", ["lindblad-spectrum"], {"model": model},
               f"generic d={d}")
        yield (f"lindblad-spectrum generic d={d} csv", ["lindblad-spectrum", "--format", "csv"],
               {"model": model}, f"generic d={d}")
        for grid, times in GRIDS.items():
            doc = {"model": model, "rho0": rho0, "times": times}
            for command in ("lindblad-evolve", "entropy-check"):
                yield f"{command} generic d={d} {grid}", [command], doc, f"generic d={d}"
            yield (f"entropy-check generic d={d} {grid} csv",
                   ["entropy-check", "--format", "csv"], doc, f"generic d={d}")
        yield (f"cp-check generic d={d} tau={GENERIC_TAU}", ["cp-check"],
               _generic_kernel(cli, model), f"generic d={d}")
    for d in (1, 2, *GENERIC_DIMS):
        yield (f"lindblad-evolve pure unitary d={d} linspace50", ["lindblad-evolve"],
               _pure_unitary(d), f"pure unitary d={d}")
    yield ("lindblad-evolve pure unitary d=4 zeros", ["lindblad-evolve"],
           _pure_unitary(4, "zeros"), "pure unitary d=4")
    for d in GENERIC_DIMS:
        doc = _measurement(d)
        for name, case in (("", doc), (" h=1e300", {**doc, "h": 1e300})):
            yield (f"extract-generator measurement d={d}{name}", ["extract-generator"], case,
                   f"measurement d={d}")
    doc = json.loads(cli.bundled_config_path("model-qubit").read_text())
    root = np.sqrt(0.3)
    doc["model"] = {"schema": "lindkit.model/1", "dim": 2, "h_re": [0.0] * 4, "h_im": [0.0] * 4,
                    "lindblads": [_parts(np.diag([root, -root]))]}
    for command in ("lindblad-evolve", "entropy-check", "extract-generator"):
        yield f"{command} dephasing qubit", [command], doc, "dephasing qubit"
    for argv in ARGV:
        yield f"argv {argv}", argv, None, "argv"


def _generic(d):
    """(model document, rho0 document) of the seeded generic model of
    dimension d: H and two operators scaled so that the superoperator's
    ||L||_1 is d^2, and the state a a^dag + d/2 I, normalized."""
    rng = np.random.default_rng([GENERIC_SEED, d])

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = cplx(d, d)
    h = 0.5 * (a + a.conj().T)
    ops = [0.5 * cplx(d, d) for _ in range(2)]
    eye = np.eye(d)
    sop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in ops:
        g = op.conj().T @ op
        sop += np.kron(op, op.conj()) - 0.5 * (np.kron(g, eye) + np.kron(eye, g.T))
    s = d * d / np.linalg.norm(sop, 1)
    a = cplx(d, d)
    rho = a @ a.conj().T + 0.5 * d * eye
    rho /= np.trace(rho).real
    model = {"schema": "lindkit.model/1", "dim": d, **_parts(s * h, "h_re", "h_im"),
             "lindblads": [_parts(np.sqrt(s) * op) for op in ops]}
    return model, _parts(rho)


def _pure_unitary(d, grid="linspace50"):
    """The lindblad-evolve config of the generic model of dimension d without
    its Lindblad operators, and the seeded pure state |v><v|, over the grid
    named ``grid``."""
    model, _ = _generic(d)
    rng = np.random.default_rng([GENERIC_SEED, d, 1])
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return {"model": {**model, "lindblads": []}, "rho0": _parts(np.outer(v, v.conj())),
            "times": GRIDS[grid]}


def _measurement(d):
    """The extract-generator config of the seeded measurement model of
    dimension d in the computational basis: H = diag(h) and two diagonal
    Lindblad operators, whose superoperator is the diagonal L, with the step
    h = 0.05 / ||L||_F and the central scheme."""
    rng = np.random.default_rng([GENERIC_SEED, d, 2])
    h = rng.standard_normal(d)
    ops = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    # L[(i, j), (i, j)] = -i (h_i - h_j) + sum_a l_ai conj(l_aj) - (|l_ai|^2 + |l_aj|^2) / 2
    sq = np.abs(ops) ** 2
    diag = -1j * (h[:, None] - h[None, :]) + sum(
        np.outer(l, l.conj()) - 0.5 * (q[:, None] + q[None, :]) for l, q in zip(ops, sq))
    model = {"schema": "lindkit.model/1", "dim": d, **_parts(np.diag(h), "h_re", "h_im"),
             "lindblads": [_parts(np.diag(l)) for l in ops]}
    return {"model": model, "h": 0.05 / float(np.linalg.norm(diag)), "scheme": "central"}


def _parts(m, re="re", im="im"):
    return {re: m.real.reshape(-1).tolist(), im: m.imag.reshape(-1).tolist()}


def _generic_kernel(cli, model):
    """The ``lindkit.kernel/1`` document of exp(GENERIC_TAU L) for the model
    document ``model``, as the checkout of ``cli`` builds and writes it."""
    gen = cli.lindblad.build_superoperator(cli.lindblad.LindbladModel.from_dict(model))
    return json.loads(cli.channels.kernel_from_generator(gen, GENERIC_TAU).to_json())


def _mutations(name, cli):
    """(case name, config document, top-level key changed) of every single-key
    mutation of the bundled config ``name``."""
    base = json.loads(cli.bundled_config_path(name).read_text())
    for path in _paths(base):
        for value in VALUES:
            doc = json.loads(json.dumps(base))
            _at(doc, path[:-1])[path[-1]] = value
            yield f"{list(path)} = {value!r}", doc, path[0]
        if isinstance(path[-1], str):
            doc = json.loads(json.dumps(base))
            del _at(doc, path[:-1])[path[-1]]
            yield f"{list(path)} removed", doc, path[0]
    for path in _objects(base):
        doc = json.loads(json.dumps(base))
        _at(doc, path)["unknown_key"] = 1.0
        yield f"{list(path)} + unknown_key", doc, path[0] if path else "unknown_key"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result_fields(text: str):
    """{key: sha256 of its value} of a record's ``result``, else None."""
    try:
        result = json.loads(text)["result"]
        return {key: _sha(json.dumps(value, sort_keys=True)) for key, value in result.items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def _error(text: str):
    """(type, field) of an error record, else None."""
    try:
        error = json.loads(text)["error"]
        return [error["type"], error["field"]]
    except (ValueError, KeyError, TypeError):
        return None


def child(workdir: str) -> None:
    """Run every case with the lindkit on sys.path; print one JSON object:
    each case's result, and its subcommand and top-level key."""
    from lindkit import cli

    config = os.path.join(workdir, "config.json")
    results, groups = {}, {}
    for name, argv, doc, key in _cases(cli):
        groups[name] = " ".join(argv[:1] + [key])
        if doc is not None:
            with open(config, "w") as fh:
                json.dump(doc, fh)
            argv = argv + ["--config", config]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's exit
                code = exc.code
            except Exception as exc:  # a traceback escaping the CLI
                code = f"raised {type(exc).__name__}"
        results[name] = [code, _sha(out.getvalue()), _sha(err.getvalue()),
                         _error(err.getvalue()), _result_fields(out.getvalue())]
    json.dump({"results": results, "groups": groups}, sys.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory holding a lindkit package (repeat for each checkout)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    runs, groups = [], {}
    with tempfile.TemporaryDirectory() as workdir:
        for src in args.src:
            env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
            proc = subprocess.run([sys.executable, __file__, "--src", src, "--child", workdir],
                                  env=env, capture_output=True, text=True, check=True)
            out = json.loads(proc.stdout)
            runs.append(out["results"])
            groups.update(out["groups"])
    first, differing, outcomes = runs[0], 0, 0
    counts = collections.Counter()
    for src, run in zip(args.src[1:], runs[1:]):
        for name in sorted(first.keys() | run.keys()):
            a, b = first.get(name), run.get(name)
            if a == b:
                continue
            differing += 1
            # exit code and error (type, field); then which streams differ
            ends = [None if r is None else [r[0], r[3]] for r in (a, b)]
            outcomes += ends[0] != ends[1]
            streams = [] if None in (a, b) else [
                label for label, k in (("stdout", 1), ("stderr", 2)) if a[k] != b[k]]
            fields = ""
            if None not in (a, b) and None not in (a[4], b[4]):
                keys = a[4].keys() | b[4].keys()
                fields = "; result keys " + ", ".join(
                    sorted(k for k in keys if a[4].get(k) != b[4].get(k)))
            print(f"{src}: {name}: {ends[0]} -> {ends[1]}; differs in "
                  f"{streams or 'presence'}{fields}")
            before, after = (None if r is None else r[0] for r in (a, b))
            counts[src, groups[name], before, after] += 1
    for (src, group, before, after), count in sorted(counts.items(), key=str):
        print(f"{src}: {group}: exit {before} -> {after}: {count}")
    print(f"{differing} of {len(first)} cases differ, {outcomes} in exit code or error "
          f"type and field")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
