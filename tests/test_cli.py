import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindkit import cli


def run(args):
    return cli.main(args)


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit):
        run(["--help"])
    out = capsys.readouterr().out
    for name in (
        "ramsey-scan", "ramsey-point", "lindblad-evolve", "lindblad-spectrum",
        "born-check", "cp-check", "entropy-check", "extract-generator",
    ):
        assert name in out


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        run(["ramsey-scan", "--help"])
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--format", "--seed", "--theory",
                 "--truncate-gaussian"):
        assert flag in out


def test_scan_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["ramsey-scan", "--config", "fig1", "--format", "csv",
                "--out", str(a)]) == 0
    assert run(["ramsey-scan", "--config", "fig1", "--format", "csv",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "delta_omega,pb_e,pb_e_avg"


def test_default_scan_emits_both_curves_side_by_side(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["ramsey-scan", "--format", "csv", "--out", str(a)]) == 0
    assert run(["ramsey-scan", "--format", "csv", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == ("delta_omega,pb_e_standard,pb_e_avg_standard,"
                      "pb_e_modified,pb_e_avg_modified")
    data = np.loadtxt(str(a), delimiter=",", skiprows=1)
    assert data.shape[1] == 5
    # standard curve peaks on resonance, modified curve sits below it
    assert abs(data[data[:, 2].argmax(), 0]) <= data[1, 0] - data[0, 0] + 1e-12
    assert data[:, 4].max() < data[:, 2].max()


def test_validate_config_roundtrip_is_byte_identical(tmp_path):
    doc = cli.validate_config("fig1", "ramsey-scan")
    emitted = cli.canonical_json(doc)
    path = tmp_path / "cfg.json"
    path.write_text(emitted)
    again = cli.canonical_json(cli.validate_config(str(path), "ramsey-scan"))
    assert again == emitted


def test_json_record_structure(tmp_path):
    out = tmp_path / "rec.json"
    assert run(["ramsey-point", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "ramsey-point"
    assert set(doc) >= {"flags", "config", "result", "warnings"}
    assert 0 <= doc["result"]["pb_e"] <= 1


def test_record_roundtrips_through_canonical_json(tmp_path):
    out = tmp_path / "rec.json"
    run(["ramsey-point", "--out", str(out)])
    text = out.read_text()
    assert cli.canonical_json(json.loads(text)) == text


def test_cp_check_flags_non_cp_kernel(tmp_path):
    out = tmp_path / "cp.json"
    code = run(["cp-check", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["result"]["is_cp"] is False
    assert doc["result"]["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)


def _cp_kernel_doc():
    import lindkit

    rngmod = lindkit.LindbladModel(
        2,
        np.array([[0.5, 0], [0, -0.5]], dtype=complex),
        [np.array([[0, 0.4], [0.4, 0]], dtype=complex)],
    )
    gen = lindkit.build_superoperator(rngmod)
    return json.loads(lindkit.kernel_from_generator(gen, 0.8).to_json())


def test_cp_check_passes_cp_kernel(tmp_path):
    cfg = tmp_path / "kernel.json"
    cfg.write_text(json.dumps(_cp_kernel_doc()))
    assert run(["cp-check", "--config", str(cfg), "--out",
                str(tmp_path / "o.json")]) == 0


def test_cp_check_rejects_undeclared_vec_order(tmp_path, capsys):
    # the kernel is stored row-major; a column-major label must not be
    # read as row-major
    doc = _cp_kernel_doc()
    doc["vec_order"] = "col-major"
    cfg = tmp_path / "kernel.json"
    cfg.write_text(json.dumps(doc))
    assert run(["cp-check", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "vec_order"


def test_born_check_bundled_model_converges(tmp_path):
    out = tmp_path / "born.json"
    assert run(["born-check", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["converged"] is True
    assert doc["result"]["residual"] < doc["result"]["tol"]


def test_entropy_check_bundled_model(tmp_path):
    out = tmp_path / "ent.json"
    assert run(["entropy-check", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["passed"] is True
    for row in doc["result"]["rows"]:
        assert row["rate"] >= -1e-12
        assert abs(row["rate"] - row["central_difference"]) < 1e-6


def test_config_invariant_violation_is_exit_2(tmp_path, capsys):
    bad = json.load(open(str(cli.bundled_config_path("fig1"))))
    bad["ramsey"]["e_e"] = -5.0  # E_e <= E_g
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["ramsey-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "E_e > E_g" in err


def test_negative_sigma_rejected(tmp_path):
    bad = json.load(open(str(cli.bundled_config_path("fig1"))))
    bad["ramsey"]["sigma"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["ramsey-scan", "--config", str(path)]) == 2


def test_unknown_keys_rejected(tmp_path, capsys):
    bad = json.load(open(str(cli.bundled_config_path("fig1"))))
    bad["ramsey"]["typo_field"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["ramsey-scan", "--config", str(path)]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_missing_config_file_is_exit_2(capsys):
    assert run(["ramsey-scan", "--config", "/does/not/exist.json"]) == 2


def test_csv_unsupported_for_point_command(capsys):
    assert run(["ramsey-point", "--format", "csv"]) == 2


def test_theory_flag_overrides_config(tmp_path):
    out_std = tmp_path / "std.csv"
    out_mod = tmp_path / "mod.csv"
    run(["ramsey-scan", "--config", "fig2", "--theory", "standard",
         "--format", "csv", "--out", str(out_std)])
    run(["ramsey-scan", "--config", "fig2", "--format", "csv",
         "--out", str(out_mod)])
    std = np.loadtxt(str(out_std), delimiter=",", skiprows=1)
    mod = np.loadtxt(str(out_mod), delimiter=",", skiprows=1)
    # the modified fringe is damped relative to the standard one
    assert mod[:, 2].max() < std[:, 2].max() - 0.1


def test_fig_configs_reproduce_fringe_structure(tmp_path):
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    run(["ramsey-scan", "--config", "fig1", "--format", "csv", "--out", str(out1)])
    run(["ramsey-scan", "--config", "fig2", "--format", "csv", "--out", str(out2)])
    std = np.loadtxt(str(out1), delimiter=",", skiprows=1)
    mod = np.loadtxt(str(out2), delimiter=",", skiprows=1)
    step = std[1, 0] - std[0, 0]
    assert abs(std[std[:, 2].argmax(), 0]) <= step + 1e-12
    assert abs(mod[mod[:, 2].argmax(), 0] - 0.05) <= 2 * step


def test_seed_controls_random_initial_state(tmp_path):
    cfg = json.load(open(str(cli.bundled_config_path("born-d3"))))
    del cfg["rho0"]  # let the CLI draw the initial state from the seed
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for rep, seed in ((0, "7"), (1, "7"), (2, "8")):
        out = tmp_path / f"born{rep}.json"
        assert run(["born-check", "--config", str(path), "--seed", seed,
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_lindblad_evolve_states_are_physical(tmp_path):
    out = tmp_path / "ev.json"
    assert run(["lindblad-evolve", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for state in doc["result"]["states"]:
        assert state["trace"] == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= state["entropy"] <= np.log(2) + 1e-9


def _ramsey_doc(tmp_path, name="fig2", **ramsey_fields):
    doc = json.load(open(str(cli.bundled_config_path(name))))
    doc["ramsey"].update(ramsey_fields)
    path = tmp_path / "ramsey.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_non_finite_ramsey_input_is_exit_2(tmp_path, capsys):
    for value in (float("nan"), float("inf")):
        path = _ramsey_doc(tmp_path, omega=value)
        assert run(["ramsey-point", "--config", path]) == 2
        assert "omega must be finite" in capsys.readouterr().err
    with pytest.raises(ValueError):
        cli.canonical_json({"pb_e": float("nan")})


def test_full_line_average_out_of_range_is_exit_3(tmp_path, capsys):
    path = _ramsey_doc(tmp_path, sigma=50.0, lambda_tilde_re=5.0)
    assert run(["ramsey-point", "--config", path]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "UnphysicalAverage"
    assert "--truncate-gaussian" in err["message"]
    out = tmp_path / "point.json"
    assert run(["ramsey-point", "--config", path, "--truncate-gaussian",
                "--out", str(out)]) == 0
    assert 0.0 <= json.loads(out.read_text())["result"]["pb_e_avg"] <= 1.0


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check"])
def test_non_numeric_times_are_exit_2(tmp_path, capsys, command):
    for times in (["x"], [0.5, None], "1.0", [float("nan")], [0.5, -1.0]):
        doc = json.load(open(str(cli.bundled_config_path("model-qubit"))))
        doc["times"] = times
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run([command, "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["field"] == "times"


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check"])
def test_empty_and_all_zero_time_grids(tmp_path, command):
    doc = json.loads(cli.bundled_config_path("model-qubit").read_text())
    path, out = tmp_path / "model.json", tmp_path / "out.json"
    lengths = []
    for times in ([], [0.0, 0]):
        doc["times"] = times
        path.write_text(json.dumps(doc))
        assert run([command, "--config", str(path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        lengths.append(len(result["states" if command == "lindblad-evolve" else "rows"]))
    assert lengths == [0, 2]


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check",
                                     "extract-generator", "lindblad-spectrum"])
def test_huge_lindblad_entry_is_overflow_exit_3(tmp_path, capsys, command):
    # finite in the config, but L^dag L and the generator overflow to inf
    doc = json.loads(cli.bundled_config_path("model-qubit").read_text())
    doc["model"]["lindblads"][0]["re"][1] = 1e300
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = _strict_json(err)["error"]
    assert (error["type"], error["exit_code"]) == ("Overflow", 3)


def test_huge_hamiltonian_entry_is_overflow_exit_3(tmp_path, capsys):
    # a Hermitian H whose generator's 2-norm leaves double precision
    doc = json.loads(cli.bundled_config_path("model-qubit").read_text())
    doc["model"]["h_re"][1] = doc["model"]["h_re"][2] = 1.7e308
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["lindblad-spectrum", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = _strict_json(err)["error"]
    assert (error["type"], error["exit_code"]) == ("Overflow", 3)


def test_huge_non_hermitian_state_is_exit_3(tmp_path, capsys):
    # rho0's Hermiticity defect and norm overflow unless taken on a scaled copy
    doc = json.loads(cli.bundled_config_path("model-qubit").read_text())
    doc["rho0"]["re"] = [0.5, 1e300, -1e300, 0.5]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["lindblad-evolve", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = _strict_json(err)["error"]
    assert (error["type"], error["exit_code"]) == ("NotHermitian", 3)


def _born_doc(tmp_path, **fields):
    doc = json.loads(cli.bundled_config_path("born-d3").read_text())
    doc.update(fields)
    path = tmp_path / "born.json"
    path.write_text(json.dumps(doc))
    return str(path)


_OVERFLOW_BORN = {
    # 1.7e308 / gamma_min (0.5) is infinite, and inf * 0 has no value
    "horizon": {"horizon_over_gamma": 1.7e308},
    "l": {"l_re": [[0.0, 1e300, -1.0]]},  # |l_0 - l_1|^2 / 2 is infinite
    "h": {"h": [1.7e308, 0.1, -1.7e308]},  # so is h_0 - h_2
}


@pytest.mark.parametrize("fields", _OVERFLOW_BORN.values(), ids=_OVERFLOW_BORN.keys())
def test_born_check_beyond_double_precision_is_overflow_exit_3(tmp_path, capsys, fields):
    assert run(["born-check", "--config", _born_doc(tmp_path, **fields)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = _strict_json(err)["error"]
    assert (error["type"], error["exit_code"]) == ("Overflow", 3)


_HUGE_BORN = {"horizon": {"horizon_over_gamma": 1e300},
              "h": {"h": [1e300, 0.1, -0.2]},
              # the phases h t overflow, on coherences that have decayed
              "h-and-horizon": {"h": [1e300, 0.1, -0.2], "horizon_over_gamma": 1e300}}


@pytest.mark.parametrize("fields", _HUGE_BORN.values(), ids=_HUGE_BORN.keys())
def test_born_check_converges_at_any_finite_scale(tmp_path, capsys, fields):
    # the closed form has no exponential to overflow, and the energy phases
    # do not change the modulus of a decayed coherence
    assert run(["born-check", "--config", _born_doc(tmp_path, **fields)]) == 0
    result = _strict_json(capsys.readouterr().out)["result"]
    assert result["converged"] is True
    assert result["residual"] <= result["tol"]


_HUGE_RAMSEY = [("ramsey-point", "fig1", {"e_e": 1e300}),  # dw^2 under the Rabi root
                ("ramsey-point", "fig1", {"u_eg_re": 1e300}),  # |U|^2 under the root
                ("ramsey-scan", "fig1", {"u_eg_re": 1e300}),
                # the modified fringe's phase (dw - Im lambda) * t_free
                ("ramsey-scan", "fig2", {"lambda_tilde_im": 1e300, "t_free": 1e10})]


@pytest.mark.parametrize("command, name, fields", _HUGE_RAMSEY,
                         ids=[f"{c}-{'-'.join(f)}" for c, _, f in _HUGE_RAMSEY])
def test_huge_ramsey_entry_is_overflow_exit_3(tmp_path, capsys, command, name, fields):
    # finite in the config, but a square or a product of them overflows
    path = _ramsey_doc(tmp_path, name, **fields)
    assert run([command, "--config", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = _strict_json(err)["error"]
    assert (error["type"], error["exit_code"]) == ("Overflow", 3)


def _main_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def test_back_to_back_commands_print_what_each_prints_alone():
    # the parser is built once per process and shared by every main call
    first, second = ["lindblad-evolve"], ["ramsey-point", "--theory", "modified"]
    alone = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        alone.append(_main_output(argv))
    cli.build_parser.cache_clear()
    assert [_main_output(first), _main_output(second)] == alone
    assert [_main_output(second), _main_output(first)] == alone[::-1]


@pytest.mark.parametrize("command", ["ramsey-point", "ramsey-scan"])
def test_clipped_window_warning_is_recorded(tmp_path, command):
    path = _ramsey_doc(tmp_path, "fig1", t0=1.0, sigma=2.0)
    out = tmp_path / "rec.json"
    assert run([command, "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["warnings"] == []
    assert run([command, "--config", path, "--truncate-gaussian",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["warnings"] == [
        "transit-time window clipped at T = 0; weight renormalized"
    ]


def test_clipped_window_warning_goes_to_stderr_for_csv(tmp_path, capsys):
    path = _ramsey_doc(tmp_path, "fig1", t0=1.0, sigma=2.0)
    assert run(["ramsey-scan", "--config", path, "--truncate-gaussian",
                "--format", "csv", "--out", str(tmp_path / "scan.csv")]) == 0
    assert capsys.readouterr().err == (
        "lindkit: warning: transit-time window clipped at T = 0; weight renormalized\n"
    )


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _set(path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _drop_lindblad_im(doc):
    del doc["model"]["lindblads"][0]["im"]


def _model_as_list(doc):
    doc["model"] = [doc["model"]]


def _ramsey_as_list(doc):
    doc["ramsey"] = list(doc["ramsey"].values())


_NAN = float("nan")
# (command, bundled config, mutation, top-level key the error must name)
_MALFORMED = [
    ("lindblad-evolve", "model-qubit", _set(("rho0", "re", 0), "a"), "rho0"),
    ("lindblad-evolve", "model-qubit", _set(("rho0", "re", 0), _NAN), "rho0"),
    ("lindblad-evolve", "model-qubit", _set(("rho0",), [0.7, 0.2, 0.2, 0.3]), "rho0"),
    ("lindblad-evolve", "model-qubit", _drop_lindblad_im, "model"),
    ("lindblad-evolve", "model-qubit", _model_as_list, "model"),
    ("extract-generator", "model-qubit", _set(("h",), "x"), "h"),
    ("extract-generator", "model-qubit", _set(("h",), 0.0), "h"),
    ("lindblad-spectrum", "model-qubit", _set(("h",), _NAN), "h"),  # an unused key
    ("born-check", "born-d3", _set(("dim",), "x"), "dim"),
    ("born-check", "born-d3", _set(("h",), "x"), "h"),
    ("born-check", "born-d3", _set(("l_re",), "x"), "l_re"),
    ("born-check", "born-d3", _set(("l_im",), [[0.0, 0.0]]), "l_im"),
    ("born-check", "born-d3", _set(("tol",), "x"), "tol"),
    ("born-check", "born-d3", _set(("tol",), _NAN), "tol"),
    ("born-check", "born-d3", _set(("horizon_over_gamma",), "x"), "horizon_over_gamma"),
    ("born-check", "born-d3", _set(("horizon_over_gamma",), -5), "horizon_over_gamma"),
    ("ramsey-scan", "fig1", _set(("grid", "points"), "x"), "grid"),
    ("ramsey-scan", "fig1", _set(("grid", "points"), 2.5), "grid"),
    ("ramsey-scan", "fig1", _set(("grid", "stop"), _NAN), "grid"),
    ("ramsey-scan", "fig1", _set(("grid", "start"), 3.0), "grid"),  # descending
    ("ramsey-scan", "fig1", _set(("grid",), {"values": ["x"]}), "grid"),
    ("ramsey-scan", "fig1", _set(("grid",), {"values": []}), "grid"),
    ("ramsey-scan", "fig1", _set(("grid",), {"values": [_NAN]}), "grid"),
    ("ramsey-scan", "fig1", _ramsey_as_list, "ramsey"),
    ("cp-check", "kernel-transpose", _set(("tau",), _NAN), "tau"),
    # a non-Hermitian H whose norms overflow
    ("lindblad-spectrum", "model-qubit", _set(("model", "h_re", 1), 1e300), "model"),
]


@pytest.mark.parametrize(
    "command, name, mutate, key", _MALFORMED,
    ids=[f"{c}-{k}-{i}" for i, (c, _, _, k) in enumerate(_MALFORMED)],
)
def test_malformed_config_is_exit_2_naming_the_key(tmp_path, capsys, command, name,
                                                   mutate, key):
    doc = json.loads(cli.bundled_config_path(name).read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--config", str(path)]) == 2
    err = _strict_json(capsys.readouterr().err)["error"]
    assert (err["type"], err["field"], err["exit_code"]) == ("ConfigParse", key, 2)


def _paths(doc, prefix=()):
    """Every key and list index of a config document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_FUZZ_CONFIGS = [
    ("ramsey-scan", "fig1"), ("ramsey-point", "fig2"), ("lindblad-evolve", "model-qubit"),
    ("lindblad-spectrum", "model-qubit"), ("born-check", "born-d3"),
    ("cp-check", "kernel-transpose"), ("entropy-check", "model-qubit"),
    ("extract-generator", "model-qubit"),
]
_FUZZ_DOCS = {name: json.loads(cli.bundled_config_path(name).read_text())
              for _, name in _FUZZ_CONFIGS}
# numbers stay within +-1000: a drawn grid `points` must not allocate
# gigabytes, and 1e300-sized model or Ramsey entries still overflow inside the
# computation rather than in the parse
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
                     st.floats(-1000, 1000), st.text(max_size=4))
_JSON = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                  st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=st.sampled_from(_FUZZ_CONFIGS), pick=st.integers(0, 10**6), value=_JSON)
def test_any_single_value_change_gives_a_documented_exit(tmp_path_factory, config, pick,
                                                         value):
    command, name = config
    paths = list(_paths(_FUZZ_DOCS[name]))
    doc = json.loads(json.dumps(_FUZZ_DOCS[name]))
    _set(paths[pick % len(paths)], value)(doc)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--config", str(path)])
    assert code in (0, 2, 3)
    if code == 0 or (code == 3 and not err.getvalue()):
        # success, or a failed check (exit 3) with its record on stdout
        assert _strict_json(out.getvalue())["command"] == command
    else:
        assert _strict_json(err.getvalue())["error"]["exit_code"] == code
