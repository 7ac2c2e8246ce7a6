"""Cost guards without timing: count the kernel calls that made the spectral
and GKS layers O(d^8) and evolution one dense exponential per time point, and
the constructions that made each CLI command parse its config twice, so a
return to per-cluster SVDs, per-pair Kronecker products, per-time
superoperator builds, per-state eigendecompositions, per-step Taylor plans, a
second config parse, a parser per call, per-pair projector checks, a
generator built for the closed-form Born limit, a per-member loop over an
operator family (the Gell-Mann basis, the Choi eigen-matrices), per-mode
reshapes of the spectrum, an eigh per nondegenerate perturbation group, an
encoder call per row of a scan record or per evolved state, a bundled config
read per call, a second decay matrix per born-check, a second inversion of
K(h) or a second generator in the Hermitian basis per extract-generator, or
more Python-level calls in the config stage fails a test."""
import argparse
import inspect
import json
import sys
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import (SM, random_density, random_hermitian, random_lindblad_model,
                      random_matrix, random_measurement_model)
from lindkit import (DensityMatrix, GKSForm, LindbladModel, ProjectorBasis,
                     bfr_derivative_check, build_superoperator,
                     channels, choi_cp_test, cli, first_order, gks_build, kernel_from_generator,
                     lindblad, matcore, perturb, ramsey, records, spectrum)
from lindkit.channels import kraus_operators
from lindkit.matcore import general_eig

# norm and matrix_rank call svd through numpy's implementation module
_LINALG = [np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)]


def _count(monkeypatch, modules, name):
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counting)
    return calls


def test_general_eig_svd_calls_do_not_grow_with_n(monkeypatch, rng):
    calls = _count(monkeypatch, _LINALG, "svd")
    counts = {}
    for n in (12, 36):
        a = random_matrix(rng, n)
        calls.clear()
        cs = general_eig(a)
        assert cs.lengths == [[1]] * n
        counts[n] = len(calls)
    assert counts[36] <= 3
    assert counts[12] == counts[36]


def test_general_eig_norm_calls_do_not_grow_with_n(monkeypatch, rng):
    # the one-member clusters' eigenvectors are normalized in one call
    calls = _count(monkeypatch, _LINALG, "norm")
    counts = {}
    for n in (12, 36):
        a = random_matrix(rng, n)
        calls.clear()
        cs = general_eig(a)
        assert cs.lengths == [[1]] * n
        counts[n] = len(calls)
    assert counts[12] == counts[36]


def test_spectrum_decomposes_a_real_matrix(monkeypatch, rng):
    dtypes = []
    real_eig = np.linalg.eig

    def recording_eig(a):
        dtypes.append(np.asarray(a).dtype)
        return real_eig(a)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    spectrum(random_lindblad_model(rng, 3))
    assert dtypes == [np.float64]


def test_dense_kernel_exponentiates_a_real_matrix(monkeypatch, rng):
    # the real R = V^dag L V for a dense generator at every d; a generator
    # without off-diagonal entries takes its entrywise exponential without
    # a dense expm
    dtypes = []
    real_expm = scipy.linalg.expm

    def recording_expm(a):
        dtypes.append(np.asarray(a).dtype)
        return real_expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", recording_expm)
    model = random_measurement_model(rng, 6)
    kernel_from_generator(build_superoperator(model), 0.5)
    diagonal = LindbladModel(6, np.diag(model.h_coeffs).astype(complex),
                             [np.diag(row) for row in model.l_coeffs])
    kernel_from_generator(build_superoperator(diagonal), 0.5)
    for d in (2, 5):
        kernel_from_generator(build_superoperator(random_lindblad_model(rng, d)), 0.5)
    assert dtypes == [np.float64] * 3


def test_degenerate_cluster_takes_one_svd(monkeypatch, rng):
    # a measurement model's d stationary modes are one cluster: one SVD of
    # R - mu I gives ||R - mu I||_2 and its null space, and one more is the
    # span test
    model = random_measurement_model(rng, 4)
    r = lindblad._hermitian_generator(model)
    tol = matcore.TOL_CLUSTER_REL * max(1.0, np.linalg.norm(r, 2))  # as spectrum's
    calls = _count(monkeypatch, _LINALG, "svd")
    cs = general_eig(r, tol_cluster=tol)
    sizes = list(map(sum, cs.lengths))
    assert max(sizes) == 4 and sizes.count(1) == 12
    assert len(calls) == 2


def test_hermiticity_test_scales_only_where_norms_overflow(monkeypatch, rng):
    # the unscaled norms settle a finite matrix or stack; only entries whose
    # squares overflow take the exactly scaled copy
    calls = _count(monkeypatch, [matcore], "_unit_scaled")
    a = random_hermitian(rng, 4)
    stack = np.stack([a, 1e-3 * a, random_matrix(rng, 4)])
    for m in (a, 1e150 * a, stack, 1e150 * stack):
        matcore._is_hermitian(m, matcore.TOL_HERM)
    matcore._is_hermitian(a, 1e-8, 2.0**-10)
    assert calls == []
    assert matcore._is_hermitian(1e300 * a, matcore.TOL_HERM)
    huge = stack * np.array([1.0, 1e300, 1e300])[:, None, None]
    assert matcore._is_hermitian(huge, matcore.TOL_HERM).tolist() == [True, True, False]
    assert len(calls) == 2


def test_gks_build_kron_calls_do_not_grow_with_d(monkeypatch, rng):
    calls = _count(monkeypatch, [np], "kron")
    for d in (2, 4, 8):
        gks_build(GKSForm(d, random_hermitian(rng, d), random_hermitian(rng, d * d - 1)))
    assert calls == []


def test_measurement_spectrum_takes_no_eig_svd_or_generator(monkeypatch, rng):
    # a measurement model's spectrum is its decay matrix: no generator, no
    # eig and no SVD, at any d
    eigs = _count(monkeypatch, _LINALG, "eig")
    svds = _count(monkeypatch, _LINALG, "svd")
    builds = _count(monkeypatch, [lindblad], "build_superoperator")
    for d in (2, 4, 8):
        spec = spectrum(random_measurement_model(rng, d))
        assert spec.classifications.count("stationary") == d
    assert eigs == svds == builds == []


def test_spectrum_svd_calls_do_not_grow_with_d(monkeypatch, rng):
    # one 2-norm of L shared by both tolerances, one rank check
    calls = _count(monkeypatch, _LINALG, "svd")
    counts = {}
    for d in (3, 6):
        model = random_lindblad_model(rng, d)
        calls.clear()
        spectrum(model)
        counts[d] = len(calls)
    assert counts[6] <= 2
    assert counts[3] == counts[6]


def _grid_config(rng, tmp_path, d, points):
    model = random_lindblad_model(rng, d)
    rho0 = random_density(rng, d, strictly_positive=True).matrix
    path = tmp_path / f"grid{points}.json"
    path.write_text(json.dumps({
        "model": json.loads(model.to_json()),
        "rho0": {"re": rho0.real.reshape(-1).tolist(), "im": rho0.imag.reshape(-1).tolist()},
        "times": np.linspace(0.05, 2.0, points).tolist(),
    }))
    return path


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check"])
def test_time_grid_builds_once(monkeypatch, rng, tmp_path, capsys, command):
    path = _grid_config(rng, tmp_path, 8, 50)
    builds = _count(monkeypatch, [lindblad], "build_superoperator")
    expms = _count(monkeypatch, [scipy.linalg], "expm")
    assert cli.main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # one dense propagator for the family of the grid's (rounded) uniform
    # step; the first step from t = 0 is a Taylor step, and so are the +-eps
    # steps, taken from all the evolved states at once
    assert len(expms) <= 1


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check"])
def test_grid_eigendecompositions_do_not_grow_with_points(monkeypatch, rng, tmp_path,
                                                          capsys, command):
    # rho0's repair, one stacked repair of the evolved states, and the
    # handler's stacked entropies (and rates)
    eigh = _count(monkeypatch, _LINALG, "eigh")
    eigvalsh = _count(monkeypatch, _LINALG, "eigvalsh")
    counts = {}
    for points in (50, 200):
        path = _grid_config(rng, tmp_path, 4, points)
        eigh.clear()
        eigvalsh.clear()
        assert cli.main([command, "--config", str(path)]) == 0
        capsys.readouterr()
        counts[points] = (len(eigh), len(eigvalsh))
    assert counts[50] == counts[200]


def test_evolved_states_are_decomposed_once(monkeypatch, rng, tmp_path, capsys):
    # the check of the evolved stack takes eigenvalues only, and the record's
    # entropies reuse them: no eigh at all when no state needs repair
    path = _grid_config(rng, tmp_path, 4, 50)
    eigh = _count(monkeypatch, _LINALG, "eigh")
    eigvalsh = _count(monkeypatch, _LINALG, "eigvalsh")
    out = tmp_path / "out.json"
    assert cli.main(["lindblad-evolve", "--config", str(path), "--out", str(out)]) == 0
    states = json.loads(out.read_text())["result"]["states"]
    assert len(states) == 50 and not any(s["repaired"] for s in states)
    assert len(eigh) == 0
    assert len(eigvalsh) == 2  # rho0's check and the evolved stack's


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check"])
@pytest.mark.parametrize("d", [2, 8])
def test_dense_exponentials_at_most_distinct_steps(monkeypatch, rng, tmp_path, capsys,
                                                  command, d):
    path = _grid_config(rng, tmp_path, d, 50)
    times = json.loads(path.read_text())["times"]
    if command == "entropy-check":
        times = [s for t in times for s in (t, t + 1e-5, t - 1e-5)]
    distinct_steps = np.unique(np.diff(np.unique(times), prepend=0.0))
    expms = _count(monkeypatch, [scipy.linalg], "expm")
    assert cli.main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(expms) <= len(distinct_steps)


def test_taylor_plans_do_not_grow_with_points(monkeypatch, rng, tmp_path, capsys):
    # entropy-check evolves over t, t + 1e-5, t - 1e-5: 150 and 300 points
    # at d = 8, all steps planned by one vectorized call
    plans = _count(monkeypatch, [matcore], "_taylor_plan")
    counts = {}
    for points in (50, 100):
        path = _grid_config(rng, tmp_path, 8, points)
        plans.clear()
        assert cli.main(["entropy-check", "--config", str(path)]) == 0
        capsys.readouterr()
        counts[points] = len(plans)
    assert counts[50] == counts[100] == 1


def test_probe_taylor_calls_do_not_grow_with_points(monkeypatch, rng, tmp_path, capsys):
    # entropy-check's states at t +- 1e-5 are one block step from all the
    # states at t, so beyond lindblad-evolve's chain on the same grid it
    # makes as many calls into the Taylor routine at 50 times as at 100
    calls = _count(monkeypatch, [matcore], "_taylor_series")
    extra = {}
    for points in (50, 100):
        path = _grid_config(rng, tmp_path, 8, points)
        made = []
        for command in ("lindblad-evolve", "entropy-check"):
            calls.clear()
            assert cli.main([command, "--config", str(path)]) == 0
            made.append(len(calls))
        capsys.readouterr()
        extra[points] = made[1] - made[0]
    assert extra[50] == extra[100]


def test_taylor_norms_are_taken_only_where_the_stopping_test_can_fire(monkeypatch, rng):
    # the stopping test runs at terms 1 < j < m: a step of degree m >= 3
    # takes at most 2m - 3 infinity norms per substep, and one of degree
    # <= 2, a family's correction among them, none; on this d = 8 stencil
    # over 50 times that is 51 norms, where a test at every term took 61
    norms = _count(monkeypatch, [matcore], "_inf_norm")
    real = matcore._taylor_series
    steps = []

    def recording(*args, **kwargs):
        before = len(norms)
        f = real(*args, **kwargs)
        bound = inspect.signature(real).bind(*args, **kwargs).arguments
        steps.append((bound["m"], bound["s"], len(norms) - before))
        return f

    monkeypatch.setattr(matcore, "_taylor_series", recording)
    model = random_lindblad_model(rng, 8)
    rho0 = random_density(rng, 8, strictly_positive=True)
    lindblad.evolve_stencil(model, rho0, np.linspace(0.05, 2.0, 50), 1e-5)
    assert len(norms) <= 51
    for m, s, taken in steps:
        assert taken <= (s * (2 * m - 3) if m > 2 else 0)
    assert min(m for m, _, _ in steps) <= 2 < max(m for m, _, _ in steps)


# amplitude damping L = sqrt(1e10) sigma_-: ||R||_1 = 1e10, so eps ||R||_1 =
# 1e5 at the stencil step eps = 1e-5
_STIFF_QUBIT = LindbladModel(2, np.zeros((2, 2)), [np.sqrt(1e10) * SM])


def test_stiff_stencil_step_is_one_dense_exponential(monkeypatch):
    # beyond the Taylor plan's reach the +eps block takes the one dense expm
    # a lone step of eps takes, not some 1e4 degree-55 steps; the -eps block
    # is empty at t = 0 < eps
    expms = _count(monkeypatch, [scipy.linalg], "expm")
    series = _count(monkeypatch, [matcore], "_taylor_series")
    lindblad.evolve_stencil(_STIFF_QUBIT, DensityMatrix.from_matrix(np.eye(2) / 2), [0.0], 1e-5)
    assert (len(expms), len(series)) == (1, 0)


def test_empty_backward_block_forms_no_exponential(monkeypatch, tmp_path, capsys):
    # exp(-eps R), whose squarings overflow at eps ||R||_1 = 1e5, is not
    # formed when no time reaches eps, so the record carries no warning
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"model": json.loads(_STIFF_QUBIT.to_json()),
                                "rho0": {"re": [0.5, 0.0, 0.0, 0.5]}, "times": [0.0]}))
    expms = _count(monkeypatch, [scipy.linalg], "expm")
    assert cli.main(["entropy-check", "--config", str(path)]) == 3  # the quotient fails
    assert json.loads(capsys.readouterr().out)["warnings"] == []
    assert len(expms) == 1


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    builds = _count(monkeypatch, [argparse.ArgumentParser], "add_subparsers")
    codes = [cli.main([command]) for command in
             ("lindblad-evolve", "ramsey-point", "cp-check", "lindblad-evolve")]
    capsys.readouterr()
    assert codes == [0, 0, 3, 0]  # the bundled transpose kernel is not CP
    assert len(builds) == 1


def test_bundled_config_is_read_once_per_process(monkeypatch, capsys):
    # the package resource is read on a name's first use; every call still
    # parses the text into a document of its own
    cli._bundled_text.cache_clear()
    reads = _count(monkeypatch, [cli], "bundled_config_path")
    codes = [cli.main(["lindblad-spectrum"]),
             cli.main(["entropy-check", "--config", "model-qubit"])]
    docs = [cli.validate_config("model-qubit", command)
            for command in ("lindblad-evolve", "extract-generator")]
    capsys.readouterr()
    assert codes == [0, 0]
    assert len(reads) == 1
    docs[0]["model"]["dim"] = 3
    assert cli.validate_config("model-qubit", "lindblad-evolve") == docs[1]
    for _ in range(2):  # fig-both reads fig1 and fig2, each once
        assert cli.main(["ramsey-scan"]) == 0
    capsys.readouterr()
    assert len(reads) == 3


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_first_and_later_calls_write_the_same_bytes(capsys, command):
    cli._bundled_text.cache_clear()
    runs = []
    for _ in range(3):
        code = cli.main([command])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]


def _python_calls(fn, *args) -> int:
    """The calls of Python functions and of builtins that ``fn(*args)``
    makes, as ``sys.setprofile`` reports them (ufunc calls are not among
    them, ufunc methods such as ``reduce`` are).  The count includes the
    Python-level wrappers of numpy, so the pins below hold for the numpy
    2.4.6 and Python 3.11.7 they were taken with; another numpy or Python
    may move them with lindkit unchanged."""
    calls = []

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls.append(event)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(before)
    return len(calls)


@pytest.mark.parametrize("command, name, most", [
    ("lindblad-spectrum", "model-qubit", 242),
    ("born-check", "born-d3", 278),
])
def test_config_stage_call_counts(command, name, most):
    cli._load(command, name)  # the first call reads the bundled text
    assert _python_calls(cli._load, command, name) <= most


def test_single_state_call_count():
    state = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    DensityMatrix.from_matrix(state)
    assert _python_calls(DensityMatrix.from_matrix, state) <= 62


@pytest.mark.parametrize("command, owner, name, calls", [
    ("lindblad-evolve", lindblad.LindbladModel, "from_dict", 1),
    ("lindblad-spectrum", lindblad.LindbladModel, "from_dict", 1),
    ("entropy-check", lindblad.LindbladModel, "from_dict", 1),
    ("extract-generator", lindblad.LindbladModel, "from_dict", 1),
    ("ramsey-point", ramsey.RamseyConfig, "from_dict", 1),
    ("ramsey-scan", ramsey.RamseyConfig, "from_dict", 2),  # fig-both: two curves
    ("born-check", cli, "_density", 1),
])
def test_default_config_is_parsed_once(monkeypatch, capsys, command, owner, name, calls):
    built = _count(monkeypatch, [owner], name)
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert len(built) == calls


def test_scan_record_encoding_calls_do_not_grow_with_the_grid(monkeypatch, tmp_path, capsys):
    # the fringe rows are one table, not one recursion per row and value; the
    # recursion looks _encode up by name, so the counter sees every call
    calls = _count(monkeypatch, [records], "_encode")
    doc = json.loads(cli.bundled_config_path("fig1").read_text())
    counts = {}
    for points in (11, 401):
        doc["grid"]["points"] = points
        path = tmp_path / f"fig1-{points}.json"
        path.write_text(json.dumps(doc))
        calls.clear()
        assert cli.main(["ramsey-scan", "--config", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["result"]["rows"]) == points
        counts[points] = len(calls)
    assert counts[11] == counts[401]


def test_evolve_record_encoding_calls_do_not_grow_with_the_times(monkeypatch, rng, tmp_path,
                                                                  capsys):
    # the evolved states are one table, their re and im matrix columns, not
    # one recursion per state and value
    calls = _count(monkeypatch, [records], "_encode")
    counts = {}
    for points in (3, 50):
        path = _grid_config(rng, tmp_path, 4, points)
        calls.clear()
        assert cli.main(["lindblad-evolve", "--config", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["result"]["states"]) == points
        counts[points] = len(calls)
    assert counts[3] == counts[50]


def _born_config(rng, tmp_path, d):
    l = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    rho0 = random_density(rng, d).matrix
    path = tmp_path / f"born{d}.json"
    path.write_text(json.dumps({
        "dim": d, "l_re": l.real.tolist(), "l_im": l.imag.tolist(),
        "h": rng.standard_normal(d).tolist(), "horizon_over_gamma": 1e6, "tol": 1e-8,
        "rho0": {"re": rho0.real.reshape(-1).tolist(), "im": rho0.imag.reshape(-1).tolist()},
    }))
    return ["--config", str(path)]


@pytest.mark.parametrize("d", [None, 12], ids=["bundled", "d12-long-horizon"])
def test_born_check_builds_and_exponentiates_no_generator(monkeypatch, rng, tmp_path,
                                                          capsys, d):
    argv = ["born-check", *([] if d is None else _born_config(rng, tmp_path, d))]
    calls = [_count(monkeypatch, [module], name) for module, name in (
        (lindblad, "build_superoperator"), (matcore, "expm"), (matcore, "_step_actions"),
        (lindblad, "evolve_many"))]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [len(c) for c in calls] == [0, 0, 0, 0]


@pytest.mark.parametrize("d", [None, 12], ids=["bundled", "d12-long-horizon"])
def test_born_check_decays_its_model_once(monkeypatch, rng, tmp_path, capsys, d):
    argv = ["born-check", *([] if d is None else _born_config(rng, tmp_path, d))]
    calls = _count(monkeypatch, [lindblad], "decay_matrix")
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["forward", "central"])
def test_extract_generator_takes_each_central_difference_once(monkeypatch, tmp_path, capsys,
                                                              scheme):
    # Richardson's L_h inverts K(h) and its L_2h inverts K(2h); the central
    # estimate is that L_h, and the forward one inverts nothing
    doc = json.loads(cli.bundled_config_path("model-qubit").read_text())
    doc["scheme"] = scheme
    path = tmp_path / "extract.json"
    path.write_text(json.dumps(doc))
    calls = _count(monkeypatch, _LINALG, "inv")
    assert cli.main(["extract-generator", "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_extract_generator_forms_the_real_generator_once(monkeypatch, capsys):
    # the kernels at h, 2h and 4h share one R = V^dag L V and its check
    calls = _count(monkeypatch, [channels], "_real_generator")
    assert cli.main(["extract-generator"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_projector_basis_norm_calls_do_not_grow_with_d(monkeypatch):
    calls = _count(monkeypatch, _LINALG, "norm")
    counts = {}
    for d in (2, 12):
        calls.clear()
        ProjectorBasis.computational(d)
        counts[d] = len(calls)
    assert counts[2] == counts[12]


class _CountingNumpy:
    """Stands in for ``np`` in a lindkit module: every call of a numpy
    function through it, also through a submodule such as ``np.linalg`` or
    a ufunc's method such as ``np.add.reduce``, is recorded by its dotted
    name.  Classes and constants pass through."""

    def __init__(self, module, calls, prefix=""):
        self._module, self._calls, self._prefix = module, calls, prefix

    def __call__(self, *args, **kwargs):  # a ufunc called itself
        self._calls.append(self._prefix[:-1])
        return self._module(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, (types.ModuleType, np.ufunc)):
            return _CountingNumpy(attr, self._calls, f"{self._prefix}{name}.")
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counting(*args, **kwargs):
            self._calls.append(self._prefix + name)
            return attr(*args, **kwargs)
        return counting


def _numpy_calls(monkeypatch, module):
    calls = []
    monkeypatch.setattr(module, "np", _CountingNumpy(np, calls))
    return calls


def _gks(rng, d):
    a = random_matrix(rng, d * d - 1)
    return GKSForm(d, random_hermitian(rng, d), a @ a.conj().T)


def test_derivative_check_takes_no_traces(monkeypatch, rng):
    # W is one tensordot with the stacked basis and its four trace vectors
    # one product with the basis columns
    calls = _numpy_calls(monkeypatch, channels)
    for d in (2, 4):
        bfr_derivative_check(_gks(rng, d), trials=3)
    assert calls and "trace" not in calls


def test_choi_cp_test_numpy_calls_do_not_grow_with_d(monkeypatch, rng):
    # the verdict takes one eigvalsh; the eigen-matrices, on their first
    # read, one eigh and one phase gather for all d^2 of them
    calls = _numpy_calls(monkeypatch, channels)
    counts = {}
    for d in (2, 6):
        kernel = kernel_from_generator(build_superoperator(random_lindblad_model(rng, d)), 0.5)
        calls.clear()
        is_cp, spec = choi_cp_test(kernel)
        assert is_cp and np.shape(spec.kraus_like) == (d * d, d, d)
        counts[d] = len(calls)
    assert counts[2] == counts[6]


def test_choi_eigen_matrices_are_decomposed_on_first_read(monkeypatch, rng):
    eigh = _count(monkeypatch, _LINALG, "eigh")
    eigvalsh = _count(monkeypatch, _LINALG, "eigvalsh")
    kernel = kernel_from_generator(build_superoperator(random_lindblad_model(rng, 3)), 0.5)
    is_cp, spec = choi_cp_test(kernel)
    assert is_cp and (len(eigvalsh), len(eigh)) == (1, 0)
    first = spec.kraus_like
    assert (len(eigvalsh), len(eigh)) == (1, 1)
    kraus_operators(spec)
    assert spec.kraus_like is first
    assert (len(eigvalsh), len(eigh)) == (1, 1)


def test_build_superoperator_numpy_calls_do_not_grow_with_operators(monkeypatch, rng):
    # one broadcast over the operator stack, one ordered sum over it
    calls = _numpy_calls(monkeypatch, lindblad)
    counts = {}
    for n_ops in (0, 1, 2, 5):
        model = random_lindblad_model(rng, 3, n_ops)
        calls.clear()
        build_superoperator(model)
        counts[n_ops] = len(calls)
    assert "kron" not in calls
    assert counts[0] <= counts[1] == counts[2] == counts[5]


def test_spectrum_numpy_calls_do_not_grow_with_d(monkeypatch, rng):
    # with one-member clusters only: the chains map back in one product,
    # the modes are one reshape of it, and the span test is one matrix
    calls = _numpy_calls(monkeypatch, lindblad)
    calls_matcore = _numpy_calls(monkeypatch, matcore)
    counts = {}
    for d in (3, 6):
        model = random_lindblad_model(rng, d)
        calls.clear()
        calls_matcore.clear()
        spec = spectrum(model)
        assert spec.chains.lengths == [[1]] * (d * d)
        counts[d] = (len(calls), len(calls_matcore))
    assert counts[3] == counts[6]


def test_first_order_rotates_only_degenerate_groups(monkeypatch, rng):
    # one-member groups take Re diag(V^dag delta V) in one product, and
    # ||a||_2 comes from the eigenvalues: no eigh per group, no norm
    calls = _numpy_calls(monkeypatch, perturb)
    counts = {}
    for d in (3, 8):
        calls.clear()
        res = first_order(np.diag(np.arange(d, dtype=float)), random_hermitian(rng, d))
        assert res.degeneracy_groups == [[k] for k in range(d)]
        counts[d] = len(calls)
    assert "linalg.eigh" not in calls and "linalg.norm" not in calls
    assert counts[3] == counts[8]
