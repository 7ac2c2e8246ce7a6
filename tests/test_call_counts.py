"""Cost guards without timing: count the kernel calls that made the spectral
and GKS layers O(d^8) and evolution one dense exponential per time point, and
the constructions that made each CLI command parse its config twice, so a
return to per-cluster SVDs, per-pair Kronecker products, per-time
superoperator builds, per-state eigendecompositions, per-step Taylor plans, a
second config parse, a parser per call, per-pair projector checks, a
generator built for the closed-form Born limit, or a per-member loop over an
operator family (the Gell-Mann basis, the Choi eigen-matrices) fails a test."""
import argparse
import json
import sys
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density, random_hermitian, random_lindblad_model, random_matrix
from lindkit import (GKSForm, ProjectorBasis, bfr_derivative_check, build_superoperator,
                     channels, choi_cp_test, cli, gks_build, kernel_from_generator, lindblad,
                     matcore, ramsey, spectrum)
from lindkit.channels import gks_lindblad_ops
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
        assert cs.multiplicities == [1] * n
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
        assert cs.multiplicities == [1] * n
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


def test_gks_build_kron_calls_do_not_grow_with_d(monkeypatch, rng):
    calls = _count(monkeypatch, [np], "kron")
    counts = {}
    for d in (2, 4, 8):
        gks = GKSForm(d, random_hermitian(rng, d), random_hermitian(rng, d * d - 1))
        calls.clear()
        gks_build(gks)
        counts[d] = len(calls)
    assert counts[2] == counts[4] == counts[8]


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
    # step; the first step from t = 0 and the +-eps steps are Taylor steps
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


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    builds = _count(monkeypatch, [argparse.ArgumentParser], "add_subparsers")
    codes = [cli.main([command]) for command in
             ("lindblad-evolve", "ramsey-point", "cp-check", "lindblad-evolve")]
    capsys.readouterr()
    assert codes == [0, 0, 3, 0]  # the bundled transpose kernel is not CP
    assert len(builds) == 1


@pytest.mark.parametrize("command, owner, name, calls", [
    ("lindblad-evolve", lindblad.LindbladModel, "from_dict", 1),
    ("lindblad-spectrum", lindblad.LindbladModel, "from_dict", 1),
    ("entropy-check", lindblad.LindbladModel, "from_dict", 1),
    ("extract-generator", lindblad.LindbladModel, "from_dict", 1),
    ("ramsey-point", ramsey.RamseyConfig, "from_dict", 1),
    ("ramsey-scan", ramsey.RamseyConfig, "from_dict", 2),  # fig-both: two curves
    ("born-check", cli, "_matrix_from", 1),
])
def test_default_config_is_parsed_once(monkeypatch, capsys, command, owner, name, calls):
    built = _count(monkeypatch, [owner], name)
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert len(built) == calls


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
        (lindblad, "build_superoperator"), (matcore, "expm"), (matcore, "expm_action"),
        (lindblad, "evolve_many"))]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [len(c) for c in calls] == [0, 0, 0, 0]


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
    function through it, also through a submodule such as ``np.linalg``, is
    recorded by its dotted name.  Classes and constants pass through."""

    def __init__(self, module, calls, prefix=""):
        self._module, self._calls, self._prefix = module, calls, prefix

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, types.ModuleType):
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


def test_gks_lindblad_ops_numpy_calls_do_not_grow_with_d(monkeypatch, rng):
    # one tensordot of the kept c eigenvectors with the stacked basis
    calls = _numpy_calls(monkeypatch, channels)
    counts = {}
    for d in (2, 4):
        gks = _gks(rng, d)
        calls.clear()
        assert len(gks_lindblad_ops(gks)) == d * d - 1
        counts[d] = len(calls)
    assert "trace" not in calls
    assert counts[2] == counts[4]


def test_choi_cp_test_numpy_calls_do_not_grow_with_d(monkeypatch, rng):
    # one eigh and one phase gather for all d^2 eigen-matrices
    calls = _numpy_calls(monkeypatch, channels)
    counts = {}
    for d in (2, 6):
        kernel = kernel_from_generator(build_superoperator(random_lindblad_model(rng, d)), 0.5)
        calls.clear()
        is_cp, spec = choi_cp_test(kernel)
        assert is_cp and np.shape(spec.kraus_like) == (d * d, d, d)
        counts[d] = len(calls)
    assert counts[2] == counts[6]
