"""Cost guards without timing: count the kernel calls that made the spectral
and GKS layers O(d^8) and evolution one dense exponential per time point, and
the constructions that made each CLI command parse its config twice, so a
return to per-cluster SVDs, per-pair Kronecker products, per-time
superoperator builds or a second config parse fails a test."""
import json
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density, random_hermitian, random_lindblad_model, random_matrix
from lindkit import GKSForm, cli, gks_build, lindblad, ramsey, spectrum
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


@pytest.mark.parametrize("command", ["lindblad-evolve", "entropy-check"])
def test_time_grid_builds_once(monkeypatch, rng, tmp_path, capsys, command):
    d = 8
    model = random_lindblad_model(rng, d)
    rho0 = random_density(rng, d, strictly_positive=True).matrix
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "model": json.loads(model.to_json()),
        "rho0": {"re": rho0.real.reshape(-1).tolist(), "im": rho0.imag.reshape(-1).tolist()},
        "times": np.linspace(0.05, 2.0, 50).tolist(),
    }))
    builds = _count(monkeypatch, [lindblad], "build_superoperator")
    expms = _count(monkeypatch, [scipy.linalg], "expm")
    assert cli.main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # Taylor steps between neighbouring times; at most the first step from
    # t = 0 may be long enough to need a dense exponential
    assert len(expms) <= 1


@pytest.mark.parametrize("command, owner, name, calls", [
    ("lindblad-evolve", lindblad.LindbladModel, "from_json", 1),
    ("lindblad-spectrum", lindblad.LindbladModel, "from_json", 1),
    ("entropy-check", lindblad.LindbladModel, "from_json", 1),
    ("extract-generator", lindblad.LindbladModel, "from_json", 1),
    ("ramsey-point", ramsey.RamseyConfig, "from_dict", 1),
    ("ramsey-scan", ramsey.RamseyConfig, "from_dict", 2),  # fig-both: two curves
    ("born-check", cli, "_matrix_from", 1),
])
def test_default_config_is_parsed_once(monkeypatch, capsys, command, owner, name, calls):
    built = _count(monkeypatch, [owner], name)
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert len(built) == calls
