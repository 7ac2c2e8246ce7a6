"""Cost guards without timing: count the kernel calls that made the spectral
and GKS layers O(d^8), so a return to per-cluster SVDs or per-pair Kronecker
products fails a test."""
import sys

import numpy as np

from conftest import random_hermitian, random_matrix
from lindkit import GKSForm, gks_build
from lindkit.matcore import general_eig


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
    # norm and matrix_rank call svd through numpy's implementation module
    linalg = [np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)]
    calls = _count(monkeypatch, linalg, "svd")
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
