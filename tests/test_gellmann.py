"""The Gell-Mann coordinate layer against the dense basis of tests/oracles.py.

Each map of :mod:`lindkit.gellmann`, and each library result built on it,
is compared with the same product taken with the explicit d^2 x d^2
unitary V, within 1e-14 of the reference's largest entry."""
import numpy as np
import pytest

from conftest import random_hermitian, random_lindblad_model, random_matrix
from lindkit import channels, gellmann, lindblad, matcore
from lindkit.channels import GKSForm, gks_build, gks_project, kernel_from_generator
from oracles import gellmann_basis, gks_build_dense, gks_project_dense, vec_basis

DIMS = [1, 2, 3, 4, 5, 8, 12, 16, 24]
SEEDS = [0, 1, 2]
TOL = 1e-14


def _close(got, ref):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= TOL * np.abs(ref).max(initial=0.0)


@pytest.mark.parametrize("d", DIMS)
def test_maps_are_the_dense_products(d):
    v = vec_basis(d)
    for seed in SEEDS:
        rng = np.random.default_rng([d, seed])
        a = random_matrix(rng, d * d)
        for x in (a, a[:, 0], a[:, :3].real):
            _close(gellmann.to_coords(x), v.conj().T @ x)
            _close(gellmann.from_coords(x), v @ x)
        _close(gellmann.both_axes(gellmann.to_coords, a), v.conj().T @ a @ v)
        _close(gellmann.both_axes(gellmann.from_coords, a), v @ a @ v.conj().T)
    _close(gellmann_basis(d), v.T[1:].reshape(d * d - 1, d, d))


@pytest.mark.parametrize("d", DIMS)
def test_real_coordinates_give_exactly_hermitian_matrices(d):
    # mirror entries with the bits of each other's conjugates, including the
    # sign of a zero, and a diagonal whose imaginary part is +0
    c = np.random.default_rng(d).standard_normal((d * d, 5))
    c[1:, 0] = 0.0
    c[1:, 1] = -0.0
    m = gellmann.from_coords(c).T.reshape(5, d, d)
    j, k = np.triu_indices(d, 1)
    for part, sign in ((m.real, 1.0), (m.imag, -1.0)):
        assert np.array_equal(part[:, j, k].view(np.int64), (sign * part[:, k, j]).view(np.int64))
    assert not np.diagonal(m.imag, axis1=1, axis2=2).view(np.int64).any()


@pytest.mark.parametrize("d", DIMS)
def test_generator_and_kernel_are_the_dense_products(d):
    v = vec_basis(d)
    for seed in SEEDS:
        model = random_lindblad_model(np.random.default_rng([d, seed]), d)
        gen = lindblad.build_superoperator(model)
        ref = (v.conj().T @ gen @ v).real
        _close(channels._real_generator(gen), ref)
        r = lindblad._hermitian_generator(model)
        assert not r[0].any()
        _close(r[1:], ref[1:])
        if seed == 0:
            step = matcore.expm(r, 0.3) - np.eye(d * d)
            _close(kernel_from_generator(gen, 0.3).matrix, np.eye(d * d) + v @ step @ v.conj().T)


@pytest.mark.parametrize("d", DIMS)
def test_spectrum_maps_back_as_the_dense_basis(d):
    # the chains of one eig of R, mapped back by V
    model = random_lindblad_model(np.random.default_rng(d), d)
    r = lindblad._hermitian_generator(model)
    scale = max(1.0, float(np.linalg.norm(r, 2)))
    in_r = matcore.general_eig(r, tol_cluster=matcore.TOL_CLUSTER_REL * scale)
    spec = lindblad.spectrum(model)
    _close(spec.chains.vectors, vec_basis(d) @ in_r.vectors)


@pytest.mark.parametrize("d", DIMS)
def test_gks_maps_are_the_dense_products(d):
    for seed in SEEDS:
        rng = np.random.default_rng([d, seed])
        gen = lindblad.build_superoperator(random_lindblad_model(rng, d))
        h_ref, c_ref = gks_project_dense(gen)
        gks = gks_project(gen)
        _close(gks.hamiltonian, h_ref)
        _close(gks.c_matrix, c_ref)
        a = random_matrix(rng, d * d - 1)
        form = GKSForm(d, random_hermitian(rng, d), a @ a.conj().T)
        _close(gks_build(form), gks_build_dense(form))
