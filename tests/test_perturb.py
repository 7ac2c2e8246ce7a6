import numpy as np
import pytest

from conftest import random_hermitian, random_unitary
from lindkit import errors, first_order


def test_commuting_diagonal_case():
    res = first_order(np.diag([1.0, 2.0, 3.0]), np.diag([0.1, 0.2, 0.3]))
    assert np.allclose(res.shifts, [0.1, 0.2, 0.3], atol=1e-14)
    assert np.allclose(np.abs(res.rotated_basis), np.eye(3), atol=1e-14)
    assert res.degeneracy_groups == [[0], [1], [2]]


def test_fully_degenerate_pauli_x_rotation():
    eps = 0.01
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    res = first_order(np.eye(2), eps * sx)
    assert np.allclose(sorted(res.shifts), [-eps, eps], atol=1e-14)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    # ascending shifts: first column pairs with -eps, i.e. |->
    assert np.allclose(res.rotated_basis[:, 0], minus, atol=1e-12)
    assert np.allclose(res.rotated_basis[:, 1], plus, atol=1e-12)


def _degenerate_fixture(rng, d=6, degeneracy=3):
    u = random_unitary(rng, d)
    base = np.array([2.0] * degeneracy + [5.0, 7.0, 9.0][: d - degeneracy])
    a = (u * base) @ u.conj().T
    a = 0.5 * (a + a.conj().T)
    return a, random_hermitian(rng, d)


def _prediction_error(a, da, eps):
    res = first_order(a, da)
    exact = np.linalg.eigvalsh(a + eps * da)
    pred = np.sort(res.base_eigenvalues + eps * res.shifts)
    return np.max(np.abs(np.sort(exact) - pred))


def test_second_order_convergence_on_degenerate_fixture(rng):
    a, da = _degenerate_fixture(rng)
    errs = {eps: _prediction_error(a, da, eps) for eps in (1e-2, 5e-3)}
    assert errs[1e-2] / errs[5e-3] >= 3.5


def test_degenerate_block_is_diagonalized(rng):
    a, da = _degenerate_fixture(rng)
    res = first_order(a, da)
    for grp in res.degeneracy_groups:
        sub = res.rotated_basis[:, grp]
        block = sub.conj().T @ da @ sub
        off = block - np.diag(np.diag(block))
        assert np.linalg.norm(off) < 1e-10


def test_nondegenerate_shifts_equal_diagonal_expectations(rng):
    a = random_hermitian(rng, 5)
    da = random_hermitian(rng, 5)
    res = first_order(a, da)
    vals, vecs = np.linalg.eigh(a)
    expect = np.array([np.real(v.conj() @ da @ v) for v in vecs.T])
    assert np.max(np.abs(res.shifts - expect)) < 1e-12


def test_trace_conservation(rng):
    a, da = _degenerate_fixture(rng)
    res = first_order(a, da)
    assert abs(res.shifts.sum() - np.trace(da).real) < 1e-10


def test_rejects_non_hermitian_inputs(rng):
    a = random_hermitian(rng, 3)
    bad = a + 1j * np.eye(3)
    with pytest.raises(errors.NotHermitian):
        first_order(a, bad)
    with pytest.raises(errors.DimensionMismatch):
        first_order(a, random_hermitian(rng, 4))
