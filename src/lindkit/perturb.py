"""First-order perturbation theory for Hermitian operators, including the
rotation that diagonalizes the perturbation inside each degenerate subspace.

Within a degenerate eigenvalue the naive first-order formula is inconsistent
unless the unperturbed eigenvectors are chosen so that the perturbation is
diagonal in the degenerate block; ``first_order`` performs exactly that
rotation and returns the rotated basis together with the eigenvalue shifts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionMismatch, NotHermitian


@dataclass
class PerturbationResult:
    base_eigenvalues: np.ndarray      # unperturbed eigenvalues, ascending
    shifts: np.ndarray                # first-order shifts, same order/units
    rotated_basis: np.ndarray         # orthonormal columns
    degeneracy_groups: list[list[int]]

    @property
    def dim(self) -> int:
        return self.rotated_basis.shape[0]


def _fix_phases(basis: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first non-negligible component of each column real-positive.

    Reproducibility convention only; any global phase is physically
    equivalent.  The columns are unit vectors, so each has a component above
    ``tol``; hypot is the modulus abs() takes of a complex scalar.
    """
    first = np.argmax(np.abs(basis) > tol, axis=0)
    pivot = basis[first, np.arange(basis.shape[1])]
    return basis * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


def first_order(a, delta_a, degeneracy_tol: float | None = None) -> PerturbationResult:
    """First-order eigenvalue shifts of ``a`` under the perturbation ``delta_a``.

    Eigenvalues of ``a`` within ``degeneracy_tol`` of each other form one
    degeneracy group (default 1e-9 * ||a||).  Within each group the returned
    basis diagonalizes ``delta_a``, so the block <u_m| delta_a |u_n> is
    diagonal and the shifts are its eigenvalues; for a nondegenerate
    eigenvalue the rotation is the identity up to phase.
    """
    am = matcore.as_square_matrix(a)
    dm = matcore.as_square_matrix(delta_a)
    if am.shape != dm.shape:
        raise DimensionMismatch(
            f"operator is {am.shape} but perturbation is {dm.shape}"
        )
    if not matcore._is_hermitian(dm, matcore.TOL_HERM):
        raise NotHermitian("perturbation must be Hermitian")
    vals, vecs = matcore.herm_eig(am)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(1.0, float(np.linalg.norm(am, 2)))

    # vals are sorted, so groups are contiguous runs with small gaps
    breaks = (np.flatnonzero(np.diff(vals) > degeneracy_tol) + 1).tolist()
    groups = [list(range(a, b)) for a, b in zip([0, *breaks], [*breaks, len(vals)])]

    shifts = np.empty_like(vals)
    rotated = vecs.copy()
    for grp in groups:
        sub = vecs[:, grp]
        block = sub.conj().T @ dm @ sub
        block = 0.5 * (block + block.conj().T)
        dvals, w = np.linalg.eigh(block)
        shifts[grp] = dvals
        rotated[:, grp] = sub @ w
    rotated = _fix_phases(rotated)
    return PerturbationResult(vals, shifts, rotated, groups)
