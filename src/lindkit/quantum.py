"""Density matrices, alone or as a checked stack that holds their
eigenvalues, measurement bases as one unitary each, projective measurement
collapse, and the von Neumann entropy with its dissipative rate formula, in
nats (natural log).  Unitary evolution is ``lindblad.evolve`` of a model
without jump operators.

Density-matrix constructors repair eigenvalues in [-TOL_POS, 0) by clipping
to zero and renormalizing the trace, recording that the repair happened --
long evolutions accumulate negativity at the 1e-13 scale and a silent hard
failure there would be useless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    IncompleteBasis,
    InvalidDensityMatrix,
    NotHermitian,
    SingularState,
    UnnormalizedState,
)

TOL_TRACE = 1e-10
TOL_POS = 1e-10
TOL_POS_STRICT = 1e-12
TOL_PROJECTOR = 1e-10


def _checked(mats):
    """(matrices, repaired flags, eigenvalues before the repair) of the stack
    ``mats``, checked and repaired as :meth:`DensityMatrix.from_matrices` says."""
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    # a non-finite entry makes the Hermiticity defect NaN, so the check
    # flags that matrix too, and only a flagged one is tested for finiteness
    not_herm = ~matcore._is_hermitian(a, matcore.TOL_HERM)
    # halved before the sum, which then cannot overflow to entries whose NaN
    # eigenvalues would pass the eigenvalue test below
    a = 0.5 * a + 0.5 * a.conj().transpose(0, 2, 1)
    tr = a.trace(axis1=1, axis2=2).real
    bad = (not_herm | (np.abs(tr - 1.0) > TOL_TRACE)).tolist()
    good = bad.index(True) if True in bad else a.shape[0]
    vals = np.linalg.eigvalsh(a[:good])
    low = vals[:, 0].tolist()
    least = min(low, default=0.0)
    if least < -TOL_POS:
        first = next(p for p in low if p < -TOL_POS)
        raise InvalidDensityMatrix(f"minimum eigenvalue {first:.3e} below -{TOL_POS:.0e}")
    if True in bad:
        if not np.isfinite(a[good]).all():
            raise ValueError("matrix entries must be finite")
        if not_herm[good]:
            raise NotHermitian("density matrix must be Hermitian")
        raise InvalidDensityMatrix(f"trace is {float(tr[good])}, not 1")
    repaired = vals[:, 0] < 0.0
    if least < 0.0:
        p, v = np.linalg.eigh(a[repaired])
        fixed = (v * np.maximum(p, 0.0)[:, None, :]) @ np.conjugate(v).swapaxes(1, 2)
        # the product's mirror entries differ in their last bits
        fixed = 0.5 * (fixed + np.conjugate(fixed).swapaxes(1, 2))
        a[repaired] = fixed / fixed.trace(axis1=1, axis2=2).real[:, None, None]
    return a, repaired, vals


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    ``repaired`` records whether the constructor clipped small negative
    eigenvalues and renormalized."""

    matrix: np.ndarray
    repaired: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, mat) -> "DensityMatrix":
        a, repaired, _ = _checked(matcore.as_square_matrix(mat)[None])
        return cls(a[0], bool(repaired[0]))

    @classmethod
    def from_matrices(cls, mats) -> "States":
        """:meth:`from_matrix` of every matrix of an (n, d, d) stack, as one
        :class:`States`: one Hermiticity, trace and ``eigvalsh`` check of the
        stack, and one ``eigh`` and one ``eigvalsh`` of the states it repairs.
        The first invalid matrix raises what :meth:`from_matrix` raises."""
        a, repaired, vals = _checked(mats)
        if repaired.any():
            vals[repaired] = np.linalg.eigvalsh(a[repaired])
        return States(a, repaired, vals)

    @classmethod
    def pure(cls, state) -> "DensityMatrix":
        v = np.asarray(state, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= 1e-12:  # a NaN norm too
            raise UnnormalizedState(f"state norm is {nrm}")
        return cls(np.outer(v, v.conj()))


@dataclass(eq=False)
class States:
    """A checked stack of n states: ``matrices`` (n, d, d), one ``repaired``
    flag per state, and ``eigenvalues`` (n, d), the ascending ``eigvalsh``
    eigenvalues of each matrix, which :func:`vn_entropies` reads.  Item k is
    state k as a :class:`DensityMatrix` on row k of ``matrices``; an index
    array or a slice gives the ``States`` of those rows."""

    matrices: np.ndarray
    repaired: np.ndarray
    eigenvalues: np.ndarray

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return DensityMatrix(self.matrices[k], bool(self.repaired[k]))
        return States(self.matrices[k], self.repaired[k], self.eigenvalues[k])


@dataclass
class ProjectorBasis:
    """A measurement basis as the unitary ``u`` of its vectors, P_alpha =
    u_alpha u_alpha^dag for column alpha, checked orthonormal and complete,
    with optional equivalence classes of indistinguishable outcomes."""

    u: np.ndarray
    classes: list[list[int]] | None = None

    def __post_init__(self):
        u = self.u = np.array(self.u, dtype=complex)  # a copy the caller cannot change
        u.flags.writeable = False
        d = len(u) if u.ndim == 2 else 0
        # a unitary's entries are at most 1 in modulus, which a NaN entry fails,
        # and bounded entries keep U^dag U finite
        if not (d and u.shape == (d, d) and (np.abs(u) <= 1.0 + TOL_PROJECTOR).all()
                and matcore._frobenius(u.conj().T @ u - np.eye(d)) <= TOL_PROJECTOR * d):
            raise IncompleteBasis(f"a basis of C^d is d orthonormal vectors, got U of {u.shape}")
        if self.classes is not None:
            flat = sorted(i for c in self.classes for i in c)
            if flat != list(range(d)):
                raise IncompleteBasis("classes are not a partition of outcomes")

    @classmethod
    def from_vectors(cls, vectors, classes=None) -> "ProjectorBasis":
        """u_alpha = vectors[alpha] conj(u_k) / sqrt(|u_k|^2), k its entry of
        largest modulus, as column k of P_alpha over sqrt(P_kk) reads it."""
        w = np.asarray(vectors, dtype=complex)
        if not (w.ndim and w.size):
            raise IncompleteBasis("a basis needs a list of at least one vector")
        w = w.reshape(len(w), -1)
        if not np.isfinite(w).all():
            raise ValueError("basis vector entries must be finite")
        # a unit vector's entries are at most 1 in modulus, and bounded so, no
        # square overflows
        if (np.abs(w) <= 1.0 + 1e-12).all():
            sq = (w * w.conj()).real
            if (np.abs(np.sqrt(sq.sum(axis=1)) - 1.0) <= 1e-12).all():
                n = range(len(w))
                k = sq.argmax(axis=1)
                return cls(((w * w[n, k].conj()[:, None]) / np.sqrt(sq[n, k])[:, None]).T,
                           classes)
        raise UnnormalizedState("basis vectors must be normalized")

    @classmethod
    def computational(cls, dim: int, classes=None) -> "ProjectorBasis":
        return cls.from_vectors(np.eye(dim), classes)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def _class_mask(self) -> np.ndarray:
        """Boolean (n, n): alpha and beta share a class (identity if no classes)."""
        label = np.arange(self.dim)
        for k, c in enumerate(self.classes or []):
            label[c] = k
        return label[:, None] == label[None, :]

    def _diagonal(self, coeffs) -> np.ndarray:
        """sum_alpha c_alpha P_alpha = U diag(c) U^dag for each row c of coeffs."""
        return (self.u * np.asarray(coeffs)[..., None, :]) @ self.u.conj().T

    def _weighted(self, rho: "DensityMatrix", weights) -> "DensityMatrix":
        """sum_{alpha beta} w_{alpha beta} P_alpha rho P_beta, taken as
        U ((U^dag rho U) o w) U^dag with o the element-wise product."""
        u = self.u
        return DensityMatrix.from_matrix(u @ ((u.conj().T @ rho.matrix @ u) * weights)
                                         @ u.conj().T)


def born_collapse(rho: DensityMatrix, basis: ProjectorBasis) -> DensityMatrix:
    """Projective collapse: sum_m P_m rho P_m, or sum_C P_C rho P_C when the
    basis carries outcome classes (incomplete measurement): rho's coherences
    weighted by the diagonal or class-block mask."""
    if basis.dim != rho.dim:
        raise IncompleteBasis(
            f"basis dimension {basis.dim} does not match state dimension {rho.dim}"
        )
    return basis._weighted(rho, basis._class_mask())


def vn_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -sum p ln p in nats, with 0 ln 0 := 0."""
    return float(vn_entropies(np.linalg.eigvalsh([rho.matrix]))[0])


def vn_entropies(eigenvalues) -> np.ndarray:
    """:func:`vn_entropy` of every state of a stack from its ascending
    eigenvalues, one row per state, as :attr:`States.eigenvalues` holds
    them."""
    p = np.asarray(eigenvalues)
    # eigvalsh sorts ascending, so the p <= 0 dropped by 0 ln 0 := 0 are a
    # prefix of each row: summing a row from its first positive entry adds
    # the same terms in the same order as a sum over p[p > 0] alone
    first = np.count_nonzero(p <= 0.0, axis=-1)
    s = np.empty(len(p))
    for k in sorted(set(first.tolist())):
        rows = first == k
        q = p[rows, k:]
        s[rows] = -np.sum(q * np.log(q), axis=-1)
    return np.where(s < 0.0, 0.0, s)  # max(s, 0.0), which keeps -0.0


def entropy_rate(rho: DensityMatrix, lindblads) -> float:
    """dS/dt along the dissipative flow, evaluated in the eigenbasis of rho.

    Returns sum_{ij,a} |(L_a)_{ij}|^2 p_j (ln p_j - ln p_i); the Hamiltonian
    contribution vanishes identically.  Requires a strictly positive state --
    the p -> 0 limit of the formula is delicate, so regularizing is the
    caller's decision, not ours.
    """
    return float(entropy_rates([rho.matrix], lindblads)[0])


def entropy_rates(matrices, lindblads) -> np.ndarray:
    """:func:`entropy_rate` of every state of an (n, d, d) stack, such as
    :attr:`States.matrices`, from one stacked ``eigh``; the first state that
    is not strictly positive raises SingularState."""
    p, v = np.linalg.eigh(matrices)
    singular = p[:, 0] <= TOL_POS_STRICT
    if singular.any():
        raise SingularState(
            f"entropy rate needs all eigenvalues > {TOL_POS_STRICT:.0e}, "
            f"got minimum {p[np.argmax(singular), 0]:.3e}"
        )
    lnp = np.log(p)
    vh = v.conj().transpose(0, 2, 1)
    rate = np.zeros(len(p))
    for l in lindblads:
        w = np.abs(vh @ matcore.as_square_matrix(l) @ v) ** 2
        cross = (lnp[:, None, :] @ w @ p[:, :, None])[:, 0, 0]
        rate += np.sum(w.sum(axis=1) * p * lnp, axis=-1) - cross
    return rate
