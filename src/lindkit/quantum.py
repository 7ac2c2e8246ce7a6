"""Density matrices, projective measurement collapse, unitary steps, and the
von Neumann entropy with its dissipative rate formula.

Entropy is in nats throughout (natural log); converting to bits is a display
concern.  Density-matrix constructors repair eigenvalues in [-tol_pos, 0) by
clipping to zero and renormalizing the trace, recording that the repair
happened -- long evolutions accumulate negativity at the 1e-13 scale and a
silent hard failure there would be useless.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import (
    BadWeights,
    DimensionMismatch,
    IncompleteBasis,
    InvalidDensityMatrix,
    NotHermitian,
    SingularState,
    UnnormalizedState,
)

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_POS = 1e-10
TOL_POS_STRICT = 1e-12


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    ``repaired`` records whether the constructor clipped small negative
    eigenvalues and renormalized.
    """

    matrix: np.ndarray
    repaired: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(
        cls,
        mat,
        tol_herm: float = TOL_HERM,
        tol_trace: float = TOL_TRACE,
        tol_pos: float = TOL_POS,
    ) -> "DensityMatrix":
        a = matcore.as_square_matrix(mat)
        return cls.from_matrices(a[None], tol_herm, tol_trace, tol_pos)[0]

    @classmethod
    def from_matrices(
        cls,
        mats,
        tol_herm: float = TOL_HERM,
        tol_trace: float = TOL_TRACE,
        tol_pos: float = TOL_POS,
    ) -> "list[DensityMatrix]":
        """:meth:`from_matrix` of every matrix of an (n, d, d) stack, with one
        Hermiticity and trace check and one ``eigh`` call for the stack.  The
        first invalid matrix raises what :meth:`from_matrix` raises for it."""
        a = np.asarray(mats, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
            raise DimensionMismatch(
                f"expected a stack of square matrices, got shape {a.shape}"
            )
        finite = np.isfinite(a).all(axis=(1, 2))
        not_herm = ~matcore._is_hermitian(a, tol_herm)
        a = 0.5 * (a + a.conj().transpose(0, 2, 1))
        tr = np.trace(a, axis1=1, axis2=2).real
        bad = ~finite | not_herm | (np.abs(tr - 1.0) > tol_trace)
        good = int(np.argmax(bad)) if bad.any() else len(a)
        vals, vecs = np.linalg.eigh(a[:good])
        low = vals[:, 0] < -tol_pos
        if low.any():
            raise InvalidDensityMatrix(
                f"minimum eigenvalue {vals[np.argmax(low), 0]:.3e} below -{tol_pos:.0e}"
            )
        if good < len(a):
            if not finite[good]:
                raise ValueError("matrix entries must be finite")
            if not_herm[good]:
                raise NotHermitian("density matrix must be Hermitian")
            raise InvalidDensityMatrix(f"trace is {float(tr[good])}, not 1")
        repaired = vals[:, 0] < 0.0
        if repaired.any():
            p = np.clip(vals[repaired], 0.0, None)
            v = vecs[repaired]
            fixed = (v * p[:, None, :]) @ v.conj().transpose(0, 2, 1)
            a[repaired] = fixed / np.trace(fixed, axis1=1, axis2=2).real[:, None, None]
        return [cls(m, bool(r)) for m, r in zip(a, repaired)]

    @classmethod
    def pure(cls, state) -> "DensityMatrix":
        v = np.asarray(state, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-12:
            raise UnnormalizedState(f"state norm is {nrm}")
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass
class ProjectorBasis:
    """Rank-1 orthogonal projectors summing to the identity, optionally
    partitioned into equivalence classes of indistinguishable outcomes.  The
    basis is kept as one unitary U with P_alpha = U[:, alpha] U[:, alpha]^dag."""

    projectors: list[np.ndarray]
    classes: list[list[int]] | None = None
    _tol: float = field(default=1e-10, repr=False)
    _u: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        p = np.asarray(self.projectors, dtype=complex)
        n, d = len(p), p.shape[-1]
        # column k of P = v v^dag is v conj(v_k): over sqrt(P_kk), v up to a phase
        k = np.argmax(np.diagonal(p, axis1=1, axis2=2).real, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = p[range(n), :, k] / np.sqrt(p[range(n), k, k].real)[:, None]
        defect = np.linalg.norm(p - v[:, :, None] * v[:, None, :].conj(), axis=(1, 2))
        if not np.all(defect <= self._tol):  # also catches a NaN defect
            raise IncompleteBasis("projectors must be rank-1 projectors")
        self._u = v.T
        if n != d or np.linalg.norm(v.conj() @ v.T - np.eye(n)) > self._tol * d:
            raise IncompleteBasis("projectors are not orthogonal or do not sum to the identity")
        if self.classes is not None:
            flat = sorted(i for c in self.classes for i in c)
            if flat != list(range(n)):
                raise IncompleteBasis("classes are not a partition of outcomes")

    @classmethod
    def from_vectors(cls, vectors, classes=None) -> "ProjectorBasis":
        w = np.array([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
        if np.any(np.abs(np.linalg.norm(w, axis=1) - 1.0) > 1e-12):
            raise UnnormalizedState("basis vectors must be normalized")
        return cls(list(w[:, :, None] * w[:, None, :].conj()), classes)

    @classmethod
    def computational(cls, dim: int, classes=None) -> "ProjectorBasis":
        return cls.from_vectors(np.eye(dim), classes)

    @property
    def dim(self) -> int:
        return self._u.shape[0]

    def _class_mask(self) -> np.ndarray:
        """Boolean (n, n): alpha and beta share a class (identity if no classes)."""
        label = np.arange(self.dim)
        for k, c in enumerate(self.classes or []):
            label[c] = k
        return label[:, None] == label[None, :]

    def _diagonal(self, coeffs) -> np.ndarray:
        """sum_alpha c_alpha P_alpha = U diag(c) U^dag for each row c of coeffs."""
        return (self._u * np.asarray(coeffs)[..., None, :]) @ self._u.conj().T

    def _weighted(self, rho: "DensityMatrix", weights) -> "DensityMatrix":
        """sum_{alpha beta} w_{alpha beta} P_alpha rho P_beta, taken as
        U ((U^dag rho U) o w) U^dag with o the element-wise product."""
        u = self._u
        return DensityMatrix.from_matrix(u @ ((u.conj().T @ rho.matrix @ u) * weights)
                                         @ u.conj().T)


def mixture(weights, states) -> DensityMatrix:
    """rho = sum_i w_i |psi_i><psi_i| for classical weights over (possibly
    non-orthogonal) normalized states."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got sum {w.sum()}")
    if len(w) != len(states):
        raise BadWeights("one weight per state required")
    v = np.asarray(states, dtype=complex).reshape(len(w), -1)
    if np.any(np.abs(np.linalg.norm(v, axis=1) - 1.0) > 1e-12):
        raise UnnormalizedState("mixture states must be normalized")
    # added in order from 0, so an entry that is -0.0 in every term sums to +0.0
    terms = w[:, None, None] * (v[:, :, None] * v[:, None, :].conj())
    return DensityMatrix.from_matrix(np.sum(terms, axis=0, initial=0.0))


def expectation(rho: DensityMatrix, obs) -> float:
    """Tr(obs * rho) for a Hermitian observable; the (tiny) imaginary part of
    the trace is discarded."""
    a = matcore.as_square_matrix(obs)
    if not matcore._is_hermitian(a, TOL_HERM):
        raise NotHermitian("observable must be Hermitian")
    return float(np.trace(a @ rho.matrix).real)


def born_collapse(rho: DensityMatrix, basis: ProjectorBasis) -> DensityMatrix:
    """Projective collapse: sum_m P_m rho P_m, or sum_C P_C rho P_C when the
    basis carries outcome classes (incomplete measurement): rho's coherences
    weighted by the diagonal or class-block mask."""
    if basis.dim != rho.dim:
        raise IncompleteBasis(
            f"basis dimension {basis.dim} does not match state dimension {rho.dim}"
        )
    return basis._weighted(rho, basis._class_mask())


def unitary_step(rho: DensityMatrix, h, dt: float) -> DensityMatrix:
    """rho -> U rho U^dag with U = exp(-i h dt)."""
    a = matcore.as_square_matrix(h)
    if not matcore._is_hermitian(a, TOL_HERM):
        raise NotHermitian("Hamiltonian must be Hermitian")
    u = matcore.expm(-1j * a, dt)
    return DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)


def vn_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy -sum p ln p in nats, with 0 ln 0 := 0."""
    return float(vn_entropies([rho])[0])


def vn_entropies(states) -> np.ndarray:
    """:func:`vn_entropy` of every state, from one stacked ``eigvalsh``."""
    if not states:
        return np.zeros(0)
    p = np.linalg.eigvalsh(np.stack([rho.matrix for rho in states]))
    # eigvalsh sorts ascending, so the p <= 0 dropped by 0 ln 0 := 0 are a
    # prefix of each row: summing a row from its first positive entry adds
    # the same terms in the same order as a sum over p[p > 0] alone
    first = np.count_nonzero(p <= 0.0, axis=-1)
    s = np.empty(len(p))
    for k in np.unique(first).tolist():
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
    return float(entropy_rates([rho], lindblads)[0])


def entropy_rates(states, lindblads) -> np.ndarray:
    """:func:`entropy_rate` of every state, from one stacked ``eigh``; the
    first state that is not strictly positive raises SingularState."""
    if not states:
        return np.zeros(0)
    p, v = np.linalg.eigh(np.stack([rho.matrix for rho in states]))
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
