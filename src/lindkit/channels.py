"""Markovian kernels K(tau), their spectral/Choi structure, the complete-
positivity test, the GKS canonical form of generators, the derivative
positivity check, and generator extraction from sampled kernels.

Conventions
-----------
A kernel propagates density-matrix components,

    rho_out[i, j] = sum_{i', j'} K[(i, j), (i', j')] rho_in[i', j'],

stored as a d^2 x d^2 matrix in the row-major vec ordering of
:mod:`lindkit.matcore` (row index i*d + j, column index i'*d + j').

The alternative index pairing K_{i i', j j'} groups (output row, input row)
against (output col, input col); as a matrix that object is the *reshuffle*
of the superoperator and coincides with the Choi matrix in the convention

    C(Phi) = sum_{ij} Phi(|i><j|) (x) |i><j|.

Hermiticity preservation of the map is Hermiticity of this reshuffled matrix,
its eigenvalues are the Choi spectrum (summing to d for a trace-preserving
map), and its reshaped eigenvectors are the orthonormal operator family of
the kernel's spectral decomposition.  One type, :class:`ChoiSpectrum`, holds
that decomposition: the eigenvalues and the eigen-matrices as one
(d^2, d, d) stack.  The stored eigen-matrices depend on this convention;
the CP verdict does not.

The fixed traceless operator basis {F_m} is the generalized Gell-Mann set,
ordered: symmetric pairs (j < k, lexicographic), then antisymmetric pairs,
then diagonal, all normalized to Tr(F_m F_n^dag) = delta_mn.  It is one
read-only (d^2 - 1, d, d) array, so a sum over it is one tensor product,
and Tr(X F_m) for every m is one product with the columns vec(F_m).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    InconsistentSamples,
    NotAGenerator,
    NotHermitian,
    NotHermitianKernel,
    NotTracePreserving,
    SingularSimilarity,
    StepTooLarge,
)

TOL_KERNEL = 1e-10
TOL_GENERATOR_TRACE = 1e-8
# the conventions above, as the kernel JSON declares them
KERNEL_CONVENTIONS = {
    "vec_order": "row-major",
    "choi_convention": "sum Phi(|i><j|) x |i><j|",
}


def reshuffle(mat: np.ndarray, dim: int) -> np.ndarray:
    """Swap the inner index pairing: M[(i,j),(i',j')] <-> C[(i,i'),(j,j')].

    An involution; maps the superoperator form to the Choi/kernel-pairing
    form and back.
    """
    return (
        mat.reshape(dim, dim, dim, dim)
        .transpose(0, 2, 1, 3)
        .reshape(dim * dim, dim * dim)
    )


def trace_defect(mat: np.ndarray, dim: int) -> float:
    """How far the superoperator (a propagator) is from preserving the trace."""
    vec_i = np.eye(dim, dtype=complex).reshape(-1)
    return float(np.linalg.norm(vec_i @ mat - vec_i))


def generator_trace_defect(mat: np.ndarray, dim: int) -> float:
    """Trace condition for a *generator*: the identity must be a left null
    vector, vec(I)^T L = 0."""
    vec_i = np.eye(dim, dtype=complex).reshape(-1)
    return float(np.linalg.norm(vec_i @ mat))


@dataclass
class Kernel:
    """Markovian propagator over an elapsed time tau."""

    dim: int
    tau: float
    matrix: np.ndarray
    _tol: float = field(default=TOL_KERNEL, repr=False)

    def __post_init__(self):
        d = self.dim
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"kernel matrix must be {d*d} x {d*d}, got {self.matrix.shape}"
            )
        c = reshuffle(self.matrix, d)
        defect = np.linalg.norm(c - c.conj().T)
        if defect > self._tol * max(1.0, float(np.linalg.norm(c))):
            raise NotHermitianKernel(
                f"kernel does not preserve Hermiticity (defect {defect:.3e})")
        defect = trace_defect(self.matrix, d)
        if defect > self._tol * d:
            raise NotTracePreserving(f"trace defect {defect:.3e}")
        if self.tau == 0.0:
            if np.linalg.norm(self.matrix - np.eye(d * d)) > self._tol * d:
                raise NotTracePreserving("K(0) must be the identity")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return matcore.unvec(self.matrix @ matcore.vec(rho), self.dim)

    def choi(self) -> np.ndarray:
        return reshuffle(self.matrix, self.dim)

    def to_json(self) -> str:
        flat = self.matrix.reshape(-1)
        return json.dumps(
            {
                "schema": "lindkit.kernel/1",
                "dim": self.dim,
                "tau": self.tau,
                "re": flat.real.tolist(),
                "im": flat.imag.tolist(),
                **KERNEL_CONVENTIONS,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Kernel":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "Kernel":
        """The kernel of a parsed ``lindkit.kernel/1`` document (the form
        :meth:`to_json` writes)."""
        if doc.get("schema") != "lindkit.kernel/1":
            raise ValueError(f"unknown kernel schema {doc.get('schema')!r}")
        d = int(doc["dim"])
        mat = (np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])).reshape(
            d * d, d * d
        )
        return cls(d, float(doc["tau"]), mat)


def kernel_from_generator(generator: np.ndarray, tau: float) -> Kernel:
    """exp(tau * L) wrapped as a Kernel."""
    gen = matcore.as_square_matrix(generator)
    d = int(round(np.sqrt(gen.shape[0])))
    return Kernel(d, tau, matcore.expm(gen, tau))


@dataclass
class ChoiSpectrum:
    """Choi eigenvalues lambda_N, descending (summing to d for a trace-
    preserving kernel), with their orthonormal Kraus-like eigen-matrices E^N
    as one (d^2, d, d) stack: sum_{ii'} E^N_{ii'} (E^M_{ii'})^* = delta_NM.
    Each E^N's phase makes its first entry of largest modulus real positive.
    """

    lambdas: np.ndarray
    kraus_like: np.ndarray

    def reassemble(self) -> np.ndarray:
        """Rebuild the kernel matrix sum_N lambda_N vec(E^N) vec(E^N)^dag
        (in the superoperator ordering)."""
        d = self.kraus_like.shape[-1]
        rows = self.kraus_like.reshape(d * d, d * d)
        return reshuffle((rows.T * self.lambdas) @ rows.conj(), d)


def kernel_spectrum(k: Kernel) -> ChoiSpectrum:
    """Diagonalize the kernel in its Hermitian index pairing.

    At tau = 0 the top eigenvalue is d with eigen-matrix I/sqrt(d) and the
    remaining d^2 - 1 eigenvalues vanish with traceless eigen-matrices.
    """
    vals, vecs = np.linalg.eigh(k.choi())
    order = np.argsort(vals)[::-1]
    rows = vecs.T[order]
    # unit rows, so each pivot is nonzero; hypot is the modulus abs() takes
    # of a complex scalar
    piv = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    rows *= (np.conj(piv) / np.hypot(piv.real, piv.imag))[:, None]
    return ChoiSpectrum(vals[order], rows.reshape(-1, k.dim, k.dim))


def choi_cp_test(k: Kernel, tol: float | None = None):
    """Complete positivity via the Choi spectrum.

    Returns (is_cp, ChoiSpectrum); ``is_cp`` is min(lambda) >= -tol with the
    default tol = 1e-10 * d (the eigensolver noise floor of exactly-CP maps).
    """
    if tol is None:
        tol = 1e-10 * k.dim
    spec = kernel_spectrum(k)
    return bool(spec.lambdas.min() >= -tol), spec


def kraus_operators(spectrum: ChoiSpectrum, tol: float = 1e-12) -> np.ndarray:
    """{sqrt(lambda) E}, stacked, for the nonnegligible Choi eigenvalues;
    reproduces the channel action when the map is CP."""
    keep = spectrum.lambdas > tol
    return np.sqrt(spectrum.lambdas[keep])[:, None, None] * spectrum.kraus_like[keep]


# ---------------------------------------------------------------------------
# Traceless operator basis and the GKS canonical form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gellmann_basis(dim: int) -> np.ndarray:
    """Generalized Gell-Mann matrices for dimension ``dim``, as one read-only
    (d^2 - 1, d, d) stack built once per d.

    d^2 - 1 Hermitian traceless matrices with Tr(F_m F_n^dag) = delta_mn,
    ordered symmetric / antisymmetric / diagonal as documented in the module
    docstring.
    """
    j, k = np.triu_indices(dim, 1)
    sym, anti = np.arange(len(j)), np.arange(len(j), 2 * len(j))
    fs = np.zeros((dim * dim - 1, dim, dim), dtype=complex)
    fs[sym, j, k] = fs[sym, k, j] = 1 / np.sqrt(2)
    fs[anti, j, k], fs[anti, k, j] = -1j / np.sqrt(2), 1j / np.sqrt(2)
    # diagonal l = 1 .. d-1: (1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1))
    l, i = np.arange(1, dim)[:, None], np.arange(dim)
    diag = (i < l) - l * (i == l)
    fs[2 * len(j) + l - 1, i, i] = diag.astype(complex) / np.sqrt(l * (l + 1))
    fs.flags.writeable = False
    return fs


@dataclass
class GKSForm:
    """Generator data (H, c_mn) over the fixed Gell-Mann basis."""

    dim: int
    hamiltonian: np.ndarray
    c_matrix: np.ndarray

    def __post_init__(self):
        n = self.dim * self.dim - 1
        if self.c_matrix.shape != (n, n):
            raise DimensionMismatch(f"c matrix must be {n} x {n}")
        if np.shape(self.hamiltonian) != (self.dim, self.dim):
            raise DimensionMismatch(f"GKS Hamiltonian must be {self.dim} x {self.dim}")
        if not matcore._is_hermitian(self.c_matrix, 1e-10):
            raise NotHermitian("c matrix must be Hermitian")
        if not matcore._is_hermitian(self.hamiltonian, 1e-10):
            raise NotHermitian("GKS Hamiltonian must be Hermitian")

    @property
    def basis(self) -> np.ndarray:
        return gellmann_basis(self.dim)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "lindkit.gks/1",
                "dim": self.dim,
                "basis": "gellmann:sym-antisym-diag",
                "h_re": self.hamiltonian.real.reshape(-1).tolist(),
                "h_im": self.hamiltonian.imag.reshape(-1).tolist(),
                "c_re": self.c_matrix.real.reshape(-1).tolist(),
                "c_im": self.c_matrix.imag.reshape(-1).tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GKSForm":
        doc = json.loads(text)
        if doc.get("schema") != "lindkit.gks/1":
            raise ValueError(f"unknown GKS schema {doc.get('schema')!r}")
        d = int(doc["dim"])
        n = d * d - 1
        h = (np.asarray(doc["h_re"]) + 1j * np.asarray(doc["h_im"])).reshape(d, d)
        c = (np.asarray(doc["c_re"]) + 1j * np.asarray(doc["c_im"])).reshape(n, n)
        return cls(d, h, c)


@lru_cache(maxsize=None)
def _vec_basis(dim: int) -> np.ndarray:
    """d^2 x d^2 unitary whose columns are vec(I/sqrt(d)) and vec(F_m)
    (read-only, built once per d)."""
    fs = gellmann_basis(dim).reshape(dim * dim - 1, dim * dim)
    v = np.vstack([np.eye(dim).reshape(1, -1) / np.sqrt(dim), fs]).T
    v.flags.writeable = False
    return v


def gks_build(gks: GKSForm) -> np.ndarray:
    """Superoperator of the GKS-form generator

        L(rho) = -i[H, rho] + sum_mn c_mn (F_m rho F_n^dag
                                           - 1/2 {F_n^dag F_m, rho}).

    With M = W c W^dag (W: columns vec(F_m)), sum_mn c_mn F_m (x) conj(F_n) is
    reshuffle(M) and sum_mn c_mn F_n^dag F_m is a partial trace of M.
    """
    d, h = gks.dim, gks.hamiltonian
    eye = np.eye(d)
    w = _vec_basis(d)[:, 1:]
    m = w @ gks.c_matrix @ w.conj().T
    anti = np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2).T
    return (
        reshuffle(m, d)
        - np.kron(1j * h + 0.5 * anti, eye)
        - np.kron(eye, (0.5 * anti - 1j * h).T)
    )


def gks_project(superop: np.ndarray) -> GKSForm:
    """Project a trace- and Hermiticity-preserving generator onto (H, c_mn).

    Expands the superoperator in the orthonormal family
    {G_a (x) conj(G_b)} with G_0 = I/sqrt(d), G_m = F_m; the (m, n >= 1) block
    of the expansion is c, and the m0 column plus the 00 coefficient fits the
    Hamiltonian.  Since reshuffle(A (x) conj(B)) = vec(A) vec(B)^dag, the
    whole expansion is q = V^dag reshuffle(L) V with V the columns vec(G_a).
    gks_build(gks_project(L)) reproduces L exactly for valid generators.
    """
    sop = matcore.as_square_matrix(superop)
    d = int(round(np.sqrt(sop.shape[0])))
    if d * d != sop.shape[0]:
        raise DimensionMismatch("superoperator side must be a perfect square")
    residual = generator_trace_defect(sop, d)
    if residual > TOL_GENERATOR_TRACE:
        raise NotAGenerator(f"trace-preservation residual {residual:.3e}")
    v = _vec_basis(d)
    # q of the exactly scaled copy: entries near 1e308 leave no inf in it
    scaled, unit = matcore._unit_scaled(sop)
    unit = float(unit)
    q = v.conj().T @ reshuffle(scaled, d) @ v
    if not matcore._is_hermitian(q, 1e-8, unit):
        raise NotHermitianKernel(
            "generator is not Hermiticity-preserving "
            f"({matcore._defect_text(q, unit)})"
        )
    q = (0.5 / unit) * (q + q.conj().T)
    c = q[1:, 1:].copy()
    f_op = (v[:, 1:] @ q[1:, 0]).reshape(d, d) / np.sqrt(d)
    f_op = f_op + q[0, 0] / (2 * d) * np.eye(d)
    h = 0.5j * (f_op - f_op.conj().T)
    return GKSForm(d, h, c)


def gks_lindblad_ops(gks: GKSForm, tol: float = 1e-12) -> np.ndarray:
    """Lindblad operators sqrt(eta) sum_m w_m F_m, stacked, for the
    eigenpairs (eta, w) of a PSD c matrix with eta > tol."""
    vals, vecs = np.linalg.eigh(gks.c_matrix)
    if vals.min() < -tol * max(1.0, abs(vals).max()):
        raise NotAGenerator(
            f"c matrix has negative eigenvalue {vals.min():.3e}; not a CP generator"
        )
    keep = vals > tol
    return np.sqrt(vals[keep])[:, None, None] * np.tensordot(vecs[:, keep].T, gks.basis, 1)


def bfr_derivative_check(
    gks: GKSForm, trials: int, seed: int = 0, max_resample: int = 50
) -> float:
    """Minimum of the derivative-positivity quadratic form over random probes.

    For each trial draws coefficients w, forms W = 1/2 sum conj(w_m) F_m,
    finds a similarity U with W^T = U^{-1} W U (via the eigenbasis of W), sets
    Phi = U and Psi^dag = U^{-1} W, and evaluates the derivative expression

        sum_mn c_mn [Tr(Psi Phi^dag F_m) Tr(Phi Psi^dag F_n^dag)
                     + Tr((Phi^dag Psi)^T F_m) Tr((Psi^dag Phi)^T F_n^dag)]

    whose value is half the quadratic form of c at w.  Returns the minimum of
    the (doubled) values, so c = identity yields ||w||^2 per trial.  For a
    PSD c the minimum stays above -1e-10; a negative c direction shows up as
    a negative minimum.  Raises SingularSimilarity if no well-conditioned
    similarity can be found after ``max_resample`` redraws.

    F_m is Hermitian, so Tr(X F_m) = Tr(X F_m^dag) = vec(F_m)^dag vec(X):
    the four trace vectors are one product with the basis columns.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    fs = gks.basis
    n = len(fs)
    cols = _vec_basis(gks.dim)[:, 1:].conj()
    best = np.inf
    for _ in range(trials):
        for attempt in range(max_resample + 1):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            big_w = 0.5 * np.tensordot(w.conj(), fs, 1)
            try:
                _, s_mat = np.linalg.eig(big_w)
            except np.linalg.LinAlgError:
                continue
            u = s_mat @ s_mat.T
            if np.linalg.cond(u) < 1e10 and np.linalg.cond(s_mat) < 1e8:
                break
        else:
            raise SingularSimilarity(
                f"no well-conditioned similarity after {max_resample} redraws"
            )
        phi = u
        psi_dag = np.linalg.solve(u, big_w)
        psi = psi_dag.conj().T
        xs = np.stack([psi @ phi.conj().T, phi @ psi_dag,
                       (phi.conj().T @ psi).T, (psi_dag @ phi).T])
        a_vec, b_vec, e_vec, g_vec = xs.reshape(4, -1) @ cols
        val = a_vec @ gks.c_matrix @ b_vec + e_vec @ gks.c_matrix @ g_vec
        best = min(best, 2.0 * float(val.real))
    return best


# ---------------------------------------------------------------------------
# Generator extraction and kernel construction
# ---------------------------------------------------------------------------

def _samples_by_tau(samples) -> dict[float, Kernel]:
    """{tau: kernel}; a tau repeated with a different kernel is an error."""
    by_tau: dict[float, Kernel] = {}
    for tau, ker in samples:
        tau = float(tau)
        if tau <= 0:
            raise InconsistentSamples("sample times must be positive")
        if tau in by_tau:
            if not np.allclose(by_tau[tau].matrix, ker.matrix, atol=1e-12):
                raise InconsistentSamples(
                    f"tau = {tau} sampled twice with different kernels"
                )
            continue
        by_tau[tau] = ker
    return by_tau


def _sample_near(taus, target: float, h: float, missing: str) -> float:
    """The first of the sorted sample times ``taus`` within 1e-9 h of
    ``target``; InconsistentSamples(``missing``) when there is none."""
    for t in taus:
        if abs(t - target) <= 1e-9 * h:
            return t
    raise InconsistentSamples(missing)


def extract_generator(samples, scheme: str = "central") -> np.ndarray:
    """Finite-difference estimate of the generator dK/dtau at tau = 0.

    ``samples`` is a list of (tau, Kernel) pairs with tau > 0.  The "central"
    scheme (second order) needs the pair (h, 2h) for the smallest h present
    and computes (K(2h) - I) K(h)^{-1} / (2h), i.e. the centered difference
    of K'(h) pulled back to tau = 0; "forward" (first order) uses only the
    smallest sample, (K(h) - I)/h.
    """
    if scheme not in ("central", "forward"):
        raise ValueError(f"unknown differencing scheme {scheme!r}")
    by_tau = _samples_by_tau(samples)
    if len(by_tau) < (2 if scheme == "central" else 1):
        raise InconsistentSamples("not enough distinct sample times")
    taus = sorted(by_tau)
    h = taus[0]
    d2 = by_tau[h].dim ** 2
    if np.linalg.norm(by_tau[h].matrix - np.eye(d2)) > 0.1:
        raise StepTooLarge(
            f"||K(h) - I|| = {np.linalg.norm(by_tau[h].matrix - np.eye(d2)):.3f} "
            "exceeds 0.1; sample closer to tau = 0"
        )
    if scheme == "forward":
        return (by_tau[h].matrix - np.eye(d2)) / h
    t2h = _sample_near(taus, 2 * h, h, f"central differencing needs a sample at 2h = {2*h}")
    k2h = by_tau[t2h].matrix
    return (k2h - np.eye(d2)) @ np.linalg.inv(by_tau[h].matrix) / (2 * h)


def extract_generator_richardson(samples) -> np.ndarray:
    """Richardson extrapolation of the central scheme using steps h and 2h.

    Needs samples at (h, 2h, 4h); combines the central estimates at h and 2h
    as (4 L_h - L_2h)/3, cancelling the leading O(h^2) error term.
    """
    by_tau = _samples_by_tau(samples)
    if not by_tau:
        raise InconsistentSamples("not enough distinct sample times")
    taus = sorted(by_tau)
    h = taus[0]
    sel = [_sample_near(taus, target, h, "Richardson extrapolation needs samples at "
                        f"h, 2h, 4h (missing {target})") for target in (h, 2 * h, 4 * h)]
    l_h = extract_generator([(t, by_tau[t]) for t in sel[:2]], "central")
    l_2h = extract_generator([(t, by_tau[t]) for t in sel[1:]], "central")
    return (4.0 * l_h - l_2h) / 3.0


def kernel_from_unitary_ensemble(unitary_sampler, tau: float, n_samples: int) -> Kernel:
    """Monte-Carlo kernel K = < U (x) conj(U) > over a unitary ensemble.

    ``unitary_sampler(k)`` must return the k-th sample unitary; indexing by k
    keeps the average reproducible regardless of evaluation order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    us = np.array([unitary_sampler(k) for k in range(n_samples)], dtype=complex)
    d = us.shape[1]
    # sum_k U_k (x) conj(U_k): element ((i, j), (i', j')) is U[i, i'] conj(U[j, j'])
    acc = np.einsum("kac,kbd->abcd", us, us.conj(), optimize=True).reshape(d * d, d * d)
    return Kernel(d, tau, acc / n_samples)
