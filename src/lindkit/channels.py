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
the kernel's spectral decomposition, which :func:`choi_cp_test` returns as
one :class:`ChoiSpectrum`: the eigenvalues, and the eigen-matrices as one
(d^2, d, d) stack, decomposed only when read.  The eigen-matrices depend
on this convention; the CP verdict does not.

The fixed traceless operator basis {F_m} is the generalized Gell-Mann set
of :mod:`lindkit.gellmann`: symmetric pairs, antisymmetric pairs, then
diagonal, with Tr(F_m F_n^dag) = delta_mn.  Sums over it and the traces
Tr(X F_m) are that module's gathers, so a two-sided product costs O(d^4).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import gellmann, matcore, records
from .errors import (
    DimensionMismatch,
    InconsistentSamples,
    NotAGenerator,
    NotHermitian,
    NotHermitianKernel,
    NotTracePreserving,
    Overflow,
    SingularSimilarity,
    StepTooLarge,
)

TOL_KERNEL = 1e-10
TOL_GENERATOR_TRACE = 1e-8
TOL_OPERATOR = 1e-12  # Choi eigenvalues at or below it give no Kraus operator
MAX_RESAMPLE = 50
# the constant entries of the kernel JSON: the schema, and the conventions
# above as the document declares them
KERNEL_CONSTANTS = {
    "schema": "lindkit.kernel/1",
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


@dataclass
class Kernel:
    """Markovian propagator over an elapsed time tau, 0 <= tau < inf."""

    dim: int
    tau: float
    matrix: np.ndarray

    def __post_init__(self):
        d = self.dim
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (d * d, d * d):
            raise DimensionMismatch(
                f"kernel matrix must be {d*d} x {d*d}, got {self.matrix.shape}"
            )
        # before the checks below: a NaN defect compares False against any tolerance
        if not np.isfinite(self.matrix).all():
            raise Overflow("kernel matrix entries must be finite")
        # after that test: a diagonal L's kernel at tau = inf is an Overflow
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau!r}")
        c = reshuffle(self.matrix, d)
        if not matcore._is_hermitian(c, TOL_KERNEL):
            raise NotHermitianKernel(
                f"kernel does not preserve Hermiticity ({matcore._defect_text(c)})")
        vec_i = np.eye(d, dtype=complex).reshape(-1)
        defect = float(np.linalg.norm(vec_i @ self.matrix - vec_i))
        if defect > TOL_KERNEL * d:
            raise NotTracePreserving(f"trace defect {defect:.3e}")
        if self.tau == 0.0:
            if np.linalg.norm(self.matrix - np.eye(d * d)) > TOL_KERNEL * d:
                raise NotTracePreserving("K(0) must be the identity")

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "tau": self.tau, **KERNEL_CONSTANTS,
                           **records.complex_parts("re", "im", self.matrix)}, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Kernel":
        """The kernel of a parsed ``lindkit.kernel/1`` document (the form
        :meth:`to_json` writes): a fault raises ConfigParse naming its key,
        and a failed check of this class one naming ``re``."""
        records.check_keys(doc, "kernel", {"dim", "tau", "re", "im"} | KERNEL_CONSTANTS.keys())
        for key, value in KERNEL_CONSTANTS.items():
            records.field(doc, key, records.one_of, (value,))
        d = records.field(doc, "dim", records.integer, 1)
        tau = records.field(doc, "tau", records.real, 0.0)
        matrix = records.complex_matrix(doc, "re", "im", (d * d, d * d))
        with records.within("re"):
            return cls(d, tau, matrix)


def _real_generator(gen: np.ndarray, check: bool = False) -> np.ndarray:
    """R = Re(V^dag L V) of a Hermiticity-preserving L in the basis V =
    [vec(I/sqrt(d)), vec(F_m)], its first row vec(I)^dag L / sqrt(d) kept as
    it is; Overflow when an entry is not finite.  With ``check``, then
    NotHermitianKernel unless 2 ||Im q||_F <= TOL_KERNEL max(1, ||q||_F), q =
    V^dag L V: the Kernel's test of C = reshuffle(L), since X -> X^dag
    conjugates the coordinates, so ||C - C^dag||_F = 2 ||Im q||_F and
    ||C||_F = ||q||_F."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = gellmann.both_axes(gellmann.to_coords, gen)
        r = np.ascontiguousarray(q.real)
    if not np.isfinite(r).all():
        raise Overflow("generator entries in the Hermitian basis overflow double precision")
    if check and not matcore._is_hermitian(q, TOL_KERNEL / 2, anti=np.imag):
        raise NotHermitianKernel("generator does not preserve Hermiticity "
                                 f"({matcore._defect_text(2 * q, anti=np.imag)})")
    return r


def kernel_from_generator(generator: np.ndarray, tau: float) -> Kernel:
    """exp(tau * L) wrapped as a Kernel: :func:`kernels_from_generator` at
    the one time ``tau``."""
    return kernels_from_generator(generator, (tau,))[0]


def kernels_from_generator(generator: np.ndarray, taus) -> list[Kernel]:
    """exp(tau * L) wrapped as a Kernel for each of ``taus``, in order;
    DimensionMismatch when the side of L is not a perfect square.

    A dense L is the real matrix R (:func:`_real_generator`), formed and
    checked once for all the taus, and its kernel I + V (exp(tau R) - I) V^dag,
    with exp(tau R) a real Pade (:func:`matcore.expm`), one per tau.  That
    kernel preserves Hermiticity by construction, so L takes the Kernel's own
    test instead: Overflow when an entry of R is not finite (tested first, so
    that no overflow reads as a defect), NotHermitianKernel when
    reshuffle(L) is not Hermitian within TOL_KERNEL, and Overflow when
    ||tau R||_1 exceeds EXPM_NORM_BOUND.  R keeps its first row, so the
    kernel of an L that does not preserve the trace fails the Kernel's trace
    test.

    An L with no off-diagonal entry, a zero L among them, is exponentiated
    as it stands, ``matcore.expm(L, tau)``, which takes its entrywise branch
    and its norm bound.  Every kernel at tau = 0 is exactly the identity.  A
    negative tau raises the Kernel's ValueError, after the Overflow of the
    bound.  The first error raised is the one that
    :func:`kernel_from_generator` at each tau in turn would raise first, and
    each kernel has that call's bits.
    """
    gen = matcore.as_square_matrix(generator)
    n = gen.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise DimensionMismatch("generator side must be a perfect square")
    if np.count_nonzero(gen) > np.count_nonzero(np.diagonal(gen)):
        r = _real_generator(gen, check=True)
        eye = np.eye(n)
        return [Kernel(d, tau, eye + gellmann.both_axes(gellmann.from_coords,
                                                        matcore.expm(r, tau) - eye))
                for tau in taus]
    return [Kernel(d, tau, matcore.expm(gen, tau)) for tau in taus]


@dataclass
class ChoiSpectrum:
    """The Choi spectrum of a kernel: its eigenvalues lambda_N, descending
    (summing to d for a trace-preserving kernel), and the Choi matrix they
    are the eigenvalues of.

    ``kraus_like`` is the orthonormal Kraus-like eigen-matrices E^N as one
    (d^2, d, d) stack, sum_{ii'} E^N_{ii'} (E^M_{ii'})^* = delta_NM, each
    E^N's phase making its first entry of largest modulus real positive.
    It is decomposed on first read, by one ``eigh`` of the Choi matrix, and
    kept; an ``eigh`` costs about twice the ``eigvalsh`` that gave
    ``lambdas`` (d = 4-10, one BLAS thread), so a caller that reads the
    eigen-matrices pays that ``eigvalsh`` on top.
    ``lambdas[N]`` goes with ``kraus_like[N]``: each decomposition sorts by
    its own eigenvalues, so the two orders can differ only among eigenvalues
    equal to within rounding.
    """

    lambdas: np.ndarray
    choi: np.ndarray

    @functools.cached_property
    def kraus_like(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.choi)
        order = np.argsort(vals)[::-1]
        rows = vecs.T[order]
        # unit rows, so each pivot is nonzero; hypot is the modulus abs() takes
        # of a complex scalar
        piv = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
        rows *= (np.conj(piv) / np.hypot(piv.real, piv.imag))[:, None]
        d = math.isqrt(len(rows))
        return rows.reshape(-1, d, d)


def choi_cp_test(k: Kernel):
    """Complete positivity via the Choi spectrum: (is_cp, ChoiSpectrum).

    The spectrum is one ``eigvalsh`` of reshuffle(K), reversed to descend,
    and ``is_cp`` is min(lambda) >= -TOL_KERNEL * d (the eigensolver noise
    floor of exactly-CP maps); the eigen-matrices wait for a read of
    ``kraus_like``.  At tau = 0 the top eigenvalue is d with eigen-matrix
    I/sqrt(d) and the other d^2 - 1 vanish with traceless eigen-matrices.
    """
    choi = reshuffle(k.matrix, k.dim)
    lambdas = np.linalg.eigvalsh(choi)[::-1]
    return bool(lambdas.min() >= -(TOL_KERNEL * k.dim)), ChoiSpectrum(lambdas, choi)


def kraus_operators(spectrum: ChoiSpectrum) -> np.ndarray:
    """{sqrt(lambda) E}, stacked, for the Choi eigenvalues above TOL_OPERATOR;
    reproduces the channel action when the map is CP.  Reads
    ``spectrum.kraus_like``, so the first call on a spectrum pays its
    ``eigh``."""
    keep = spectrum.lambdas > TOL_OPERATOR
    return np.sqrt(spectrum.lambdas[keep])[:, None, None] * spectrum.kraus_like[keep]


# ---------------------------------------------------------------------------
# Traceless operator basis and the GKS canonical form
# ---------------------------------------------------------------------------

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
        if not matcore._is_hermitian(self.c_matrix, matcore.TOL_HERM):
            raise NotHermitian("c matrix must be Hermitian")
        if not matcore._is_hermitian(self.hamiltonian, matcore.TOL_HERM):
            raise NotHermitian("GKS Hamiltonian must be Hermitian")


def gks_build(gks: GKSForm) -> np.ndarray:
    """Superoperator of the GKS-form generator

        L(rho) = -i[H, rho] + sum_mn c_mn (F_m rho F_n^dag
                                           - 1/2 {F_n^dag F_m, rho}).

    With M = V (0 (+) c) V^dag (:func:`gellmann.both_axes`, O(d^4)),
    sum_mn c_mn F_m (x) conj(F_n) is reshuffle(M) and sum_mn c_mn F_n^dag F_m
    is a partial trace of M, anti.  The rest, K (x) I + I (x) (iH - anti/2)^T
    with K = -iH - anti/2, is added on the delta_jl and delta_ik diagonals of
    entry ((i, j), (k, l)).
    """
    d, h = gks.dim, gks.hamiltonian
    q = np.zeros((d * d, d * d), dtype=complex)
    q[1:, 1:] = gks.c_matrix
    m = gellmann.both_axes(gellmann.from_coords, q)
    anti = np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2).T
    sop = reshuffle(m, d).reshape(d, d, d, d)
    np.einsum("ijkj->ijk", sop)[...] += (-1j * h - 0.5 * anti)[:, None, :]
    np.einsum("ijil->ijl", sop)[...] += (1j * h - 0.5 * anti).T[None]
    return sop.reshape(d * d, d * d)


def gks_project(superop: np.ndarray) -> GKSForm:
    """Project a trace- and Hermiticity-preserving generator onto (H, c_mn).

    Expands the superoperator in the orthonormal family
    {G_a (x) conj(G_b)} with G_0 = I/sqrt(d), G_m = F_m; the (m, n >= 1) block
    of the expansion is c, and its first column fits the Hamiltonian.  Since
    reshuffle(A (x) conj(B)) = vec(A) vec(B)^dag, the whole expansion is
    q = V^dag reshuffle(L) V (:func:`gellmann.both_axes`, O(d^4)).
    gks_build(gks_project(L)) reproduces L exactly for valid generators.
    """
    sop = matcore.as_square_matrix(superop)
    d = int(round(np.sqrt(sop.shape[0])))
    if d * d != sop.shape[0]:
        raise DimensionMismatch("superoperator side must be a perfect square")
    residual = float(np.linalg.norm(np.eye(d).reshape(-1) @ sop))  # of vec(I)^T L = 0
    if residual > TOL_GENERATOR_TRACE:
        raise NotAGenerator(f"trace-preservation residual {residual:.3e}")
    # q of the exactly scaled copy: entries near 1e308 leave no inf in it
    scaled, unit = matcore._unit_scaled(sop)
    unit = float(unit)
    q = gellmann.both_axes(gellmann.to_coords, reshuffle(scaled, d))
    if not matcore._is_hermitian(q, 1e-8, unit):
        raise NotHermitianKernel(
            "generator is not Hermiticity-preserving "
            f"({matcore._defect_text(q, unit)})"
        )
    q = (0.5 / unit) * (q + q.conj().T)
    c = q[1:, 1:].copy()
    # F = sum_a q_a0 G_a / sqrt(d); its identity part is real and cancels in H
    f_op = gellmann.from_coords(q[:, 0]).reshape(d, d) / np.sqrt(d)
    h = 0.5j * (f_op - f_op.conj().T)
    return GKSForm(d, h, c)


def bfr_derivative_check(gks: GKSForm, trials: int, seed: int = 0) -> float:
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
    similarity can be found after MAX_RESAMPLE redraws.

    F_m is Hermitian, so W and the traces Tr(X F_m) = vec(F_m)^dag vec(X) are
    one :mod:`lindkit.gellmann` map each.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    d, n = gks.dim, gks.dim ** 2 - 1
    best = np.inf
    for _ in range(trials):
        for attempt in range(MAX_RESAMPLE + 1):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            big_w = gellmann.from_coords(np.r_[0.0, 0.5 * w.conj()]).reshape(d, d)
            try:
                _, s_mat = np.linalg.eig(big_w)
            except np.linalg.LinAlgError:
                continue
            u = s_mat @ s_mat.T
            if np.linalg.cond(u) < 1e10 and np.linalg.cond(s_mat) < 1e8:
                break
        else:
            raise SingularSimilarity(
                f"no well-conditioned similarity after {MAX_RESAMPLE} redraws"
            )
        phi = u
        psi_dag = np.linalg.solve(u, big_w)
        psi = psi_dag.conj().T
        xs = np.stack([psi @ phi.conj().T, phi @ psi_dag,
                       (phi.conj().T @ psi).T, (psi_dag @ phi).T])
        a_vec, b_vec, e_vec, g_vec = gellmann.to_coords(xs.reshape(4, -1).T)[1:].T
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


# the multiples m of the smallest sample time h that each scheme reads, and
# how many of the first of them are the step of a difference
_SCHEMES = {"forward": ((1,), 1), "central": ((1, 2), 1), "richardson": ((1, 2, 4), 2)}


def extract_generator(samples, scheme: str = "central") -> np.ndarray:
    """Finite-difference estimate of the generator dK/dtau at tau = 0.

    ``samples`` is a list of (tau, Kernel) pairs with tau > 0, h the smallest
    tau.  The "forward" scheme (first order) is (K(h) - I)/h.  The "central"
    scheme (second order) needs a sample at 2h too and computes
    L_h = (K(2h) - I) K(h)^{-1} / (2h), i.e. the centered difference of
    K'(h) pulled back to tau = 0.  The "richardson" scheme needs h, 2h and
    4h and combines L_h with the same estimate L_2h from the samples at 2h
    and 4h as (4 L_h - L_2h)/3, cancelling the leading O(h^2) error term.
    Each step of a difference must be small, ||K(h) - I|| <= 0.1, and for
    Richardson also ||K(2h) - I|| <= 0.1; a larger one raises StepTooLarge
    naming that sample.  A quotient that leaves double precision, as at a
    subnormal h, raises Overflow naming the scheme and h.
    """
    return extract_generators(samples, (scheme,))[0]


def extract_generators(samples, schemes) -> list[np.ndarray]:
    """:func:`extract_generator`'s estimate for each of ``schemes``, in
    order, raising what those calls one scheme at a time would raise first.
    A central difference that two schemes read is taken once, so the
    "central" estimate and Richardson's L_h are the same array."""
    for scheme in schemes:
        if scheme not in _SCHEMES:
            raise ValueError(f"unknown differencing scheme {scheme!r}")
    by_tau = _samples_by_tau(samples)
    if not by_tau:
        raise InconsistentSamples("not enough distinct sample times")
    taus = sorted(by_tau)
    h = taus[0]
    eye = np.eye(len(by_tau[h].matrix))
    central = {}  # (K(2t) - I) K(t)^{-1} / (2t) by t
    estimates = []
    for scheme in schemes:
        multiples, steps = _SCHEMES[scheme]
        ts = [_sample_near(taus, m * h, h,
                           f"{scheme} differencing needs a sample at {m}h = {m * h}")
              for m in multiples]
        ks = [by_tau[t].matrix for t in ts]
        for m, k in zip(multiples[:steps], ks):
            defect = np.linalg.norm(k - eye)
            if defect > 0.1:
                raise StepTooLarge(f"||K({'' if m == 1 else m}h) - I|| = {defect:.3f} "
                                   "exceeds 0.1; sample closer to tau = 0")
        with np.errstate(over="ignore", invalid="ignore"):
            if scheme == "forward":
                est = (ks[0] - eye) / h
            else:
                for t, k1, k2 in zip(ts, ks, ks[1:]):
                    if t not in central:
                        central[t] = (k2 - eye) @ np.linalg.inv(k1) / (2 * t)
                l_h = central[ts[0]]
                est = l_h if scheme == "central" else (4.0 * l_h - central[ts[1]]) / 3.0
        if not np.all(np.isfinite(est)):
            raise Overflow(f"the {scheme} difference quotient at h = {h} "
                           "overflows double precision")
        estimates.append(est)
    return estimates
