"""Lindblad generators: superoperator construction, spectral analysis,
evolution, measurement-form (diagonal) models, decay-rate matrices, and the
Born-rule asymptotics check.

The central objects are LindbladModel (Hamiltonian plus jump operators) and
MeasurementModel, the diagonal family L_a = sum_alpha l_{a,alpha} P_alpha,
H = sum_alpha h_alpha P_alpha over a rank-1 projector basis.  Measurement
models are the only constructor that guarantees the hypotheses of the
Born-rule limit; general models get the asymptotic checks gated by the
balanced predicate ||sum_a (L_a^dag L_a - L_a L_a^dag)|| = 0.

Evolution goes through exp(t L) on the vectorized state rather than the
modal sum, which sidesteps non-diagonalizable generators; the modal sum is
exercised only in tests on diagonalizable fixtures.  A measurement model is
solved exactly instead, at any finite time and without the generator.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import channels, matcore
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotBalanced,
    NotDiagonalFamily,
    NotHermitianH,
    Overflow,
)
from .matcore import ChainSpectrum
from .quantum import DensityMatrix, ProjectorBasis, born_collapse

BALANCE_TOL = 1e-10
STATIONARY_TOL_REL = 1e-9


@dataclass
class LindbladModel:
    """Hamiltonian (angular frequency, hbar = 1) plus Lindblad operators
    (square-root-of-rate units)."""

    dim: int
    hamiltonian: np.ndarray
    lindblads: list[np.ndarray]

    def __post_init__(self):
        h = matcore.as_square_matrix(self.hamiltonian)
        if h.shape[0] != self.dim:
            raise DimensionMismatch("Hamiltonian dimension mismatch")
        if not matcore._is_hermitian(h, 1e-10):
            raise NotHermitianH("model Hamiltonian must be Hermitian")
        self.hamiltonian = h
        ops = []
        for l in self.lindblads:
            lm = matcore.as_square_matrix(l)
            if lm.shape[0] != self.dim:
                raise DimensionMismatch("Lindblad operator dimension mismatch")
            ops.append(lm)
        self.lindblads = ops

    def balance_defect(self) -> float:
        """||sum_a (L_a^dag L_a - L_a L_a^dag)|| (Frobenius)."""
        l = np.reshape(self.lindblads, (-1, self.dim, self.dim))
        l_dag = l.conj().transpose(0, 2, 1)
        return float(np.linalg.norm(np.sum(l_dag @ l - l @ l_dag, axis=0)))

    @property
    def balanced(self) -> bool:
        return self.balance_defect() <= BALANCE_TOL

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "lindkit.model/1",
                "dim": self.dim,
                "h_re": self.hamiltonian.real.reshape(-1).tolist(),
                "h_im": self.hamiltonian.imag.reshape(-1).tolist(),
                "lindblads": [
                    {
                        "re": l.real.reshape(-1).tolist(),
                        "im": l.imag.reshape(-1).tolist(),
                    }
                    for l in self.lindblads
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LindbladModel":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "LindbladModel":
        """The model of a parsed ``lindkit.model/1`` document (the form
        :meth:`to_json` writes)."""
        if doc.get("schema") != "lindkit.model/1":
            raise ValueError(f"unknown model schema {doc.get('schema')!r}")
        d = int(doc["dim"])
        h = (np.asarray(doc["h_re"]) + 1j * np.asarray(doc["h_im"])).reshape(d, d)
        ls = [
            (np.asarray(entry["re"]) + 1j * np.asarray(entry["im"])).reshape(d, d)
            for entry in doc["lindblads"]
        ]
        return cls(d, h, ls)


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """d^2 x d^2 matrix of L(rho) = -i[H, rho] + sum_a (L rho L^dag
    - 1/2 {L^dag L, rho}) in the row-major vec ordering.

    Raises Overflow when an entry, or the sum of the entries, is not
    finite, which finite but huge model entries (|x| ~ 1e300) produce
    through the products L^dag L.
    """
    d = model.dim
    eye = np.eye(d)
    h = model.hamiltonian
    with np.errstate(over="ignore", invalid="ignore"):
        sop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for l in model.lindblads:
            ll = l.conj().T @ l
            sop += np.kron(l, l.conj()) - 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
        total = sop.sum()  # inf or NaN when an entry is, or when the entries' sum overflows
    if not np.isfinite(total):
        raise Overflow("generator entries overflow double precision")
    return sop


@dataclass
class SuperopSpectrum:
    """Spectral data of the generator, stored with the decay-rate sign
    convention L rho_n = -mu_n rho_n: decaying modes have Re mu > 0."""

    mus: np.ndarray                 # one entry per chain (per mode)
    modes: list[np.ndarray]         # reshaped eigenvectors (chain heads)
    classifications: list[str]      # decaying | stationary | forbidden
    chains: ChainSpectrum
    tol: float

    def stationary_modes(self) -> list[np.ndarray]:
        return [
            m
            for m, c in zip(self.modes, self.classifications)
            if c == "stationary"
        ]


def spectrum(model: LindbladModel, tol: float | None = None) -> SuperopSpectrum:
    """Eigenvalues and modes of the generator.

    Classification: Re mu > tol decaying, |Re mu| <= tol stationary (this
    bucket includes purely oscillatory coherences), Re mu < -tol forbidden.
    A balanced model must produce no forbidden modes, and every generator has
    at least one mu = 0 mode.

    L preserves Hermiticity, so in the orthonormal Hermitian basis
    V = [vec(I/sqrt(d)), vec(F_m)] it is the real matrix R = V^dag L V:
    R is decomposed in real arithmetic (its complex eigenvalues come in exact
    conjugate pairs) and its chains are mapped back by V, so ``chains`` and
    ``modes`` are in L's own vec coordinates.  R's first row,
    vec(I)^dag L / sqrt(d), vanishes for a trace-preserving L and is set to
    exactly 0: LAPACK's balancing would scale its rounding noise up to a
    stationary-mode residual of about 1e-7 ||L||_F.  Raises Overflow when an
    entry of R or ||L||_2 leaves double precision.
    """
    sop = build_superoperator(model)
    v = channels._vec_basis(model.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        r = (v.conj().T @ sop @ v).real.copy()
    if not np.isfinite(r).all():
        raise Overflow("generator entries in the Hermitian basis overflow double precision")
    r[0] = 0.0
    try:
        scale = max(1.0, float(np.linalg.norm(r, 2)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"2-norm of the generator: {exc}") from exc
    if scale == np.inf:  # every tolerance below would be infinite
        raise Overflow("||L||_2 overflows double precision")
    if tol is None:
        tol = STATIONARY_TOL_REL * scale
    in_r = matcore.general_eig(r, tol_cluster=matcore.TOL_CLUSTER_REL * scale)
    rows = iter(in_r.all_vectors().T @ v.T)  # each vector in L's vec coordinates
    chains = ChainSpectrum(
        in_r.eigenvalues, in_r.multiplicities,
        [[[next(rows) for _ in chain] for chain in per_eig] for per_eig in in_r.chains],
        in_r.rank_flags,
    )
    mus = -np.repeat(chains.eigenvalues, [len(per_eig) for per_eig in chains.chains])
    modes = [matcore.unvec(chain[0], model.dim)
             for per_eig in chains.chains for chain in per_eig]
    classes = np.select([mus.real > tol, mus.real >= -tol], ["decaying", "stationary"],
                        "forbidden")
    return SuperopSpectrum(mus, modes, classes.tolist(), chains, tol)


def evolve(model: LindbladModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """rho(t) for a single time; see :func:`evolve_many`."""
    return evolve_many(model, rho0, [t])[0]


def evolve_many(model: LindbladModel, rho0: DensityMatrix, times) -> list[DensityMatrix]:
    """rho(t) = unvec(exp(t L) vec(rho0)) for every t in ``times``, in input
    order, with the clip-and-renormalize repair policy of DensityMatrix
    applied to each returned state.

    L and ||L||_1 are computed once.  The times are visited in sorted order
    and each state comes from the previous raw (unrepaired) vector by one
    step exp(dt L) v.  The grid's distinct steps are planned once, by
    :func:`matcore._step_actions`: dt joins the family of the smallest step
    h below it when (dt - h) ||L||_1 <= theta_2, and a family whose steps
    would save more matrix-vector products than one dense P_h = exp(h L)
    costs takes each step as exp((dt - h) L) P_h v, the correction a Taylor
    polynomial of degree at most 2.  Every other step is taken as
    :func:`matcore.expm_action` takes it, and the cost model is its
    Taylor-or-dense rule.  So a uniform grid costs about one matrix-vector
    product per point, and a single time is expm_action's result, with its
    Overflow bound.  The returned states are repaired as one stack
    (:meth:`DensityMatrix.from_matrices`); the first invalid one in
    sorted-time order raises.  t = 0 returns a copy of rho0 with its
    ``repaired`` flag.
    """
    times = [float(t) for t in times]
    if not all(t >= 0 for t in times):
        raise ValueError("evolution time must be nonnegative")
    sop = build_superoperator(model)
    norm1 = float(np.linalg.norm(sop, 1))
    order = sorted((k for k, t in enumerate(times) if t > 0.0), key=times.__getitem__)
    steps = np.diff([0.0, *sorted({times[k] for k in order})])
    actions = matcore._step_actions(sop, steps, norm1)
    v = matcore.vec(rho0.matrix)
    now = 0.0
    raw = np.empty((len(order), v.size), dtype=complex)  # one row per positive time
    for row, k in enumerate(order):
        if times[k] > now:
            dt, now = times[k] - now, times[k]
            v = actions[dt](v)
        raw[row] = v
    out = [DensityMatrix(rho0.matrix.copy(), rho0.repaired) if t == 0.0 else None
           for t in times]
    states = DensityMatrix.from_matrices(raw.reshape(-1, *rho0.matrix.shape))
    for k, rho in zip(order, states):
        out[k] = rho
    return out


@dataclass
class MeasurementModel(LindbladModel):
    """Diagonal family over a projector basis; the constructor that makes the
    Born-rule hypotheses hold automatically."""

    basis: ProjectorBasis = None
    l_coeffs: np.ndarray = None     # (n_ops, d) complex
    h_coeffs: np.ndarray = None     # (d,) real


def measurement_model(basis: ProjectorBasis, l_coeffs, h_coeffs) -> MeasurementModel:
    """L_a = sum_alpha l[a, alpha] P_alpha and H = sum_alpha h_alpha P_alpha.

    Diagonal operators commute, so the result is balanced by construction and
    [L_a, P_beta] = 0 for every a, beta.
    """
    l = np.atleast_2d(np.asarray(l_coeffs, dtype=complex))
    h = np.asarray(h_coeffs, dtype=float)
    d = basis.dim
    if l.shape[1] != d or h.shape != (d,):
        raise DimensionMismatch(
            "need one l coefficient per operator per projector and one real h "
            "per projector"
        )
    ham, *ops = basis._diagonal(np.concatenate([h[None], l]))
    return MeasurementModel(d, ham, ops, basis=basis, l_coeffs=l, h_coeffs=h)


@dataclass
class DecayMatrix:
    """Pairwise decay rates lambda_{alpha beta} of a diagonal model, and the
    energy-phase-free variant lambda-tilde used by the Ramsey analysis."""

    basis: ProjectorBasis
    l_coeffs: np.ndarray
    h_coeffs: np.ndarray
    lambdas: np.ndarray        # lambda_{alpha beta}, zero on the diagonal
    lambdas_tilde: np.ndarray  # same with the h (energy) phases removed

    def _labels(self, tol: float) -> np.ndarray:
        """Label of outcome alpha: the first beta with |lambda_{beta alpha}| <= tol."""
        return np.argmax(np.abs(self.lambdas) <= tol, axis=0)

    def classes(self, tol: float = 1e-10) -> list[list[int]]:
        """Partition of outcomes into groups with identical coefficients
        (|lambda_{alpha beta}| <= tol), i.e. coherence-preserving classes."""
        label = self._labels(tol)
        return [np.flatnonzero(label == k).tolist() for k in np.unique(label).tolist()]

    def gamma_min(self, tol: float = 1e-10) -> float:
        """Smallest nonzero decay rate Re lambda across distinct classes."""
        label = self._labels(tol)
        rates = self.lambdas.real[label[:, None] != label[None, :]]
        return float(rates.min()) if rates.size else 0.0


def decay_matrix(model: MeasurementModel) -> DecayMatrix:
    """lambda_{alpha beta} = 1/2 sum_a |l_{a alpha} - l_{a beta}|^2
    - i Im sum_a l_{a alpha} l*_{a beta} + i (h_alpha - h_beta); raises
    Overflow when a rate leaves double precision."""
    if not isinstance(model, MeasurementModel) or model.l_coeffs is None:
        raise NotDiagonalFamily(
            "decay_matrix needs a model built by measurement_model"
        )
    l = model.l_coeffs.T  # (outcome, operator): the sums run over the last axis
    h = model.h_coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        diff = 0.5 * np.sum(np.abs(l[:, None] - l[None, :]) ** 2, axis=-1)
        # from real products: exactly antisymmetric, and exactly 0 between equal
        # columns (a fused complex multiply-add leaves ~1e-17 there)
        cross_im = np.sum(l.imag[:, None] * l.real[None, :]
                          - l.real[:, None] * l.imag[None, :], axis=-1)
        lam_t = diff - 1j * cross_im
        lam = lam_t + 1j * (h[:, None] - h[None, :])
    np.fill_diagonal(lam_t, 0.0)
    np.fill_diagonal(lam, 0.0)
    if not np.isfinite(lam).all():
        raise Overflow("decay rates overflow double precision")
    return DecayMatrix(model.basis, model.l_coeffs, h, lam, lam_t)


def diagonal_solution(dm: DecayMatrix, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Closed form rho(t) = sum_{alpha beta} P_alpha rho0 P_beta
    e^{-lambda_{alpha beta} t} for diagonal models.  Re lambda >= 0, so no
    finite t >= 0 overflows the modulus, and a coherence that has decayed to
    0 stays 0 whatever its phase.  Raises Overflow for an infinite t and for
    a phase Im(lambda) t beyond double precision on an undecayed coherence.
    """
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.exp(-dm.lambdas.real * t)
        phase = np.exp(-1j * (dm.lambdas.imag * t))
        factor = np.where(modulus == 0.0, 0.0, modulus * phase)
    if not np.isfinite(factor).all():
        raise Overflow(f"e^(-lambda t) at t = {t!r}: the time or a phase "
                       "Im(lambda) t leaves double precision")
    return dm.basis._weighted(rho0, factor)


def born_limit_check(
    model: LindbladModel,
    rho0: DensityMatrix,
    horizon: float,
    tol: float,
    class_tol: float = 1e-10,
):
    """Has a measurement model's state reached the Born-rule fixed point by
    ``horizon``?

    The state is :func:`diagonal_solution`, exact at any finite horizon.
    Returns (converged, residual) with residual the Frobenius distance from
    the collapsed state (class projection when the coefficient pattern makes
    outcomes indistinguishable).  The theory bounds the residual by
    ||rho0|| e^{-gamma_min * horizon}.  Raises NotBalanced when the model
    fails the balanced condition the theorem needs, NotDiagonalFamily when it
    is balanced but not of measurement form, and Overflow when L_a^dag L_a
    or a decay rate leaves double precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = model.balance_defect()
    if not np.isfinite(defect):  # before the comparison: NaN > tol is false
        raise Overflow("L_a^dag L_a overflows double precision")
    if defect > BALANCE_TOL:
        raise NotBalanced(f"balance defect {defect:.3e} exceeds {BALANCE_TOL}")
    dm = decay_matrix(model)
    reached = diagonal_solution(dm, rho0, horizon)
    target = born_collapse(rho0, ProjectorBasis(model.basis.projectors,
                                                dm.classes(class_tol)))
    residual = float(np.linalg.norm(reached.matrix - target.matrix))
    return residual <= tol, residual
