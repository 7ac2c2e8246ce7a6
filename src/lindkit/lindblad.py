"""Lindblad generators: superoperator construction, spectral analysis,
evolution, measurement-form (diagonal) models, decay-rate matrices, and the
Born-rule asymptotics check.

The central objects are LindbladModel (Hamiltonian plus jump operators) and
MeasurementModel, the diagonal family L_a = sum_alpha l_{a,alpha} P_alpha,
H = sum_alpha h_alpha P_alpha over an orthonormal basis.  Measurement
models are the only constructor that guarantees the hypotheses of the
Born-rule limit; general models get the asymptotic checks gated by the
balanced predicate ||sum_a (L_a^dag L_a - L_a L_a^dag)|| = 0.

Evolution applies exp(t R) to the state's real coordinates x = V^dag
vec(rho) in the Gell-Mann basis of :mod:`lindkit.gellmann`, R = V^dag L V,
rather than the modal sum, which sidesteps non-diagonalizable generators.
A measurement model is solved exactly instead, at any finite time and
without the generator, and so is its spectrum: its modes |u_alpha><u_beta|
have mu = lambda_{alpha beta} of its decay matrix, ||L||_2 = max |lambda|
(L is normal there), and every other model takes one real eig of R.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import channels, gellmann, matcore, records
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotBalanced,
    NotDiagonalFamily,
    NotHermitianH,
    Overflow,
)
from .matcore import ChainSpectrum
from .quantum import DensityMatrix, ProjectorBasis, States

MODEL_SCHEMA = "lindkit.model/1"
BALANCE_TOL = 1e-10
STATIONARY_TOL_REL = 1e-9
CLASS_TOL = 1e-10
# a mode's class, indexed by (Re mu >= -tol) + (Re mu > tol)
_CLASSES = ("forbidden", "stationary", "decaying")


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
        if not matcore._is_hermitian(h, matcore.TOL_HERM):
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
        ops = [records.complex_parts("re", "im", l) for l in self.lindblads]
        return json.dumps({"schema": MODEL_SCHEMA, "dim": self.dim, "lindblads": ops,
                           **records.complex_parts("h_re", "h_im", self.hamiltonian)},
                          sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "LindbladModel":
        """The model of a parsed ``lindkit.model/1`` document (the form
        :meth:`to_json` writes): a missing or unknown key raises ConfigParse
        naming it, any other fault one naming ``model``."""
        records.check_keys(doc, "model", {"schema", "dim", "h_re", "h_im", "lindblads"})
        with records.within("model"):
            records.field(doc, "schema", records.one_of, (MODEL_SCHEMA,))
            d = records.field(doc, "dim", records.integer, 1)
            h = records.complex_matrix(doc, "h_re", "h_im", (d, d))
            if not isinstance(doc["lindblads"], list):
                raise ValueError("lindblads: expected a list")
            ops = [records.complex_matrix(records.check_keys(op, "lindblads", {"re", "im"}),
                                          "re", "im", (d, d)) for op in doc["lindblads"]]
            return cls(d, h, ops)


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """d^2 x d^2 matrix of L(rho) = -i[H, rho] + sum_a (L rho L^dag
    - 1/2 {L^dag L, rho}) in the row-major vec ordering.

    Entry ((i, j), (k, l)) is -i (H_ik delta_jl - delta_ik H_lj) plus, per
    operator a, (L_a)_ik conj(L_a)_jl - 1/2 (G_ik delta_jl + delta_ik G_lj)
    with G = L_a^dag L_a.  The operators' products are one broadcast over
    their stack; the identity-factor terms are added on the delta_jl and
    delta_ik diagonals only, with the operations of
    kron(G, I) + kron(I, G^T) in the same order, and the operators' terms
    are summed in order, the Hamiltonian's first.  So every nonzero entry
    has the bits of the Kronecker-product form; an entry that is zero may
    differ from it in the sign of the zero.

    Raises Overflow when an entry, or the sum of the entries, is not
    finite, which finite but huge model entries (|x| ~ 1e300) produce
    through the products L^dag L.
    """
    d, h = model.dim, model.hamiltonian
    # without operators, one zero operator carries the Hamiltonian's term
    ops = (np.reshape(model.lindblads, (-1, d, d)) if model.lindblads
           else np.zeros((1, d, d), complex))
    with np.errstate(over="ignore", invalid="ignore"):
        g = ops.conj().transpose(0, 2, 1) @ ops
        terms = ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]  # (a, i, j, k, l)
        # at j == l: G_ik, plus G_jj where also i == k
        g_jl = np.repeat(g[:, :, None, :], d, axis=2)
        np.einsum("aiji->aij", g_jl)[...] += np.einsum("ajj->aj", g)[:, None, :]
        np.einsum("aijkj->aijk", terms)[...] -= 0.5 * g_jl
        # at i == k, j != l: G_lj (the j == l entries took it above)
        g_ik = g.transpose(0, 2, 1).copy()
        np.einsum("ajj->aj", g_ik)[...] = 0.0
        np.einsum("aijil->aijl", terms)[...] -= 0.5 * g_ik[:, None]
        # -i (H_ik - H_jj delta_ik) at j == l, and -i (-H_lj) at i == k, j != l
        h_jl = np.repeat(h[:, None, :], d, axis=1)
        np.einsum("iji->ij", h_jl)[...] -= np.diagonal(h)[None, :]
        np.einsum("ijkj->ijk", terms[0])[...] += -1j * h_jl
        h_ik = -h.T
        np.fill_diagonal(h_ik, 0.0)
        np.einsum("ijil->ijl", terms[0])[...] += -1j * h_ik[None]
        sop = (terms.sum(axis=0) if len(terms) > 1 else terms[0]).reshape(d * d, d * d)
        total = sop.sum()  # inf or NaN when an entry is, or when the entries' sum overflows
    if not np.isfinite(total):
        raise Overflow("generator entries overflow double precision")
    return sop


@dataclass
class SuperopSpectrum:
    """Spectral data of the generator, stored with the decay-rate sign
    convention L rho_n = -mu_n rho_n: decaying modes have Re mu > 0."""

    mus: np.ndarray                 # one entry per chain (per mode)
    modes: np.ndarray               # (chains, d, d): the chain heads as matrices
    classifications: list[str]      # decaying | stationary | forbidden
    chains: ChainSpectrum
    tol: float

    def stationary_modes(self) -> list[np.ndarray]:
        return [
            m
            for m, c in zip(self.modes, self.classifications)
            if c == "stationary"
        ]


def spectrum(model: LindbladModel) -> SuperopSpectrum:
    """Eigenvalues and modes of the generator.

    Classification, with tol = STATIONARY_TOL_REL * max(1, ||L||_2): Re mu >
    tol decaying, |Re mu| <= tol stationary (this bucket includes purely
    oscillatory coherences), Re mu < -tol forbidden.
    A balanced model must produce no forbidden modes, and every generator has
    at least one mu = 0 mode.  Eigenvalues within TOL_CLUSTER_REL
    max(1, ||L||_2) of each other are one cluster, ordered by the real, then
    the imaginary part of the cluster's centre (:func:`matcore.general_eig`).

    A MeasurementModel (:func:`measurement_model`), whose coefficients
    :func:`decay_matrix` reads, is solved exactly:
    L |u_alpha><u_beta| = -lambda_{alpha beta} |u_alpha><u_beta| in the
    model's basis, so its mus are the decay rates, every chain has length 1,
    and no generator is built (:func:`_decay_modes`).  L is normal there, so
    ||L||_2 = max |lambda_{alpha beta}|.  As on the eig path, a cluster with a
    real centre has Hermitian modes: each pair (alpha, beta), (beta, alpha)
    in it is written as (|alpha><beta| + |beta><alpha|) / sqrt(2) and
    i (|alpha><beta| - |beta><alpha|) / sqrt(2).

    Any other model takes one ``eig`` (:func:`_eig_modes`) of the real
    generator R = V^dag L V (:func:`_hermitian_generator`), whose complex
    eigenvalues come in exact conjugate pairs, and its chains are mapped back
    by V.  R's exactly zero first row matters here: LAPACK's balancing would
    scale its rounding noise up to a stationary-mode residual of about 1e-7
    ||L||_F.

    Either way ``chains`` and ``modes`` are in L's own vec coordinates, with
    unit vectors.  Raises Overflow when a decay rate, an entry of R or
    ||L||_2 leaves double precision.
    """
    if isinstance(model, MeasurementModel):
        eigenvalues, lengths, rows, tol = _decay_modes(model)
    else:
        eigenvalues, lengths, rows, tol = _eig_modes(model)
    chains = ChainSpectrum(eigenvalues, lengths, rows.T)
    per_chain = [p for per_eig in lengths for p in per_eig]
    mus = -np.repeat(chains.eigenvalues, [len(per_eig) for per_eig in lengths])
    heads = rows if len(per_chain) == len(rows) else rows[np.cumsum([0, *per_chain[:-1]])]
    classes = map(_CLASSES.__getitem__,
                  np.add(mus.real >= -tol, mus.real > tol, dtype=int).tolist())
    return SuperopSpectrum(mus, heads.reshape(-1, model.dim, model.dim), list(classes),
                           chains, tol)


def _eig_modes(model: LindbladModel):
    """(eigenvalues, lengths, rows, tol) of :func:`spectrum` by one real
    ``eig`` of R: the clusters' eigenvalues and chain lengths, the chains'
    vectors as rows in L's vec coordinates, and the stationary tolerance."""
    r = _hermitian_generator(model)
    try:
        scale = max(1.0, float(np.linalg.norm(r, 2)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"2-norm of the generator: {exc}") from exc
    if scale == np.inf:  # every tolerance below would be infinite
        raise Overflow("||L||_2 overflows double precision")
    in_r = matcore.general_eig(r, tol_cluster=matcore.TOL_CLUSTER_REL * scale)
    rows = gellmann.from_coords(in_r.vectors).T  # row k: vector k in L's vec coordinates
    return in_r.eigenvalues, in_r.lengths, rows, STATIONARY_TOL_REL * scale


def _decay_modes(model: MeasurementModel):
    """:func:`_eig_modes`' tuple of a measurement model, from its decay
    matrix: L's eigenvalue -lambda_{alpha beta} at slot alpha d + beta, with
    the mode vec(u_alpha u_beta^dag), clustered and ordered by
    :func:`matcore._ordered_clusters` (the rates are closed under exact
    conjugation, lambda_{beta alpha} = conj(lambda_{alpha beta})), and each
    pair of transposed modes in a cluster with a real centre rotated into
    its two Hermitian combinations."""
    d = model.dim
    lam = decay_matrix(model).lambdas
    scale = max(1.0, float(np.abs(lam).max()))
    first, sizes, centres, members = matcore._ordered_clusters(
        -lam.reshape(-1), matcore.TOL_CLUSTER_REL * scale, True)
    # slot of each mode in order, and each slot's position
    slot = np.repeat(first, sizes)
    start = np.cumsum(sizes) - sizes
    for j, idx in members.items():
        slot[start[j]:start[j] + sizes[j]] = idx
    position = np.empty_like(slot)
    position[slot] = np.arange(d * d)
    u = model.basis.u.T  # row alpha: u_alpha
    rows = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)[slot]
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    alpha, beta = np.divmod(slot, d)
    partner = position[beta * d + alpha]
    pair = (alpha < beta) & (centres.imag == 0.0)[cluster] & (cluster[partner] == cluster)
    s, t = pair.nonzero()[0], partner[pair]
    x, y = rows[s], rows[t]
    c = 1 / np.sqrt(2)
    rows[s], rows[t] = (x + y) * c, (x - y) * (1j * c)
    return centres.tolist(), [[1] * n for n in sizes.tolist()], rows, STATIONARY_TOL_REL * scale


def _hermitian_generator(model: LindbladModel) -> np.ndarray:
    """The generator as the real matrix R of :func:`channels._real_generator`,
    its first row, which vanishes for a trace-preserving L, set to exactly 0:
    a state's first coordinate Tr(rho) / sqrt(d) never moves under R."""
    r = channels._real_generator(build_superoperator(model))
    r[0] = 0.0
    return r


def evolve(model: LindbladModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """rho(t) for a single time; see :func:`evolve_many`."""
    return evolve_many(model, rho0, [t])[0]


def evolve_many(model: LindbladModel, rho0: DensityMatrix, times) -> States:
    """rho(t) = unvec(exp(t L) vec(rho0)) for every t in ``times``, as one
    :class:`~lindkit.quantum.States` in input order, checked and repaired by
    :meth:`DensityMatrix.from_matrices`; the first invalid state in
    sorted-time order raises.  A time t = 0 holds rho0's matrix and
    ``repaired`` flag, unchecked.

    The state evolves as its real coherence vector, x(t) = exp(t R) x(0)
    with x(0) = V^dag vec(rho0) and R, ||R||_1 built once
    (:func:`_hermitian_generator`).  The times are visited in sorted order
    and each x comes from the previous one by one step exp(dt R) x, the
    grid's distinct steps planned once by :func:`matcore._step_actions`:
    nearby steps share one dense exp(h R) (:func:`matcore._step_families`),
    so a uniform grid costs about one real matrix-vector product per point,
    and a long single step is one dense exponential, with its Overflow
    bound.  R keeps the trace fixed, and each x maps back to an exactly
    Hermitian state.  :func:`evolve_stencil` adds states a short step either
    side of each time to the same chain.
    """
    times, order, x, _ = _coherence_chain(model, rho0, times)
    return _place(rho0, times, [order], [x[order]])[0]


def evolve_stencil(model: LindbladModel, rho0: DensityMatrix, times, eps: float):
    """(rho(t), rho(t + eps), rho(max(t - eps, 0))), three
    :class:`~lindkit.quantum.States` in the input order of ``times``, for a
    step eps > 0 (else ValueError) with eps ||R||_1 within
    :data:`matcore.EXPM_NORM_BOUND` (else Overflow, before any step).

    The states at t are :func:`evolve_many`'s, with the same bits, from the
    same chain.  The states at t +- eps are exp(+-eps R) x(t): one block of
    coherence vectors per sign, stepped by the plan of eps from the chain's
    one planning call (:func:`matcore._step_actions`), and an empty block
    not at all.  For t >= eps the earlier state is the trajectory's own,
    exp(-eps R) x(t), whose rounding grows by at most e^{eps ||R||_1}, and
    Overflow is raised when it leaves double precision; for t < eps it is
    rho0's row.  All the evolved states are checked and repaired as one
    stack, the states at t first.
    """
    if not eps > 0:
        raise ValueError("the stencil step must be positive")
    times, order, x, (forward, backward) = _coherence_chain(model, rho0, times, eps)
    back = [k for k, t in enumerate(times) if t >= eps]
    plus = forward(x.T).T if len(x) else x
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            minus = backward(x[back].T).T if back else x[back]
    except Overflow:  # a dense exp(-eps R) that leaves double precision itself
        minus = None
    if minus is None or not np.isfinite(minus).all():
        raise Overflow(f"the backward stencil step exp(-eps R) x(t) at eps = {eps!r} "
                       "leaves double precision")
    return _place(rho0, times, [order, range(len(times)), back], [x[order], plus, minus])


def _coherence_chain(model: LindbladModel, rho0: DensityMatrix, times, probe: float = 0.0):
    """(times as floats, the indices of the positive times in sorted order,
    x(t) for every time as the rows of an array, probe actions): the chain of
    :func:`evolve_many`, and the actions exp(+-probe R) of
    :func:`matcore._step_actions`.  Raises ValueError for a negative time."""
    times = [float(t) for t in times]
    if not all(t >= 0 for t in times):
        raise ValueError("evolution time must be nonnegative")
    r = _hermitian_generator(model)
    norm1 = float(np.linalg.norm(r, 1))
    order = sorted((k for k, t in enumerate(times) if t > 0.0), key=times.__getitem__)
    steps = np.diff([0.0, *sorted({times[k] for k in order})])
    actions, probes = matcore._step_actions(r, steps, norm1, probe)
    x = gellmann.to_coords(rho0.matrix.reshape(-1)).real
    now = 0.0
    out = np.repeat(x[None], len(times), axis=0)  # x(0) at t = 0
    for k in order:
        if times[k] > now:
            dt, now = times[k] - now, times[k]
            x = actions[dt](x)
        out[k] = x
    return times, order, out, probes


def _place(rho0: DensityMatrix, times, indices, rows) -> list[States]:
    """One stack per pair of ``indices`` and ``rows``: the state of coherence
    vector rows[i][j] at position indices[i][j] of ``times``, and rho0,
    unchecked, at every other.  The states are checked as one stack, but each
    block is mapped back on its own: a product's bits may depend on its rows."""
    d = rho0.matrix.shape[0]
    stack = np.concatenate([gellmann.from_coords(x.T).T.reshape(-1, d, d) for x in rows])
    states = DensityMatrix.from_matrices(stack)
    # the row of each position in the checked stack, rho0's one past its end
    at = np.full((len(indices), len(times)), len(stack))
    block = np.repeat(np.arange(len(indices)), [len(index) for index in indices])
    at[block, [k for index in indices for k in index]] = np.arange(len(stack))
    if (at == len(stack)).any():
        states = States(np.concatenate([states.matrices, [rho0.matrix]]),
                        np.append(states.repaired, rho0.repaired),
                        np.concatenate([states.eigenvalues, np.linalg.eigvalsh([rho0.matrix])]))
    return [states[row] for row in at]


@dataclass
class MeasurementModel(LindbladModel):
    """Diagonal family over a projector basis; the constructor that makes the
    Born-rule hypotheses hold automatically."""

    basis: ProjectorBasis
    l_coeffs: np.ndarray     # (n_ops, d) complex
    h_coeffs: np.ndarray     # (d,) real


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
    coeffs = np.concatenate([h[None], l])
    if not np.isfinite(coeffs).all():
        raise ValueError("matrix entries must be finite")
    ham, *ops = basis._diagonal(coeffs)
    return MeasurementModel(d, ham, ops, basis=basis, l_coeffs=l, h_coeffs=h)


@dataclass
class DecayMatrix:
    """Pairwise decay rates lambda_{alpha beta} of a diagonal model, and the
    energy-phase-free variant lambda-tilde, whose (e, g) entry for a two-level
    model is the ``lambda_tilde_eg`` a ``RamseyConfig`` takes (tied to the
    free flight by tests/test_ramsey.py::TestCorrectionConsistency)."""

    basis: ProjectorBasis
    lambdas: np.ndarray        # lambda_{alpha beta}, zero on the diagonal
    lambdas_tilde: np.ndarray  # same with the h (energy) phases removed

    def _labels(self) -> np.ndarray:
        """Label of outcome alpha: the first beta with |lambda_{beta alpha}| <= CLASS_TOL."""
        return np.argmax(np.abs(self.lambdas) <= CLASS_TOL, axis=0)

    def classes(self) -> list[list[int]]:
        """Partition of outcomes into groups with identical coefficients
        (|lambda_{alpha beta}| <= CLASS_TOL), i.e. coherence-preserving classes."""
        label = self._labels()
        return [np.flatnonzero(label == k).tolist() for k in sorted(set(label.tolist()))]

    def gamma_min(self) -> float:
        """Smallest nonzero decay rate Re lambda across distinct classes."""
        label = self._labels()
        rates = self.lambdas.real[label[:, None] != label[None, :]]
        return float(rates.min()) if rates.size else 0.0


def decay_matrix(model: MeasurementModel) -> DecayMatrix:
    """lambda_{alpha beta} = 1/2 sum_a |l_{a alpha} - l_{a beta}|^2
    - i Im sum_a l_{a alpha} l*_{a beta} + i (h_alpha - h_beta); raises
    Overflow when a rate leaves double precision."""
    if not isinstance(model, MeasurementModel):
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
    return DecayMatrix(model.basis, lam, lam_t)


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


def born_limit_check(model: LindbladModel, rho0: DensityMatrix, horizon: float, tol: float,
                     dm: DecayMatrix | None = None):
    """Has a measurement model's state reached the Born-rule fixed point by
    ``horizon``?

    The state is :func:`diagonal_solution`, exact at any finite horizon.
    Returns (converged, residual) with residual the Frobenius distance from
    the collapsed state (class projection when the coefficient pattern makes
    outcomes indistinguishable).  The theory bounds the residual by
    ||rho0|| e^{-gamma_min * horizon}.  Raises NotBalanced when the model
    fails the balanced condition the theorem needs, NotDiagonalFamily when it
    is balanced but not of measurement form, and Overflow when L_a^dag L_a
    or a decay rate leaves double precision.  ``dm`` is the model's
    :func:`decay_matrix` when the caller holds it already, as the CLI does
    for gamma_min; it is taken from the model otherwise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = model.balance_defect()
    if not np.isfinite(defect):  # before the comparison: NaN > tol is false
        raise Overflow("L_a^dag L_a overflows double precision")
    if defect > BALANCE_TOL:
        raise NotBalanced(f"balance defect {defect:.3e} exceeds {BALANCE_TOL}")
    if dm is None:
        dm = decay_matrix(model)
    reached = diagonal_solution(dm, rho0, horizon)
    label = dm._labels()
    target = model.basis._weighted(rho0, label[:, None] == label[None, :])
    residual = float(np.linalg.norm(reached.matrix - target.matrix))
    return residual <= tol, residual
