"""Dense complex linear algebra: eigendecompositions (Hermitian and general,
including generalized-eigenvector chains), the matrix exponential and its
action on a vector, Kronecker products, and the vec/unvec reshaping between
d x d matrices and length-d^2 vectors.

Conventions
-----------
vec is row-major: element (i, j) of a d x d matrix maps to slot i*d + j of the
vector.  With this ordering,

    vec(A @ X @ B) == kron(A, B.T) @ vec(X)

which is the identity every superoperator construction in the package relies
on.  All operations are pure functions on immutable inputs; every tolerance
below is a module-level default that callers may override per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NoConvergence,
    NotHermitian,
    Overflow,
)

TOL_HERM = 1e-10
TOL_EIG = 1e-10
TOL_CLUSTER_REL = 1e-8
EXPM_NORM_BOUND = 1e6


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a complex ndarray, checked square, at least 1 x 1 and finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(m):
    """||m - m^dag||_F: a float for a matrix, an array for a stack (..., d, d)."""
    a = np.asarray(m)
    defect = np.linalg.norm(a - np.swapaxes(a, -1, -2).conj(), axis=(-2, -1))
    return defect if defect.ndim else float(defect)


def _unit_scaled(m):
    """(m * unit, unit) for a matrix or a stack (..., d, d) of them, with
    unit, per matrix, the power of two that brings its largest real or
    imaginary part into [0.5, 1) when that part exceeds 1, else 1.  The
    scaling is exact, and the norms of a scaled finite matrix are finite."""
    a = np.asarray(m)
    top = np.maximum(np.abs(a.real).max(axis=(-2, -1), initial=0.0),
                     np.abs(a.imag).max(axis=(-2, -1), initial=0.0))
    big = top > 1.0
    if not big.any():
        return a, 1.0
    unit = np.where(big, np.ldexp(1.0, -np.frexp(top)[1]), 1.0)
    return a * unit[..., None, None], unit


def _is_hermitian(m, tol: float, unit: float = 1.0):
    """||m - m^dag||_F <= tol * max(1, ||m||_F), both norms taken of
    :func:`_unit_scaled` m: the verdict is the unscaled one wherever that
    one's norms are finite, and entries near the end of the double range,
    whose norms overflow, still get a verdict.  A bool for a matrix, a bool
    array for a stack (..., d, d).  A given ``unit`` (a power of two) means
    ``m`` is the matrix of interest already scaled by it.
    """
    a, scale = _unit_scaled(m)
    ok = hermiticity_defect(a) <= tol * np.maximum(unit * scale,
                                                   np.linalg.norm(a, axis=(-2, -1)))
    return ok if ok.ndim else bool(ok)


def _defect_text(m, unit: float = 1.0) -> str:
    """'defect x' for an error message: the Hermiticity defect of
    :func:`_unit_scaled` m, with its scale when there is one, so it is finite
    where the unscaled defect overflows; ``unit`` as in :func:`_is_hermitian`."""
    a, scale = _unit_scaled(m)
    scale = float(unit * scale)
    text = f"defect {hermiticity_defect(a):.3e}"
    return text if scale == 1.0 else f"{text} (entries scaled by 2^{math.frexp(scale)[1] - 1})"


def herm_eig(m, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns).  Raises NotHermitian if the input is not Hermitian within
    ``tol_herm`` (scaled by the matrix norm), NoConvergence if LAPACK fails.
    """
    a = as_square_matrix(m)
    if not _is_hermitian(a, tol_herm):
        raise NotHermitian(
            f"matrix is not Hermitian: {_defect_text(a)}"
        )
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return vals, vecs


def expm(m, t: float = 1.0, norm_bound: float = EXPM_NORM_BOUND) -> np.ndarray:
    """exp(t*m) by scaling-and-squaring (scipy Pade core).

    exp(0*m) is the identity exactly.  Raises Overflow if ||t*m||_1 exceeds
    ``norm_bound``; beyond that scale the double-precision result is garbage
    anyway.
    """
    a = as_square_matrix(m)
    if t == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    scaled = t * a
    nrm = float(np.linalg.norm(scaled, 1))
    if nrm > norm_bound:
        raise Overflow(f"||t*m||_1 = {nrm:.3e} exceeds bound {norm_bound:.3e}")
    return scipy.linalg.expm(scaled)


# theta_m of Al-Mohy & Higham, "Computing the action of the matrix
# exponential" (SIAM J. Sci. Comput. 2011), Table 3.1 for double precision:
# s steps of the degree-m Taylor polynomial of exp(t*A/s) meet a backward
# error of 2^-53 when t*||A||_1 / s <= theta_m.
_TAYLOR_M = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3,
    9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1,
    7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43,
    2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9,
])
_TAYLOR_TOL = 2.0**-53


def _taylor_plan(t, norm1: float, n: int):
    """How :func:`expm_action` takes exp(t*a) @ v for an n x n ``a`` with
    ||a||_1 = norm1, vectorized over t: (k, products, dense), where k indexes
    the cheapest Taylor degree m of the table, products = m*s its count of
    matrix-vector products, and dense marks the steps whose products cost at
    least one n x n matrix product (m*s >= n), which take one dense
    :func:`expm` instead."""
    cost = _TAYLOR_M * np.ceil(np.asarray(t, dtype=float)[..., None] * norm1 / _TAYLOR_THETA)
    products = cost.min(axis=-1)
    return cost.argmin(axis=-1), products, products >= n


def _expm_cost(t, norm1: float, n: int):
    """Dense :func:`expm` of t*a in n x n products, each counted as n
    matrix-vector products: Pade-13's six products and one solve, plus one
    squaring per halving of ||t*a||_1 down to theta_13 = 5.37."""
    scaled = np.maximum(np.asarray(t, dtype=float) * norm1, 5.37)
    return n * (8 + np.ceil(np.log2(scaled / 5.37)))


# ||t*a||_1 that a Taylor step of at most 2 products covers: theta_2 (m = 2,
# s = 1), since two degree-1 steps reach only 2 * theta_1 = 4.6e-16.
_TWO_PRODUCT_REACH = _TAYLOR_THETA[1]


def _correction_degree(x, norm1: float):
    """Degree of the Taylor polynomial that takes exp(x*a) to 2^-53 for
    0 <= x*||a||_1 <= theta_2: 0 at x = 0, 1 up to theta_1, else 2.
    Vectorized over x."""
    scaled = x * norm1
    return (scaled > 0) + (scaled > _TAYLOR_THETA[0])


def _step_families(values: np.ndarray, uses: np.ndarray, cost: np.ndarray,
                   norm1: float, n: int) -> dict[float, float]:
    """{dt: h} for the distinct steps ``values`` (ascending, each taken
    ``uses`` times at ``cost`` matrix-vector products on its own) worth taking
    as exp((dt - h) a) @ P_h @ v with one dense P_h = exp(h a) per h, for an
    n x n ``a`` with ||a||_1 = norm1.

    The steps fall into families: each family starts at its smallest step h
    and takes every following dt with (dt - h) ||a||_1 <= theta_2, whose
    exp((dt - h) a) is a Taylor polynomial of degree at most 2.  A family is
    kept when the products its uses save exceed the cost of P_h.
    """
    scaled = values * norm1
    ends = np.searchsorted(scaled, scaled + _TWO_PRODUCT_REACH, side="right").tolist()
    starts = [0]
    while ends[starts[-1]] < len(values):
        starts.append(ends[starts[-1]])
    family = np.repeat(np.arange(len(starts)), np.diff(starts + [len(values)]))
    h = values[starts][family]
    saved = uses * (cost - 1 - _correction_degree(values - h, norm1))
    kept = np.add.reduceat(saved, starts) > _expm_cost(values[starts], norm1, n)
    return {float(dt): float(b) for dt, b, k in zip(values, h, kept[family]) if k}


# The stopping test of a Taylor step compares c_{j-1} + c_j with 2^-53
# ||f||_inf.  ||f_0||_inf + sum_{i <= j} c_i bounds ||f||_inf up to the
# rounding of j <= 55 additions and moduli, a relative 2^-46 at most; the
# pad covers that and the floor covers subnormal moduli, so the test is
# evaluated whenever it can fire.
_BOUND_PAD = 1.0 + 2.0**-40
_BOUND_FLOOR = 2.0**-1000


def _inf_norm(x: np.ndarray):
    """max |x_i|: ``np.abs(x).max()`` without ndarray.max's Python wrapper."""
    return np.maximum.reduce(np.abs(x))


def _taylor_series(a: np.ndarray, t: float, v: np.ndarray, m: int, s: int) -> np.ndarray:
    """s steps of the degree-m Taylor polynomial of exp(t*a/s) applied to v,
    each stopping once two consecutive terms c_{j-1}, c_j (infinity norms)
    fall below 2^-53 of ||f||_inf, f the running sum (Al-Mohy & Higham 2011,
    Algorithm 3.2).  ||f||_inf is computed only when the running bound on it
    lets the test fire, and the last term of a step has no test, since
    stopping there changes nothing: the result is the same bits as the
    algorithm's."""
    f = v
    for _ in range(s):
        term = f
        if m > 1:
            c1 = bound = _inf_norm(f)
        for j in range(1, m):
            term = (t / (s * j)) * (a @ term)
            c2 = _inf_norm(term)
            f = f + term
            bound += c2
            c = c1 + c2
            if (c <= _TAYLOR_TOL * (bound * _BOUND_PAD + _BOUND_FLOOR)
                    and c <= _TAYLOR_TOL * _inf_norm(f)):
                break
            c1 = c2
        else:
            f = f + (t / (s * m)) * (a @ term)
    return f


def _family_step(a: np.ndarray, p_h: np.ndarray, x: float, m: int, v: np.ndarray) -> np.ndarray:
    """exp(x*a) @ P_h @ v with exp(x*a) the degree-m Taylor polynomial of
    :func:`_correction_degree`: no plan and no stopping test."""
    f = term = p_h @ v
    for j in range(1, m + 1):
        term = (x / j) * (a @ term)
        f = f + term
    return f


def _dense_action(a: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    return expm(a, t) @ v


def _step_actions(a: np.ndarray, steps, norm1: float) -> dict:
    """{dt: action} with action(v) = exp(dt*a) @ v for each distinct dt of a
    sequence of positive ``steps`` taken in turn, given norm1 = ||a||_1.

    One vectorized :func:`_taylor_plan` plans every distinct step, and a
    step outside a family (:func:`_step_families`) is taken as
    :func:`expm_action` takes it, with the same bits.  A family's step dt
    is exp((dt - h) a) @ P_h @ v, exact since exp(h a) and exp((dt - h) a)
    commute and multiply to exp(dt a); the cost model counts a step on its
    own as expm_action's m*s products, or a dense expm and its product with
    v.  A single step is :func:`expm_action` itself.
    """
    if len(steps) < 2:  # one step saves at most the dense expm it would cost
        return {dt: partial(expm_action, a, dt, norm1=norm1)
                for dt in np.asarray(steps, dtype=float).tolist()}
    n = a.shape[0]
    values, uses = np.unique(steps, return_counts=True)
    k, products, dense = _taylor_plan(values, norm1, n)
    cost = np.where(dense, _expm_cost(values, norm1, n) + 1, products)
    bases = _step_families(values, uses, cost, norm1, n)
    propagators = {h: expm(a, h) for h in dict.fromkeys(bases.values())}
    actions = {}
    for dt, m, p, full in zip(values.tolist(), _TAYLOR_M[k].tolist(), products.tolist(),
                              dense.tolist()):
        h = bases.get(dt)
        if h is not None:
            actions[dt] = partial(_family_step, a, propagators[h], dt - h,
                                  int(_correction_degree(dt - h, norm1)))
        elif full:
            actions[dt] = partial(_dense_action, a, dt)
        else:
            actions[dt] = partial(_taylor_series, a, dt, m=m, s=int(p) // m)
    return actions


def expm_action(a: np.ndarray, t: float, v: np.ndarray, norm1: float) -> np.ndarray:
    """exp(t*a) @ v for t > 0, given norm1 = ||a||_1.

    Truncated Taylor steps in the style of Al-Mohy & Higham's Algorithm 3.2
    (:func:`_taylor_series`): (m, s) minimises the m*s products with ``a``
    over the theta_m table, and a step's series stops once two consecutive
    terms fall below 2^-53 of the running sum.  When those m*s
    matrix-vector products cost at least one n x n matrix product
    (m*s >= n), the step is one dense ``expm(a, t) @ v`` instead, so a
    single long step keeps expm's scaling and squaring and its Overflow
    bound.  ``a`` is trusted as it stands: callers validate it once and
    then take many steps.
    """
    k, products, dense = _taylor_plan(t, norm1, a.shape[0])
    if dense:
        return _dense_action(a, t, v)
    m = int(_TAYLOR_M[k])
    return _taylor_series(a, t, v, m, int(products) // m)


def kron(a, b) -> np.ndarray:
    return np.kron(as_square_matrix(a), as_square_matrix(b))


def vec(m) -> np.ndarray:
    """Row-major vectorization: (i, j) -> slot i*d + j."""
    return as_square_matrix(m).reshape(-1)


def unvec(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; the exact round trip unvec(vec(m)) == m."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(a.size)))
    if dim * dim != a.size:
        raise DimensionMismatch(f"vector of length {a.size} is not d*d")
    return a.reshape(dim, dim)


@dataclass
class ChainSpectrum:
    """Eigenvalues with their generalized-eigenvector chains.

    ``chains[k]`` lists the chains belonging to ``eigenvalues[k]``; each chain
    is an ordered list [V_1, ..., V_p] with (A - lambda I) V_i = V_{i-1} and
    (A - lambda I) V_1 = 0.  ``rank_flags[k]`` holds, chain by chain, the
    generalized rank of every vector (1-based position in its chain).
    """

    eigenvalues: list[complex]
    multiplicities: list[int]
    chains: list[list[list[np.ndarray]]]
    rank_flags: list[list[list[int]]]

    @property
    def dim(self) -> int:
        return self.chains[0][0][0].shape[0]

    def all_vectors(self) -> np.ndarray:
        """All generalized eigenvectors as columns, grouped by eigenvalue."""
        cols = [
            v
            for per_eig in self.chains
            for chain in per_eig
            for v in chain
        ]
        return np.column_stack(cols)


def _cluster_eigenvalues(vals: np.ndarray, tol: float):
    """Group eigenvalues whose pairwise distance chains below ``tol``, ordered
    by smallest index, indices ascending.  Values within ``tol`` have real
    parts within ``tol``, so after a sort by real part only neighbours inside
    that window are compared.
    """
    n = len(vals)
    order = np.argsort(vals.real, kind="stable")
    v = vals[order]
    edges = []
    for k in range(1, n):
        in_window = v.real[k:] - v.real[:-k] <= tol
        if not in_window.any():
            break
        hit = np.flatnonzero(in_window & (np.abs(v[k:] - v[:-k]) <= tol))
        edges.append((order[hit], order[hit + k]))
    # Min-label propagation: each group ends labelled by its smallest index.
    label, prev = np.arange(n), None
    while prev is None or not np.array_equal(label, prev):
        prev, label = label, label.copy()
        for i, j in edges:
            low = np.minimum(label[i], label[j])
            np.minimum.at(label, i, low)
            np.minimum.at(label, j, low)
        label = label[label]
    idx = np.argsort(label, kind="stable")
    return [g.tolist() for g in np.split(idx, np.flatnonzero(np.diff(label[idx])) + 1)]


def _null_space(mat: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of ``mat``."""
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _cluster_chains(a: np.ndarray, lam: complex, members: np.ndarray):
    """(chains, rank flags) of a cluster of ``a`` with more than one member:
    eigenvalue ``lam`` (the members' mean), members the cluster's raw
    eigenvalues.  B = A - lambda I is real when both A and lambda are, so a
    real cluster's SVDs run in real arithmetic."""
    d = a.shape[0]
    m_alg = len(members)
    if lam.imag == 0.0 and not np.iscomplexobj(a):
        b = a - lam.real * np.eye(d)
    else:
        b = a - lam * np.eye(d)
    try:
        norm_b = max(float(np.linalg.norm(b, 2)), 1e-300)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"2-norm of A - lambda I at {lam:.6g}: {exc}") from exc

    def ill(reason):
        return IllConditioned(f"cluster at {lam:.6g}{reason}",
                              cluster=[complex(z) for z in members])

    # Null spaces of B^k until the dimension reaches the algebraic
    # multiplicity.  The rank cutoff scales with ||B||^k because powering
    # amplifies rounding noise at exactly that rate.
    null_bases = [np.zeros((d, 0))]
    dims = [0]
    bk = np.eye(d, dtype=b.dtype)
    p = 0
    for k in range(1, m_alg + 1):
        bk = bk @ b
        with np.errstate(over="ignore"):
            cutoff = max(d * 1e-10 * np.float64(norm_b)**k, 1e-300)
        if cutoff == np.inf:
            raise Overflow(f"cluster at {lam:.6g}: ||A - lambda I||^{k} overflows")
        nb = _null_space(bk, cutoff)
        if nb.shape[1] <= dims[-1]:
            break
        null_bases.append(nb)
        dims.append(nb.shape[1])
        p = k
        if nb.shape[1] >= m_alg:
            break
    if dims[-1] != m_alg:
        raise ill(f" (multiplicity {m_alg}): generalized null space stalled at "
                  f"dimension {dims[-1]}")

    if p == 1:
        # Diagonalizable cluster: the orthonormal null-space basis is the
        # chain set directly.
        return [[col] for col in null_bases[1].T.copy()], [[1] for _ in range(m_alg)]

    chains: list[list[np.ndarray]] = []
    flags: list[list[int]] = []
    carry: list[np.ndarray] = []  # level-k vectors of taller chains
    tops_by_level: dict[int, list[np.ndarray]] = {}
    for k in range(p, 0, -1):
        have = len(carry)
        need = (dims[k] - dims[k - 1]) - have
        if need > 0:
            obstruction = [null_bases[k - 1]] if k > 1 else []
            if carry:
                obstruction.append(np.column_stack(carry))
            cand = null_bases[k]
            if obstruction:
                q = np.linalg.qr(np.column_stack(obstruction))[0]
                cand = cand - q @ (q.conj().T @ cand)
            u, s, _ = np.linalg.svd(cand, full_matrices=False)
            if np.sum(s > 0.1) < need:
                raise ill(f": cannot separate chain tops at level {k}")
            tops_by_level[k] = [u[:, c].copy() for c in range(need)]
            carry = carry + tops_by_level[k]
        carry = [b @ v for v in carry]
    for k, tops in sorted(tops_by_level.items(), reverse=True):
        for top in tops:
            chain = [top]
            for _ in range(k - 1):
                chain.append(b @ chain[-1])
            chain.reverse()  # chain[0] is now the eigenvector V_1
            nrm = np.linalg.norm(chain[0])
            if nrm < 1e-300:
                raise ill(": degenerate chain")
            chains.append([v / nrm for v in chain])
            flags.append(list(range(1, k + 1)))
    return chains, flags


def general_eig(m, tol_cluster: float | None = None) -> ChainSpectrum:
    """Full spectral data of a general square matrix, with Jordan chains.

    Eigenvalues closer than ``tol_cluster`` (default 1e-8 * ||A||) are treated
    as a single cluster; if no consistent chain structure exists for a cluster
    the function raises IllConditioned naming it rather than guessing.  For a
    diagonalizable matrix every chain has length one and the vectors within
    each eigenvalue are orthonormal.  Clusters are ordered by the real, then
    the imaginary part of their mean.  A real input stays real, so ``eig``
    takes LAPACK's real path and its complex eigenvalues come in exact
    conjugate pairs.  The one-member clusters take their unit eigenvectors
    from the one ``eig`` call, normalized together; only larger clusters pay
    for SVDs (:func:`_cluster_chains`).
    """
    a = as_square_matrix(m)
    if not np.iscomplexobj(m):
        a = a.real
    d = a.shape[0]
    if tol_cluster is None:
        norm_a = float(np.linalg.norm(a, 2)) if d > 1 else float(abs(a[0, 0]))
        tol_cluster = TOL_CLUSTER_REL * max(1.0, norm_a)
    try:
        raw, raw_vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    if not np.isfinite(raw).all():
        raise NoConvergence("eig returned non-finite eigenvalues")

    groups = _cluster_eigenvalues(raw, tol_cluster)
    sizes = [len(idx) for idx in groups]
    centres = raw[[idx[0] for idx in groups]].astype(complex)
    for k, idx in enumerate(groups):
        if sizes[k] > 1:
            centres[k] = np.mean(raw[idx])
    order = np.lexsort((centres.imag, centres.real)).tolist()
    unit_vecs = raw_vecs / np.linalg.norm(raw_vecs, axis=0)

    all_chains: list[list[list[np.ndarray]]] = []
    all_flags: list[list[list[int]]] = []
    for k in order:
        idx = groups[k]
        if sizes[k] == 1:
            all_chains.append([[unit_vecs[:, idx[0]]]])
            all_flags.append([[1]])
        else:
            chains, flags = _cluster_chains(a, complex(centres[k]), raw[idx])
            all_chains.append(chains)
            all_flags.append(flags)

    eigenvalues = centres[order].tolist()
    spectrum = ChainSpectrum(eigenvalues, [sizes[k] for k in order], all_chains, all_flags)
    basis = spectrum.all_vectors()
    if np.linalg.matrix_rank(basis, tol=1e-8) < d:
        raise IllConditioned(
            "generalized eigenvectors do not span the space",
            cluster=eigenvalues,
        )
    return spectrum
