"""Dense linear algebra: eigendecompositions (Hermitian and general,
including generalized-eigenvector chains), the matrix exponential and its
action on a vector.  Inputs are complex, except that ``general_eig`` and
``expm`` keep a real input in real arithmetic.

Conventions
-----------
vec is row-major: element (i, j) of a d x d matrix maps to slot i*d + j of the
length-d^2 vector, which is ``m.reshape(-1)``.  With this ordering,

    vec(A @ X @ B) == np.kron(A, B.T) @ vec(X)

which is the identity every superoperator construction in the package relies
on.  All operations are pure functions on immutable inputs.

Everything here is numpy except :func:`expm` of a matrix with a nonzero
off-diagonal entry, which imports scipy.linalg on its first call, so that a
process that never exponentiates such a matrix never loads scipy.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NoConvergence,
    NotHermitian,
    Overflow,
)

TOL_HERM = 1e-10
TOL_CLUSTER_REL = 1e-8
EXPM_NORM_BOUND = 1e6


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a complex ndarray, checked square, at least 1 x 1 and finite."""
    return _checked_square(np.asarray(m, dtype=complex))


def _of_kind(m) -> np.ndarray:
    """``m`` as a complex array, or as a float array when ``m`` is real.  A
    real ``m`` is not copied into a complex one: with that copy,
    :func:`expm` of a real 144 x 144 matrix took 4.1 ms instead of 2.8 ms
    (2-core Xeon)."""
    return np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)


def _checked_square(a: np.ndarray) -> np.ndarray:
    _checked_shape(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _checked_shape(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be at least 1")
    return a


def _unit_scaled(m):
    """(m * unit, unit) for a matrix or a stack (..., d, d) of them, with
    unit, per matrix, the power of two that brings its largest real or
    imaginary part into [0.5, 1) when that part exceeds 1, else 1.  The
    scaling is exact, and the norms of a scaled finite matrix are finite."""
    a = np.asarray(m)
    # a complex matrix's real and imaginary parts side by side in one real array
    parts = np.ascontiguousarray(a).view(a.real.dtype) if np.iscomplexobj(a) else a
    top = np.abs(parts).max(axis=(-2, -1), initial=0.0)
    big = top > 1.0
    if not big.any():
        return a, 1.0
    unit = np.where(big, np.ldexp(1.0, -np.frexp(top)[1]), 1.0)
    return a * unit[..., None, None], unit


def _frobenius(a: np.ndarray):
    """||a||_F over the last two axes, by ``np.linalg.norm``'s own formula
    (so with its bits), without its Python-level argument handling."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def _anti(a: np.ndarray) -> np.ndarray:
    """a - a^dag for a matrix or a stack (..., d, d)."""
    return a - a.swapaxes(-1, -2).conj()


def _is_hermitian(m, tol: float, unit: float = 1.0, anti=_anti):
    """||anti(m)||_F <= tol * max(1, ||m||_F), anti(m) = m - m^dag unless
    given (``np.imag`` tests that m is real).  A bool for a matrix, a bool
    array for a stack (..., d, d).  A given ``unit`` (a power of two) means
    ``m`` is the matrix of interest already scaled by it.

    Both norms are first taken of m as it stands.  Only where one of them
    is not finite (squares beyond the double range, or a NaN or
    infinite entry) is the test taken again on :func:`_unit_scaled` m.
    Power-of-two scaling is exact, so the verdict is the unscaled one
    wherever that one's norms are finite, and entries near the end of the
    double range, whose norms overflow, still get a verdict.  A matrix with
    a NaN or infinite entry is not Hermitian, and raises no warning.
    """
    a = np.asarray(m)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        defect, size = _frobenius(anti(a)), _frobenius(a)
        if a.ndim == 2:  # as Python floats: a bool and no numpy call to compare
            defect, size = float(defect), float(size)
            if math.isfinite(defect + size):
                return defect <= tol * max(unit, size)
        elif np.isfinite(defect + size).all():
            return defect <= tol * np.maximum(unit, size)
        a, scale = _unit_scaled(a)
        ok = _frobenius(anti(a)) <= tol * np.maximum(unit * scale, _frobenius(a))
    return ok if ok.ndim else bool(ok)


def _defect_text(m, unit: float = 1.0, anti=_anti) -> str:
    """'defect x' for an error message: the defect of :func:`_unit_scaled` m,
    with its scale when there is one, so it is finite where the unscaled
    defect overflows; ``unit`` and ``anti`` as in :func:`_is_hermitian`."""
    a, scale = _unit_scaled(m)
    scale = float(unit * scale)
    text = f"defect {float(_frobenius(anti(a))):.3e}"
    return text if scale == 1.0 else f"{text} (entries scaled by 2^{math.frexp(scale)[1] - 1})"


def herm_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns).  Raises NotHermitian if the input is not Hermitian within
    TOL_HERM (scaled by the matrix norm), NoConvergence if LAPACK fails.
    """
    a = as_square_matrix(m)
    if not _is_hermitian(a, TOL_HERM):
        raise NotHermitian(
            f"matrix is not Hermitian: {_defect_text(a)}"
        )
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return vals, vecs


def _check_expm_norm(nrm: float) -> None:
    """Raise Overflow if nrm = ||t*m||_1 exceeds EXPM_NORM_BOUND."""
    if nrm > EXPM_NORM_BOUND:
        raise Overflow(f"||t*m||_1 = {nrm:.3e} exceeds bound {EXPM_NORM_BOUND:.3e}")


def expm(m, t: float = 1.0) -> np.ndarray:
    """exp(t*m) by scaling-and-squaring: ``scipy.linalg.expm``'s Pade core.

    A real ``m`` gives a real result, from scipy's real arithmetic.
    exp(0*m) is the identity exactly.  Raises Overflow if ||t*m||_1 exceeds
    EXPM_NORM_BOUND; beyond that scale the double-precision result is garbage
    anyway.

    A t*m with no nonzero off-diagonal entry is exponentiated entrywise on
    its diagonal, the branch ``scipy.linalg.expm`` itself takes for it, so
    the bits are scipy's.  Only any other matrix imports scipy.linalg, on the
    first call that reaches it, not with this module: its import (about 0.3 s
    on a 2-core Xeon) is most of a fresh CLI call's start-up.

    A non-finite entry of ``m`` raises ValueError.  Such an entry makes
    ||t*m||_1 non-finite, so the entries are scanned only when that norm is
    (or at t = 0): a finite ``m`` whose t*m overflows raises Overflow, and
    so does one within the bound whose exponential leaves double precision
    (an eigenvalue with real part above about 709.8, which no generator of
    a physical evolution has).  None raises a warning first.
    """
    a = _checked_shape(_of_kind(m))
    if t == 0.0:
        return np.eye(_checked_square(a).shape[0], dtype=a.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = t * a
        # np.linalg.norm(scaled, 1)'s own formula, without its Python wrappers
        nrm = float(np.maximum.reduce(np.add.reduce(np.abs(scaled), axis=0)))
        if not math.isfinite(nrm):
            _checked_square(a)
            nrm = math.inf  # t * a overflowed, or t itself is not finite
        _check_expm_norm(nrm)
        if np.count_nonzero(scaled) == np.count_nonzero(np.diagonal(scaled)):
            out = np.diag(np.exp(np.diagonal(scaled)))
        else:
            import scipy.linalg

            out = scipy.linalg.expm(scaled)
    if not np.isfinite(out).all():
        raise Overflow(f"exp(t*m) leaves double precision (||t*m||_1 = {nrm:.3e})")
    return out


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
    """How :func:`_planned_action` takes exp(t*a) @ v for an n x n ``a`` with
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


# ||x*a||_1 up to which a family takes exp(x*a) as its degree-1 Taylor
# polynomial: theta_2, the reach of one degree-2 step.  Over (theta_1, theta_2]
# degree 1 truncates by at most theta_2^2 / 2 = 3.3e-16 relative, below the
# rounding of the P_h v it corrects.
_TWO_PRODUCT_REACH = _TAYLOR_THETA[1]


def _step_families(values: np.ndarray, uses: np.ndarray, cost: np.ndarray,
                   norm1: float, n: int) -> dict[float, float]:
    """{dt: h} for the distinct steps ``values`` (ascending, each taken
    ``uses`` times at ``cost`` matrix-vector products on its own) worth taking
    as exp((dt - h) a) @ P_h @ v with one dense P_h = exp(h a) per h, for an
    n x n ``a`` with ||a||_1 = norm1.

    The steps fall into families: each family starts at its smallest step h
    and takes every following dt with (dt - h) ||a||_1 <= theta_2, whose
    exp((dt - h) a) is taken as the Taylor polynomial of degree 1 (degree 0
    at dt = h): over (theta_1, theta_2] it truncates by at most theta_2^2/2
    = 3.3e-16, below the rounding of P_h v itself.  A family is kept when
    the products its uses save exceed the cost of P_h.
    """
    scaled = values * norm1
    ends = np.searchsorted(scaled, scaled + _TWO_PRODUCT_REACH, side="right").tolist()
    starts = [0]
    while ends[starts[-1]] < len(values):
        starts.append(ends[starts[-1]])
    family = np.repeat(np.arange(len(starts)), np.diff(starts + [len(values)]))
    h = values[starts][family]
    saved = uses * (cost - 1 - (values > h))
    kept = np.add.reduceat(saved, starts) > _expm_cost(values[starts], norm1, n)
    return {float(dt): float(b) for dt, b, k in zip(values, h, kept[family]) if k}


def _inf_norm(x: np.ndarray):
    """max |x_i| over a vector or a whole block: ``np.abs(x).max()`` without
    ndarray.max's Python wrapper, 0 for an empty block."""
    return np.maximum.reduce(np.abs(x), axis=None, initial=0.0)


def _taylor_series(a: np.ndarray, t: float, m: int, s: int, p, v: np.ndarray) -> np.ndarray:
    """s steps of the degree-m Taylor polynomial of exp(t*a/s) applied to
    p @ v, or to v when p is None (p is a family's P_h).  A step stops once
    two consecutive terms c_{j-1}, c_j (infinity norms) fall below 2^-53 of
    ||f||_inf, f the running sum (Al-Mohy & Higham 2011, Algorithm 3.2).  It
    is tested at 1 < j < m only, 2m - 3 norms a step for m >= 3: at j = 1 it
    fires only on f = 0, since ||f||_inf <= (c_0 + c_1)(1 + 2^-53), and at
    j = m the step ends anyway.  v is a vector or a block of columns, normed
    as a whole: a coherence vector's first entry is 1/sqrt(d), so the
    block's test is within sqrt(d) of the slowest column's."""
    f = v if p is None else p @ v
    c2 = None
    for _ in range(s):
        term = f
        for j in range(1, m + 1):
            term = (t / (s * j)) * (a @ term)
            f = f + term
            if 2 < m and j < m:
                c1, c2 = c2, _inf_norm(term)
                if j > 1 and c1 + c2 <= _TAYLOR_TOL * _inf_norm(f):
                    break
    return f


def _dense_action(a: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    return expm(a, t) @ v


def _planned_action(a: np.ndarray, t: float, k, products, dense):
    """v -> exp(t*a) @ v for a step that :func:`_taylor_plan` planned, for
    |t|, as (k, products, dense): one dense ``expm(a, t) @ v`` when dense,
    else products / m steps of the degree-m Taylor series, m = _TAYLOR_M[k]
    (:func:`_taylor_series`).  v is a vector or a block of columns."""
    if dense:
        return partial(_dense_action, a, t)
    m = int(_TAYLOR_M[k])
    return partial(_taylor_series, a, t, m, int(products) // m, None)


def _step_actions(a: np.ndarray, steps, norm1: float, probe: float = 0.0) -> tuple:
    """({dt: action}, (forward, backward)) with action(v) = exp(dt*a) @ v for
    each distinct dt of a sequence of positive ``steps`` taken in turn, given
    norm1 = ||a||_1, and forward(v), backward(v) = exp(+-probe*a) @ v for a
    probe >= 0.  v is a vector, or for the probe also a block of columns.
    ``a`` is trusted as it stands: callers validate it once and then take
    many steps.

    One vectorized :func:`_taylor_plan` plans every distinct step and the
    probe.  Each step outside a family (:func:`_step_families`; a grid of
    one step has none) and each probe step is taken by its plan's
    :func:`_planned_action`: Taylor steps, or one dense :func:`expm` with
    its scaling and squaring and its Overflow bound.  A family's step dt is
    exp((dt - h) a) @ P_h @ v, exact since exp(h a) and exp((dt - h) a)
    commute: the correction's polynomial applied to P_h @ v by
    :func:`_taylor_series`, which takes every Taylor step.  The cost model
    counts a step on its own as its plan's m*s products, or a dense expm
    and its product with v.  Raises Overflow when ||probe*a||_1 exceeds
    EXPM_NORM_BOUND, before any step is taken.
    """
    _check_expm_norm(probe * norm1)
    n = a.shape[0]
    # np.unique(steps, return_counts=True), by one dict count
    counts = Counter(np.asarray(steps, dtype=float).tolist())
    values = np.array(sorted(counts), dtype=float)
    uses = np.array([counts[dt] for dt in values.tolist()], dtype=np.intp)
    k, products, dense = _taylor_plan(np.append(values, probe), norm1, n)
    probes = tuple(_planned_action(a, t, k[-1], products[-1], dense[-1])
                   for t in (probe, -probe))
    k, products, dense = k[:-1], products[:-1], dense[:-1]
    bases = {}
    # a lone step saves at most the dense expm it would cost, and an empty
    # grid, whose probe alone is planned, has no family to look for
    if len(steps) > 1:
        cost = np.where(dense, _expm_cost(values, norm1, n) + 1, products)
        bases = _step_families(values, uses, cost, norm1, n)
    propagators = {h: expm(a, h) for h in dict.fromkeys(bases.values())}
    actions = {}
    for dt, *plan in zip(values.tolist(), k.tolist(), products.tolist(), dense.tolist()):
        h = bases.get(dt)
        if h is None:
            actions[dt] = _planned_action(a, dt, *plan)
        else:
            actions[dt] = partial(_taylor_series, a, dt - h, int(dt > h), 1, propagators[h])
    return actions, probes


@dataclass
class ChainSpectrum:
    """Eigenvalues with their generalized-eigenvector chains.

    ``lengths[k]`` lists the lengths of the chains belonging to
    ``eigenvalues[k]``.  ``vectors`` holds every generalized eigenvector as a
    column, eigenvalue by eigenvalue and chain by chain, each chain
    [V_1, ..., V_p] in order: (A - lambda I) V_i = V_{i-1} and
    (A - lambda I) V_1 = 0.
    """

    eigenvalues: list[complex]
    lengths: list[list[int]]
    vectors: np.ndarray


def _cluster_labels(vals: np.ndarray, tol: float) -> np.ndarray:
    """Each eigenvalue's cluster, named by its smallest index: eigenvalues
    whose pairwise distance chains below ``tol`` share one.  One test of
    every pair gives the edges, each in both directions, and each value's
    edge to itself."""
    n = len(vals)
    close = np.abs(vals[:, None] - vals[None, :]) <= tol
    label = np.arange(n)
    if np.count_nonzero(close) == n:
        return label
    i, j = close.nonzero()
    # Min-label propagation: each cluster ends labelled by its smallest index.
    prev = None
    while prev is None or not np.array_equal(label, prev):
        prev, label = label, label.copy()
        np.minimum.at(label, i, label[j])
        label = label[label]
    return label


def _ordered_clusters(raw: np.ndarray, tol: float, conjugate_closed: bool):
    """(first, sizes, centres, members): the clusters of the eigenvalues
    ``raw`` (:func:`_cluster_labels`), ordered by the real, then the
    imaginary part of their centres.  Per cluster in that order, ``first``
    is its smallest index into raw, ``sizes`` its size and ``centres`` its
    eigenvalue, the one member or the members' mean; ``members`` maps the
    position of each cluster of more than one member to its indices into
    raw, in ascending positions.  When raw is closed under exact
    conjugation, a self-conjugate cluster, whose sorted imaginary parts are
    their own negatives reversed, gets an exactly real centre, which
    ``np.mean``'s pairwise sum does not guarantee."""
    n = len(raw)
    label = _cluster_labels(raw, tol)
    first = (label == np.arange(n)).nonzero()[0]
    sizes = np.bincount(label, minlength=n)[first]
    centres = raw[first].astype(complex)
    found = {}
    for k in (sizes > 1).nonzero()[0].tolist():
        found[k] = idx = (label == first[k]).nonzero()[0]
        centres[k] = np.mean(raw[idx])
        im = np.sort(raw[idx].imag)
        if conjugate_closed and np.array_equal(im, -im[::-1]):
            centres[k] = centres[k].real
    order = np.lexsort((centres.imag, centres.real))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    members = dict(sorted((int(position[k]), idx) for k, idx in found.items()))
    return first[order], sizes[order], centres[order], members


def _cluster_chains(a: np.ndarray, lam: complex, members: np.ndarray, limit: float):
    """(vectors, lengths) of a cluster of ``a`` with more than one member:
    its chains' vectors as columns, chain by chain, and the chains' lengths;
    eigenvalue ``lam`` (the members' mean), members the cluster's raw
    eigenvalues, ``limit`` the largest spread that still reads as one
    eigenvalue.  B = A - lambda I is real when both A and lambda are, and
    taken as B / sigma, sigma = 2^e putting its largest part in [0.5, 1), so
    that no power of it leaves double precision.  One full SVD gives both
    ||B / sigma||_2 and B's null space.  The chains come from one descent
    from the top level p of the null spaces of B^k: level k is B / sigma
    times level k + 1, then the tops of the chains of length k, in null(B^k)
    away from null(B^(k-1)) and the level's other columns.  Chain c is
    column c of levels 1 .. its length over the norm of its head, level k
    times sigma^-(k-1)."""
    d = a.shape[0]
    m_alg = len(members)
    if lam.imag == 0.0 and not np.iscomplexobj(a):
        b = a - lam.real * np.eye(d)
    else:
        b = a - lam * np.eye(d)
    parts = b.view(b.real.dtype)
    e = int(np.frexp(np.abs(parts).max())[1])  # sigma = 2^e
    b = np.ldexp(parts, -e).view(b.dtype)
    try:
        _, s, vh = np.linalg.svd(b)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"2-norm of A - lambda I at {lam:.6g}: {exc}") from exc
    norm_b = s[0]
    # twice the members' spread about lambda, at most ``limit``, on B / sigma
    spread = np.ldexp(min(2.0 * float(np.abs(members - lam).max()), limit), -e)

    def ill(reason):
        return IllConditioned(f"cluster at {lam:.6g}{reason}",
                              cluster=[complex(z) for z in members])

    # Null spaces of B^k until the dimension reaches the algebraic
    # multiplicity.  The rank cutoff scales with ||B||^k because powering
    # amplifies rounding noise at exactly that rate, and with the cluster's
    # own spread^k: the singular values of B on a normal cluster are its
    # members' distances from lambda, which may set ||B|| themselves.  An
    # exactly degenerate cluster has no spread, so a Jordan coupling of any
    # size keeps its chain; a spread beyond ``limit`` (distinct eigenvalues
    # forced into one cluster) still leaves the null space short.
    null_bases = [np.zeros((d, 0))]
    dims = [0]
    bk = b
    for k in range(1, m_alg + 1):
        if k > 1:
            bk = bk @ b
            _, s, vh = np.linalg.svd(bk)
        cutoff = max(d * 1e-10 * norm_b**k, spread**k)
        nb = vh[int(np.sum(s > cutoff)):].conj().T
        if nb.shape[1] <= dims[-1]:
            break
        null_bases.append(nb)
        dims.append(nb.shape[1])
        if nb.shape[1] >= m_alg:
            break
    if dims[-1] != m_alg:
        how = "passed the multiplicity at" if dims[-1] > m_alg else "stalled at"
        raise ill(f" (multiplicity {m_alg}): generalized null space {how} "
                  f"dimension {dims[-1]}")
    # widths[k-1] counts the chains of length >= k, so it cannot grow with k
    widths = np.diff(dims)
    if (widths[1:] > widths[:-1]).any():
        raise ill(f": null-space dimensions {dims} fit no Jordan structure")
    p = len(widths)

    if p == 1:  # diagonalizable: the orthonormal null-space basis is the chain set
        return null_bases[1], [1] * m_alg

    levels = [np.zeros((d, 0), b.dtype)]
    for k in range(p, 0, -1):
        level = b @ levels[-1]
        need = widths[k - 1] - level.shape[1]
        if need:
            q = np.linalg.qr(np.column_stack([null_bases[k - 1], level]))[0]
            u, s, _ = np.linalg.svd(null_bases[k] - q @ (q.conj().T @ null_bases[k]),
                                    full_matrices=False)
            if np.sum(s > 0.1) < need:
                raise ill(f": cannot separate chain tops at level {k}")
            level = np.column_stack([level, u[:, :need]])
        levels.append(level)
    lengths = (widths[:, None] > np.arange(widths[0])).sum(axis=0).tolist()
    order = [dims[k] + c for c, n in enumerate(lengths) for k in range(n)]
    level = np.concatenate([np.arange(n) for n in lengths])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        vectors = (np.column_stack(levels[:0:-1])[:, order] / np.repeat(
            np.linalg.norm(levels[-1], axis=0), lengths) * np.ldexp(1.0, -e * level))
    # a column whose largest entry is subnormal has lost its precision
    if not (np.isfinite(vectors).all()
            and (np.abs(vectors).max(axis=0) >= np.finfo(float).tiny).all()):
        raise Overflow(f"cluster at {lam:.6g}: chain vectors leave double precision")
    return vectors, lengths


def general_eig(m, tol_cluster: float | None = None) -> ChainSpectrum:
    """Full spectral data of a general square matrix, with Jordan chains.

    Eigenvalues closer than ``tol_cluster`` (default 1e-8 * ||A||) are treated
    as a single cluster; if no consistent chain structure exists for a cluster
    the function raises IllConditioned naming it rather than guessing.  A
    cluster's own spread counts as rounding in its null spaces up to
    ``tol_cluster`` and 1e-8 max(1, spectral radius), whichever is less.  For a
    diagonalizable matrix every chain has length one and the vectors within
    each eigenvalue are orthonormal.  Clusters are ordered by the real, then
    the imaginary part of their mean (:func:`_ordered_clusters`, whose rules
    a measurement model's spectrum shares).  A real input stays real, so ``eig``
    takes LAPACK's real path and its complex eigenvalues come in exact
    conjugate pairs.  A self-conjugate cluster, whose sorted imaginary parts
    are their own negatives reversed, gets an exactly real centre, which
    ``np.mean``'s pairwise sum does not guarantee, and so real vectors.  The
    one-member clusters take their unit eigenvectors from the one ``eig``
    call, normalized together; only larger clusters pay for SVDs
    (:func:`_cluster_chains`).  The final check that the vectors span the
    space is one SVD of them scaled to unit norm, real for a real input
    (:func:`_real_span`).
    """
    a = _checked_square(_of_kind(m))
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

    # a cluster's spread reads as rounding up to the cluster tolerance, and
    # never beyond the precision-level one of the spectral radius
    limit = min(tol_cluster, TOL_CLUSTER_REL * max(1.0, float(np.abs(raw).max())))
    first, sizes, centres, members = _ordered_clusters(raw, tol_cluster,
                                                       not np.iscomplexobj(a))
    start = np.cumsum(sizes) - sizes

    # the vectors fill one matrix, cluster by cluster in order; the
    # one-member clusters' unit eigenvectors in one gather
    vectors = np.empty((d, d), raw_vecs.dtype)
    single = sizes == 1
    vectors[:, start[single]] = (raw_vecs / np.linalg.norm(raw_vecs, axis=0))[:, first[single]]
    lengths = np.ones((len(first), 1), dtype=int).tolist()
    for j, idx in members.items():
        vectors[:, start[j]:start[j] + sizes[j]], lengths[j] = _cluster_chains(
            a, complex(centres[j]), raw[idx], limit)

    eigenvalues = centres.tolist()
    # the span is read on unit vectors, each scaled by its largest modulus
    # first, so that a chain vector's norm is finite
    basis = vectors / np.abs(vectors).max(axis=0)
    basis /= np.linalg.norm(basis, axis=0)
    basis = basis if np.iscomplexobj(a) else _real_span(basis, raw, first, sizes)
    if np.count_nonzero(np.linalg.svd(basis, compute_uv=False) > 1e-8) < d:
        raise IllConditioned(
            "generalized eigenvectors do not span the space",
            cluster=eigenvalues,
        )
    return ChainSpectrum(eigenvalues, lengths, vectors)


def _real_span(vectors, raw, first, sizes):
    """A real matrix with the rank of ``vectors``, the generalized
    eigenvectors of a real matrix as :func:`general_eig` orders them, with
    ``first`` the smallest raw eigenvalue index of each cluster in that
    order and ``sizes`` the clusters' sizes.

    The raw eigenvalues of a real matrix come in conjugate pairs at
    adjacent indices, the positive imaginary part first, and the clusters
    in conjugate pairs too (the clustering reads only real parts and
    distances).  Of a pair of clusters the one whose first index holds the
    positive imaginary part is kept, and each of its vectors x stands in
    for x and its partner's conj(x): [x, conj(x)] M = sqrt(2) [Re x, Im x]
    with M the unitary [[1, -i], [1, i]] / sqrt(2).  numpy returns the
    vectors of a pair of one-member clusters as exact conjugates, so for
    them the 1e-8 rank threshold reads the singular values of the complex
    matrix.  A cluster that is its own conjugate starts with a real
    eigenvalue or with the positive member of a pair, so it is kept too;
    its vectors span a conjugate-closed space, and they are real when its
    centre is, or else their real and imaginary parts span it, which adds
    columns but no rank.
    """
    if not np.iscomplexobj(vectors):
        return vectors
    side = np.repeat(np.sign(raw.imag[first]), sizes)
    keep = side >= 0
    x = vectors[:, keep] * np.where(side[keep] > 0, np.sqrt(2), 1.0)
    return np.concatenate((x.real, x.imag[:, x.imag.any(axis=0)]), axis=1)
