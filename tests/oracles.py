"""Independent numerical oracles for the library's closed forms.

Fixed-step RK4 integrators for the RWA pulse and for the exact driven
dynamics, and adaptive quadrature of the Gaussian transit-time average.  The
quadrature integrand composes the three protocol segments directly on
unchecked 2 x 2 arrays, so it shares no code with the library's fringe
constants and builds no state per integrand point; it takes any other
composition of the fraction in its place, such as the one whose free flight
is evolved by the Lindblad engine.  The
strong-drive (|dw| << |U|) reference formulas for the single-shot and the
Gaussian-averaged fringe are written out from their closed forms.

For the generator layer: direct evaluation of L(rho), the generator and
the GKS maps as explicit loops of Kronecker products, the Hermitian basis
as the dense d^2 x d^2 unitary of its columns vec(G_a), and eigenvalue
clustering by pairwise comparison of every pair; the generalized-eigenvector
chains of a chain spectrum as column views.

For states: the density-matrix checks and repair (the repaired matrix
symmetrized, as the library's), the von Neumann entropy and the entropy rate
of one state at a time, with their own eigh calls; a classical mixture of
pure states, and the expectation value Tr(obs rho).

For the Choi test: the descending eigenvalues and phase-fixed eigen-matrices
of one eigh of a kernel's Choi matrix, sorted and phased in one pass; the
kernel reassembled from a Choi spectrum; and the kernel of a unitary
ensemble, the mean of U (x) conj(U) over its samples.

For the GKS form: the Gell-Mann matrices as one stack, and the Lindblad
operators of a GKS form from the eigenpairs of its c matrix.

For the Hermiticity checks: the power-of-two scale of a matrix stack from
the largest real and the largest imaginary part, taken apart, and the
unscaled defect ||m - m^dag||_F.

For evolution: the Taylor loop of exp(t*a) @ v that tests every term
against the running sum.

For the output: the standard library's JSON encoder.

For measurement bases: a basis's projectors P_alpha = u_alpha u_alpha^dag,
and the unitary of a list of basis vectors read back from their projectors,
column k of P = v v^dag over sqrt(P_kk), k the largest diagonal entry, which
fixes each vector's phase.
"""
import json
import math

import numpy as np
from scipy.integrate import quad

from lindkit import DensityMatrix, gellmann
from lindkit.matcore import _TAYLOR_M, _TAYLOR_TOL, _taylor_plan, expm
from lindkit.channels import TOL_OPERATOR, GKSForm, Kernel, reshuffle
from lindkit.errors import (
    InvalidDensityMatrix,
    LindkitError,
    NotAGenerator,
    NotHermitian,
    SingularState,
    StepTooLarge,
)


class QuadratureFailure(LindkitError):
    """Numerical quadrature of the transit-time average failed."""


RWA_DT_MAX = 1e-2      # rwa_ode requires dt <= RWA_DT_MAX / Omega
FULL_DT_MAX = 0.05     # full_ode requires dt <= FULL_DT_MAX / omega


def _rwa_rhs(t, fee, fgg, feg, u_eg, dw):
    ep = np.exp(1j * dw * t)
    fge = np.conj(feg)
    dee = -1j * (np.conj(u_eg) * feg * ep - u_eg * fge / ep)
    dgg = -1j * (-np.conj(u_eg) * feg * ep + u_eg * fge / ep)
    deg = -1j * (u_eg * (fee - fgg) / ep)
    return dee, dgg, deg


def _unchecked_matrix(f_ee, f_eg):
    """The 2 x 2 matrix over (e, g) with excited population f_ee and
    coherence f_eg, built with no check: the transit-average continuation
    visits transiently unphysical points."""
    return np.array([[f_ee, f_eg], [np.conj(f_eg), 1.0 - f_ee]], dtype=complex)


def _unchecked_state(f_ee, f_eg):
    """:func:`_unchecked_matrix` as a DensityMatrix, with no check: RK4
    drifts."""
    return DensityMatrix(_unchecked_matrix(f_ee, f_eg))


def _rabi(dw, u_eg):
    """The textbook generalized Rabi frequency sqrt(dw^2/4 + |U|^2)."""
    return math.sqrt(dw * dw / 4 + abs(u_eg) ** 2)


def rwa_ode(rho, tau, dw, u_eg, dt, t_start=0.0):
    """Fixed-step RK4 integration of the RWA system under the drive
    (dw, u_eg) from the two-level state rho; the independent oracle for
    pulse_closed_form."""
    big_om = _rabi(dw, u_eg)
    if big_om > 0 and dt > RWA_DT_MAX / big_om:
        raise StepTooLarge(f"dt must be <= {RWA_DT_MAX / big_om:.3e}")
    n = max(1, int(np.ceil(tau / dt)))
    h = tau / n
    t = t_start
    f = rho.matrix
    fee, fgg, feg = complex(f[0, 0].real), complex(f[1, 1].real), complex(f[0, 1])
    for _ in range(n):
        k1 = _rwa_rhs(t, fee, fgg, feg, u_eg, dw)
        k2 = _rwa_rhs(
            t + h / 2, fee + h / 2 * k1[0], fgg + h / 2 * k1[1], feg + h / 2 * k1[2],
            u_eg, dw,
        )
        k3 = _rwa_rhs(
            t + h / 2, fee + h / 2 * k2[0], fgg + h / 2 * k2[1], feg + h / 2 * k2[2],
            u_eg, dw,
        )
        k4 = _rwa_rhs(
            t + h, fee + h * k3[0], fgg + h * k3[1], feg + h * k3[2], u_eg, dw
        )
        fee += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        fgg += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        feg += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t += h
    return _unchecked_state(fee.real, feg)


def full_ode(energies, u_matrix, omega, t_span, dt):
    """Integrate the exact interaction-picture equations, counter-rotating
    terms included: f' = -i [H_I(t), f] with
    H_I(t) = D(t) (-U e^{-i w t} - U^dag e^{i w t}) D(t)^dag,
    D(t) = diag(e^{i E_m t}).

    ``energies`` are the stable-basis energies E_m (for the two-level case
    use (E_e, E_g) to keep the (e, g) ordering).  Returns (times, f_stack)
    where f_stack[k] is the coefficient matrix at times[k].
    """
    e = np.asarray(energies, dtype=float)
    u = np.asarray(u_matrix, dtype=complex)
    d = e.size
    if u.shape != (d, d):
        raise ValueError("drive matrix shape must match the energy count")
    if dt > FULL_DT_MAX / abs(omega):
        raise StepTooLarge(f"dt must be <= {FULL_DT_MAX / abs(omega):.3e}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    n = max(1, int(np.ceil((t1 - t0) / dt)))
    h = (t1 - t0) / n
    # the step times, accumulated one h at a time
    times = np.add.accumulate(np.r_[t0, np.full(n, h)])
    eye = np.eye(d * d)

    def rhs(t):
        """The maps vec(f) -> vec(-i [H_I(t), f]) at each time of t, as
        d^2 x d^2 matrices on the row-major vec."""
        ph = np.exp(1j * e * t[:, None])
        hp = (-u * np.exp(-1j * omega * t)[:, None, None]
              - u.conj().T * np.exp(1j * omega * t)[:, None, None])
        hi = (ph[:, :, None] * hp) * ph.conj()[:, None, :]
        return -1j * (np.kron(hi, np.eye(d)) - np.kron(np.eye(d), hi.transpose(0, 2, 1)))

    # the equation is linear, so each RK4 step is f <- P_k f with
    # P_k = I + h/6 (k1 + 2 k2 + 2 k3 + k4), the stages taken as maps
    t = times[:-1]
    mid = rhs(t + h / 2)  # the two middle stages share their time
    k1 = rhs(t)
    k2 = mid @ (eye + h / 2 * k1)
    k3 = mid @ (eye + h / 2 * k2)
    k4 = rhs(t + h) @ (eye + h * k3)
    steps = eye + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    f = np.zeros(d * d, dtype=complex)
    f[-1] = 1.0  # ground state occupies the last basis slot
    traj = np.empty((n + 1, d * d), dtype=complex)
    traj[0] = f
    for k in range(n):
        f = steps[k] @ f
        traj[k + 1] = f
    return times, traj.reshape(n + 1, d, d)


def _pulse_raw(f, tau, dw, u_eg, t_start):
    """Rodrigues rotation of the Bloch vector of the 2 x 2 array f over
    (e, g) under the drive (dw, u_eg), in scalar arithmetic, the result a
    2 x 2 array built unchecked (the transit-average continuation visits
    transiently unphysical points whose Gaussian weight is negligible)."""
    u = abs(u_eg)
    big_om = _rabi(dw, u_eg)
    if big_om == 0.0 or tau == 0.0:
        return f
    f_ee, f_eg = f[0, 0].real, f[0, 1]
    phi = np.angle(u_eg) if u > 0 else 0.0
    g = f_eg * np.exp(1j * dw * t_start) * np.exp(-1j * phi)
    bx, by, bz = 2 * g.real, 2 * g.imag, 2 * f_ee - 1.0
    nx, nz = u / big_om, dw / (2 * big_om)  # the rotation axis, n_y = 0
    theta = 2 * big_om * tau
    c, s = math.cos(theta), math.sin(theta)
    along = (nx * bx + nz * bz) * (1 - c)
    x = bx * c - nz * by * s + nx * along
    y = by * c + (nz * bx - nx * bz) * s
    z = bz * c + nx * by * s + nz * along
    g_out = (x + 1j * y) / 2
    f_eg_out = g_out * np.exp(1j * phi) * np.exp(-1j * dw * (t_start + tau))
    return _unchecked_matrix((1.0 + z) / 2, f_eg_out)


def protocol_at(config, theory, t_flight):
    """Composed fraction pulse -> flight -> pulse at any flight time,
    segment by segment on 2 x 2 arrays.  Negative t_flight is the analytic
    continuation of the fringe that the full-real-line transit average
    integrates over."""
    dw = config.omega - (config.e_e - config.e_g)
    f = _pulse_raw(_unchecked_matrix(0.0, 0.0 + 0.0j), config.tau, dw, config.u_eg, 0.0)
    if theory == "modified":
        damped = f[0, 1] * np.exp(-complex(config.lambda_tilde_eg) * t_flight)
        f = _unchecked_matrix(f[0, 0].real, damped)
    elif theory != "standard":
        raise ValueError(f"unknown theory {theory!r}")
    f = _pulse_raw(f, config.tau, dw, config.u_eg, config.tau + t_flight)
    return float(f[0, 0].real)


def gaussian_fraction_quadrature(config, theory="standard", truncate=False, at=protocol_at):
    """Transit-time average of ``at(config, theory, T)`` (by default
    protocol_at) by adaptive quadrature: over the full real line, or with
    ``truncate`` over [max(T0 - 8 sigma, 0), T0 + 8 sigma] renormalized by
    the weight inside that window."""
    sig = config.sigma
    if sig == 0.0:
        return at(config, theory, config.t0)
    gamma = config.lambda_tilde_eg.real if theory == "modified" else 0.0
    center = config.t0 - gamma * sig**2 / 2  # effective center of the damped term
    lo = min(config.t0, center) - 10 * sig
    hi = max(config.t0, center) + 10 * sig
    norm = 1.0
    if truncate:
        lo, hi = max(config.t0 - 8 * sig, 0.0), config.t0 + 8 * sig
        norm, _ = quad(
            lambda t: np.exp(-((t - config.t0) ** 2) / sig**2)
            / np.sqrt(np.pi * sig**2),
            lo,
            hi,
        )

    def integrand(t):
        w = np.exp(-((t - config.t0) ** 2) / sig**2) / np.sqrt(np.pi * sig**2)
        return w * at(config, theory, t)

    val, err = quad(integrand, lo, hi, limit=500, epsabs=1e-12, epsrel=1e-12)
    if not np.isfinite(val) or err > 1e-6:
        raise QuadratureFailure(f"quadrature error estimate {err:.3e}")
    return float(val / norm)


def _strong_drive_fringe(config, theory):
    """(prefactor, gamma, nu) of the strong-drive fringe
    prefactor [1 + e^{-gamma T} cos(nu T)], prefactor = 1/2 sin^2(2 Omega tau),
    from the config's own numbers."""
    if theory not in ("standard", "modified"):
        raise ValueError(f"unknown theory {theory!r}")
    lam = complex(config.lambda_tilde_eg) if theory == "modified" else 0j
    dw = config.omega - (config.e_e - config.e_g)
    big_om = np.sqrt(dw**2 / 4 + abs(config.u_eg) ** 2)
    return 0.5 * np.sin(2 * big_om * config.tau) ** 2, lam.real, dw - lam.imag


def pb_e_formula(config, theory="standard"):
    """Single-shot fringe formula 1/2 sin^2(2 Omega tau) [1 + e^{-Re(lt) T}
    cos((dw - Im(lt)) T)]; exact only in the strong-drive regime."""
    pref, gamma, nu = _strong_drive_fringe(config, theory)
    t = config.t_free
    return float(pref * (1 + np.exp(-gamma * t) * np.cos(nu * t)))


def pb_e_avg_formula(config, theory="standard"):
    """Gaussian-averaged fringe formula over the full real line:
    1/2 sin^2(2 Omega tau) [1 + e^{-Re(lt)(T0 - Re(lt) sigma^2/4) - nu^2 sigma^2/4}
    cos(nu (T0 - Re(lt) sigma^2/2))], nu = dw - Im(lt): the modified variant
    carries the damping, the fringe-center shift dw -> dw - Im(lt), and the
    effective time T0 - Re(lt) sigma^2/2."""
    pref, gamma, nu = _strong_drive_fringe(config, theory)
    t0, sig2 = config.t0, config.sigma**2
    damping = np.exp(-gamma * (t0 - gamma * sig2 / 4) - nu**2 * sig2 / 4)
    return float(pref * (1 + damping * np.cos(nu * (t0 - gamma * sig2 / 2))))


def apply_generator(model, rho):
    """L(rho) evaluated directly from H and the jump operators."""
    h = model.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for l in model.lindblads:
        ll = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ll @ rho + rho @ ll)
    return out


def superoperator_kron(model):
    """The generator as nine Kronecker products per operator, summed one
    operator at a time after the Hamiltonian's term."""
    d, h = model.dim, model.hamiltonian
    eye = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        sop = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for l in model.lindblads:
            ll = l.conj().T @ l
            sop += np.kron(l, l.conj()) - 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return sop


def vec_basis(dim):
    """The d^2 x d^2 unitary whose columns are vec(I/sqrt(d)) and vec(F_m),
    F_m the generalized Gell-Mann matrices written out entry by entry:
    symmetric pairs j < k, antisymmetric pairs, then diagonal."""
    j, k = np.triu_indices(dim, 1)
    sym, anti = np.arange(1, len(j) + 1), np.arange(len(j) + 1, 2 * len(j) + 1)
    rows = np.zeros((dim * dim, dim, dim), dtype=complex)
    rows[0] = np.eye(dim) / np.sqrt(dim)
    rows[sym, j, k] = rows[sym, k, j] = 1 / np.sqrt(2)
    rows[anti, j, k], rows[anti, k, j] = -1j / np.sqrt(2), 1j / np.sqrt(2)
    # diagonal l = 1 .. d-1: (1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1))
    l, i = np.arange(1, dim)[:, None], np.arange(dim)
    diag = (i < l) - l * (i == l)
    rows[2 * len(j) + l, i, i] = diag.astype(complex) / np.sqrt(l * (l + 1))
    return rows.reshape(dim * dim, dim * dim).T


def _basis_matrices(dim):
    """[G_0, G_1, ...]: the columns of :func:`vec_basis` as matrices."""
    return list(vec_basis(dim).T.reshape(dim * dim, dim, dim))


def _reshuffle(m, d):
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def gks_project_dense(sop):
    """(H, c) of a generator from q = V^dag reshuffle(L) V, with the dense
    V of :func:`vec_basis`: c is q's traceless block, and the Hamiltonian is
    fitted from its first column."""
    d = int(round(np.sqrt(sop.shape[0])))
    v = vec_basis(d)
    q = v.conj().T @ _reshuffle(sop, d) @ v
    q = 0.5 * (q + q.conj().T)
    f_op = (v[:, 1:] @ q[1:, 0]).reshape(d, d) / np.sqrt(d) + q[0, 0] / (2 * d) * np.eye(d)
    return 0.5j * (f_op - f_op.conj().T), q[1:, 1:]


def gks_build_dense(gks):
    """Superoperator of a GKSForm in Kronecker form: sum_mn c_mn
    F_m (x) conj(F_n) is reshuffle(W c W^dag), W the dense columns vec(F_m)
    of :func:`vec_basis`, and sum_mn c_mn F_n^dag F_m one contraction."""
    d, h = gks.dim, gks.hamiltonian
    eye = np.eye(d)
    w = vec_basis(d)[:, 1:]
    fs = w.T.reshape(-1, d, d)
    anti = np.einsum("mn,nji,mjk->ik", gks.c_matrix, fs.conj(), fs, optimize=True)
    return (_reshuffle(w @ gks.c_matrix @ w.conj().T, d)
            - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
            - 1j * (np.kron(h, eye) - np.kron(eye, h.T)))


def gks_build_loops(gks):
    """Superoperator of a GKSForm, one Kronecker product per basis pair."""
    d = gks.dim
    eye = np.eye(d)
    h = gks.hamiltonian
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    fs = _basis_matrices(d)[1:]
    for m_i, fm in enumerate(fs):
        for n_i, fn in enumerate(fs):
            c = gks.c_matrix[m_i, n_i]
            if c == 0:
                continue
            anti = fn.conj().T @ fm
            out += c * (
                np.kron(fm, fn.conj())
                - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
            )
    return out


def gks_project_loops(sop):
    """(H, c) of a generator from its overlaps Tr[(G_a (x) conj G_b)^dag L],
    one Kronecker product per basis pair (G_0 = I/sqrt(d), G_m = F_m)."""
    d = int(round(np.sqrt(sop.shape[0])))
    gs = _basis_matrices(d)
    n = d * d
    q = np.empty((n, n), dtype=complex)
    for a, ga in enumerate(gs):
        for b, gb in enumerate(gs):
            q[a, b] = np.vdot(np.kron(ga, gb.conj()), sop)
    q = 0.5 * (q + q.conj().T)
    f_op = sum(q[m, 0] * gs[m] for m in range(1, n)) / np.sqrt(d)
    f_op = f_op + q[0, 0] / (2 * d) * np.eye(d)
    return GKSForm(d, 0.5j * (f_op - f_op.conj().T), q[1:, 1:].copy())


def cluster_pairwise(vals, tol):
    """Eigenvalue groups by union-find over every pair with |a - b| <= tol,
    ordered by smallest index, indices ascending within a group."""
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def chain_views(cs):
    """``chain_views(cs)[k][c]``: chain c of ``cs.eigenvalues[k]`` as column
    views of ``cs.vectors``, read off its chain ``lengths``."""
    cols = iter(cs.vectors.T)
    return [[[next(cols) for _ in range(p)] for p in per_eig] for per_eig in cs.lengths]


def density_matrix_single(mat, tol_herm=1e-10, tol_trace=1e-10, tol_pos=1e-10):
    """(matrix, repaired) of DensityMatrix.from_matrix for one matrix."""
    a = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.linalg.norm(a - a.conj().T) > tol_herm * max(1.0, float(np.linalg.norm(a))):
        raise NotHermitian("density matrix must be Hermitian")
    a = 0.5 * (a + a.conj().T)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > tol_trace:
        raise InvalidDensityMatrix(f"trace is {tr}, not 1")
    low = np.linalg.eigvalsh(a)[0]
    if low < -tol_pos:
        raise InvalidDensityMatrix(
            f"minimum eigenvalue {low:.3e} below -{tol_pos:.0e}"
        )
    if low >= 0.0:
        return a, False
    vals, vecs = np.linalg.eigh(a)
    a = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    a = 0.5 * (a + a.conj().T)
    return a / float(np.trace(a).real), True


def mixture(weights, states):
    """rho = sum_i w_i |psi_i><psi_i| for classical weights over (possibly
    non-orthogonal) states, as a DensityMatrix: the library's state check
    rejects what is not a density matrix."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(states, dtype=complex).reshape(len(w), -1)
    # an infinite weight times a zero entry is NaN, which the state check
    # rejects; added in order from 0, so an entry that is -0.0 in every term
    # sums to +0.0
    with np.errstate(invalid="ignore"):
        terms = w[:, None, None] * (v[:, :, None] * v[:, None, :].conj())
    return DensityMatrix.from_matrix(np.sum(terms, axis=0, initial=0.0))


def expectation(rho, obs):
    """Tr(obs * rho) of a DensityMatrix and an observable, the imaginary part
    of the trace discarded."""
    return float(np.trace(np.asarray(obs) @ rho.matrix).real)


def hermiticity_defect(m):
    """||m - m^dag||_F: a float for a matrix, an array for a stack (..., d, d)."""
    a = np.asarray(m)
    defect = np.linalg.norm(a - a.swapaxes(-1, -2).conj(), axis=(-2, -1))
    return defect if defect.ndim else float(defect)


def unit_scaled_parts(m):
    """(m * unit, unit) as :func:`lindkit.matcore._unit_scaled` defines it,
    with the largest real and the largest imaginary part of each matrix
    reduced apart."""
    a = np.asarray(m)
    top = np.maximum(np.abs(a.real).max(axis=(-2, -1), initial=0.0),
                     np.abs(a.imag).max(axis=(-2, -1), initial=0.0))
    big = top > 1.0
    if not big.any():
        return a, 1.0
    unit = np.where(big, np.ldexp(1.0, -np.frexp(top)[1]), 1.0)
    return a * unit[..., None, None], unit


def hermitian_scaled(m, tol, unit=1.0):
    """The Hermiticity verdict of :func:`lindkit.matcore._is_hermitian`,
    taken for every matrix on its :func:`unit_scaled_parts` copy:
    ||a - a^dag||_F <= tol * max(unit * scale, ||a||_F) with a = m * scale.
    A bool for a matrix, a bool array for a stack (..., d, d); a NaN or
    infinite entry gives False."""
    # an infinite entry leaves its matrix unscaled, so the squares of its
    # finite entries may overflow, and it gives inf * 0 and inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        a, scale = unit_scaled_parts(m)
        defect = np.linalg.norm(a - np.swapaxes(a, -1, -2).conj(), axis=(-2, -1))
        ok = defect <= tol * np.maximum(unit * scale, np.linalg.norm(a, axis=(-2, -1)))
    return ok if ok.ndim else bool(ok)


def vn_entropy_single(mat):
    p = np.linalg.eigvalsh(mat)
    p = p[p > 0.0]
    return max(float(-np.sum(p * np.log(p))), 0.0)


def entropy_rate_single(mat, lindblads, tol_pos_strict=1e-12):
    p, v = np.linalg.eigh(mat)
    if p.min() <= tol_pos_strict:
        raise SingularState(
            f"entropy rate needs all eigenvalues > {tol_pos_strict:.0e}, "
            f"got minimum {p.min():.3e}"
        )
    lnp = np.log(p)
    rate = 0.0
    for l in lindblads:
        w = np.abs(v.conj().T @ l @ v) ** 2
        rate += float(np.sum(w.sum(axis=0) * p * lnp) - lnp @ w @ p)
    return rate


def expm_action_loop(a, t, v, norm1):
    """exp(t*a) @ v as Al-Mohy & Higham's Algorithm 3.2 writes the series:
    the plan of :func:`lindkit.matcore._taylor_plan` (one dense expm when
    the Taylor products cost more), then every term computes ||f||_inf for
    the stopping test c_{j-1} + c_j <= 2^-53 ||f||_inf."""
    k, products, dense = _taylor_plan(t, norm1, a.shape[0])
    if dense:
        return expm(a, t) @ v
    m = int(_TAYLOR_M[k])
    s = int(products) // m
    f = v
    for _ in range(s):
        term = f
        c1 = np.abs(term).max()
        for j in range(1, m + 1):
            term = (t / (s * j)) * (a @ term)
            c2 = np.abs(term).max()
            f = f + term
            if c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
    return f


def canonical_json_dumps(doc):
    """The canonical record form: sorted keys, two-space indent, strict JSON."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def choi_eigh(kernel):
    """(lambdas, kraus_like) of ``kernel``'s Choi matrix from one eigh: the
    eigenvalues descending, each eigenvector a (d, d) matrix whose first
    entry of largest modulus is made real positive."""
    vals, vecs = np.linalg.eigh(reshuffle(kernel.matrix, kernel.dim))
    order = np.argsort(vals)[::-1]
    rows = vecs.T[order]
    piv = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    rows *= (np.conj(piv) / np.hypot(piv.real, piv.imag))[:, None]
    return vals[order], rows.reshape(-1, kernel.dim, kernel.dim)


def reassemble(spectrum):
    """The kernel matrix sum_N lambda_N vec(E^N) vec(E^N)^dag of a
    ChoiSpectrum, in the superoperator ordering."""
    d = spectrum.kraus_like.shape[-1]
    rows = spectrum.kraus_like.reshape(d * d, d * d)
    return reshuffle((rows.T * spectrum.lambdas) @ rows.conj(), d)


def kernel_from_unitary_ensemble(unitary_sampler, tau, n_samples):
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


def gellmann_basis(dim):
    """The generalized Gell-Mann matrices for dimension ``dim``, as one
    (d^2 - 1, d, d) stack: the library's coordinate map of the unit vectors."""
    return gellmann.from_coords(np.eye(dim * dim)[:, 1:]).T.reshape(-1, dim, dim)


def gks_lindblad_ops(gks):
    """Lindblad operators sqrt(eta) sum_m w_m F_m, stacked, for the
    eigenpairs (eta, w) of a PSD c matrix with eta > TOL_OPERATOR;
    NotAGenerator when c has a negative eigenvalue beyond that."""
    vals, vecs = np.linalg.eigh(gks.c_matrix)
    if vals.min() < -TOL_OPERATOR * max(1.0, abs(vals).max()):
        raise NotAGenerator(
            f"c matrix has negative eigenvalue {vals.min():.3e}; not a CP generator"
        )
    keep = vals > TOL_OPERATOR
    coords = np.vstack([np.zeros((1, keep.sum())), vecs[:, keep] * np.sqrt(vals[keep])])
    return gellmann.from_coords(coords).T.reshape(-1, gks.dim, gks.dim)


def projectors(basis):
    """The (d, d, d) stack of a basis's projectors P_alpha, one outer product
    of column alpha of its unitary with itself each."""
    return np.array([np.outer(v, v.conj()) for v in basis.u.T])


def basis_from_projectors(vectors):
    """The unitary whose column alpha is vectors[alpha] as its projector
    P_alpha = v v^dag gives it back: column k of P_alpha over sqrt(P_kk), k
    the index of P_alpha's largest diagonal entry."""
    w = np.asarray(vectors, dtype=complex).reshape(len(vectors), -1)
    p = w[:, :, None] * w[:, None, :].conj()
    n = range(len(p))
    k = p.diagonal(axis1=1, axis2=2).real.argmax(axis=1)
    return (p[n, :, k] / np.sqrt(p[n, k, k].real)[:, None]).T
