"""Ramsey interferometer for a driven two-level system.

Basis ordering is (e, g) everywhere, matching the index order of the slowly
varying coefficient matrix f_ee, f_eg, f_gg.  The interaction-picture RWA
equations for a monochromatic drive -U e^{-i w t} - U^dag e^{i w t} are

    i f_ee' =  conj(U) f_eg e^{+i dw t} - U f_ge e^{-i dw t}
    i f_gg' = -conj(U) f_eg e^{+i dw t} + U f_ge e^{-i dw t}
    i f_eg' =  U (f_ee - f_gg) e^{-i dw t}

with detuning dw = omega - (E_e - E_g) and f_ge = conj(f_eg).  In the frame
g = f_eg e^{i dw t} the system is an exact precession of the Bloch vector
(2 Re g~, 2 Im g~, f_ee - f_gg) about the axis (2|U|, 0, dw) at angular rate
2*Omega, Omega^2 = dw^2/4 + |U|^2; pulse_closed_form evaluates that rotation
directly (Rodrigues formula), which is the general closed-form solution and
degrades gracefully to the identity in the Omega -> 0 limit (a removable
singularity: zero drive on resonance means nothing moves).

The three-segment protocol is pulse(tau) -> free flight(T) -> pulse(tau) from
the ground state.  In the standard theory f is constant during free flight;
in a linearly modified theory the coherence picks up e^{-lambda_tilde T}
(conjugate factor on f_ge, populations untouched).  Because the composed
excited-state fraction is exactly a single damped fringe in T,

    Pb_e(T) = A + e^{-Re(lt) T} [P cos(nu T) + Q sin(nu T)],
    nu = dw - Im(lt),

every quantity here is derived from those five constants, evaluated as arrays
over the detuning grid: the single-shot fraction is the fringe at t_free, and
the Gaussian transit-time average has an exact closed form, over the full
real line (a Gaussian integral) or over the physical T >= 0 window (the same
integral minus two bounded Faddeeva-function tails).
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .errors import Overflow, UnphysicalAverage


@dataclass
class RamseyConfig:
    """Drive and protocol parameters (rad/time units, hbar = 1)."""

    e_g: float
    e_e: float
    u_eg: complex
    omega: float
    tau: float
    t_free: float
    t0: float
    sigma: float
    lambda_tilde_eg: complex = 0.0

    def __post_init__(self):
        self.u_eg = complex(self.u_eg)
        self.lambda_tilde_eg = complex(self.lambda_tilde_eg)
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.e_e > self.e_g:
            raise ValueError("need E_e > E_g")
        for name in ("tau", "t_free", "t0", "sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.lambda_tilde_eg.real < 0:
            raise ValueError("Re(lambda_tilde_eg) must be nonnegative")

    def with_detuning(self, delta_omega: float) -> "RamseyConfig":
        return replace(self, omega=self.e_e - self.e_g + delta_omega)

    def to_dict(self) -> dict:
        return {
            "e_g": self.e_g,
            "e_e": self.e_e,
            "u_eg_re": self.u_eg.real,
            "u_eg_im": self.u_eg.imag,
            "omega": self.omega,
            "tau": self.tau,
            "t_free": self.t_free,
            "t0": self.t0,
            "sigma": self.sigma,
            "lambda_tilde_re": self.lambda_tilde_eg.real,
            "lambda_tilde_im": self.lambda_tilde_eg.imag,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RamseyConfig":
        return cls(
            e_g=float(doc["e_g"]),
            e_e=float(doc["e_e"]),
            u_eg=complex(float(doc["u_eg_re"]), float(doc.get("u_eg_im", 0.0))),
            omega=float(doc["omega"]),
            tau=float(doc["tau"]),
            t_free=float(doc["t_free"]),
            t0=float(doc["t0"]),
            sigma=float(doc["sigma"]),
            lambda_tilde_eg=complex(
                float(doc.get("lambda_tilde_re", 0.0)),
                float(doc.get("lambda_tilde_im", 0.0)),
            ),
        )


@dataclass
class RamseyDerived:
    delta_omega: float
    big_omega: float


def derive(config: RamseyConfig) -> RamseyDerived:
    """Detuning dw = omega - (E_e - E_g) and generalized Rabi frequency
    Omega = sqrt(dw^2/4 + |U|^2)."""
    dw = config.omega - (config.e_e - config.e_g)
    return RamseyDerived(dw, float(_rabi(dw, config.u_eg)))


def _rabi(dw, u_eg: complex):
    """sqrt(dw^2/4 + |U|^2), vectorized over dw; raises Overflow when the sum
    under the root leaves double precision (|dw| or |U| beyond ~1e154)."""
    try:
        with np.errstate(over="ignore"):
            big_om = np.sqrt(dw * dw / 4 + abs(u_eg) ** 2)
    except OverflowError:  # Python's float power and complex abs raise instead of giving inf
        big_om = np.inf
    if not np.all(np.isfinite(big_om)):
        raise Overflow("dw^2/4 + |U_eg|^2 overflows double precision")
    return big_om


@dataclass
class CoefficientMatrix:
    """Hermitian 2x2 slowly-varying coefficient matrix over (e, g)."""

    f: np.ndarray
    _tol: float = field(default=1e-9, repr=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=complex)
        if f.shape != (2, 2):
            raise ValueError("coefficient matrix must be 2x2")
        if abs(f[0, 1] - np.conj(f[1, 0])) > self._tol:
            raise ValueError("coefficient matrix must be Hermitian")
        if abs(f[0, 0].real + f[1, 1].real - 1.0) > 1e-10:
            raise ValueError("coefficient matrix must have unit trace")
        for p in (f[0, 0], f[1, 1]):
            if abs(p.imag) > self._tol or p.real < -1e-10 or p.real > 1 + 1e-10:
                raise ValueError("populations must be real in [0, 1]")
        self.f = f

    @classmethod
    def ground(cls) -> "CoefficientMatrix":
        return cls(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))

    @classmethod
    def from_components(cls, f_ee: float, f_eg: complex) -> "CoefficientMatrix":
        return cls(
            np.array([[f_ee, f_eg], [np.conj(f_eg), 1.0 - f_ee]], dtype=complex)
        )

    @property
    def f_ee(self) -> float:
        return float(self.f[0, 0].real)

    @property
    def f_gg(self) -> float:
        return float(self.f[1, 1].real)

    @property
    def f_eg(self) -> complex:
        return complex(self.f[0, 1])


def _rotation(dw, big_om, u_abs, tau):
    """Bloch-vector rotation of an RWA pulse of length tau (Rodrigues): angle
    2 Omega tau about the unit axis (2|U|, 0, dw) / (2 Omega).  Vectorized
    over dw and Omega, returning shape dw.shape + (3, 3); at Omega = 0 the
    angle vanishes and the rotation is the identity."""
    dw, big_om = np.asarray(dw, dtype=float), np.asarray(big_om, dtype=float)
    den = np.where(big_om > 0, 2 * big_om, 1.0)
    nx, nz = 2 * u_abs / den, dw / den
    theta = 2 * big_om * tau
    c, s = np.cos(theta), np.sin(theta)
    k = 1 - c
    return np.stack([
        np.stack([c + k * nx * nx, -s * nz, k * nx * nz], axis=-1),
        np.stack([s * nz, c, -s * nx], axis=-1),
        np.stack([k * nx * nz, s * nx, c + k * nz * nz], axis=-1),
    ], axis=-2)


def pulse_closed_form(
    f_init: CoefficientMatrix,
    tau: float,
    derived: RamseyDerived,
    u_eg: complex,
    t_start: float = 0.0,
) -> CoefficientMatrix:
    """Exact RWA pulse solution over [t_start, t_start + tau].

    The start time matters because the lab-frame coefficients carry the
    explicit e^{+-i dw t} drive phases; fitting the general solution to the
    boundary at t_start is what produces the Ramsey fringe when segments are
    composed.  Reduces to the textbook ground-state pulse formulas when
    f_init is the ground state at t_start = 0.
    """
    dw = derived.delta_omega
    phi = np.angle(u_eg)
    g = f_init.f_eg * np.exp(1j * (dw * t_start - phi))
    x, y, z = _rotation(dw, derived.big_omega, abs(u_eg), tau) @ (
        2 * g.real, 2 * g.imag, 2 * f_init.f_ee - 1.0
    )
    f_eg = (x + 1j * y) / 2 * np.exp(1j * (phi - dw * (t_start + tau)))
    return CoefficientMatrix.from_components((1.0 + z) / 2, f_eg)


def free_flight(
    f_after_pulse: CoefficientMatrix,
    t_flight: float,
    lambda_tilde_eg: complex,
    theory: str,
) -> CoefficientMatrix:
    """Segment 2.  Standard theory: f unchanged.  Modified theory: the
    coherence decays/rotates by e^{-lambda_tilde T} (conjugate factor on
    f_ge), populations untouched."""
    if theory not in ("standard", "modified"):
        raise ValueError(f"unknown theory {theory!r}")
    if t_flight < 0:
        raise ValueError("flight time must be nonnegative")
    if theory == "standard":
        return CoefficientMatrix(f_after_pulse.f.copy())
    factor = np.exp(-complex(lambda_tilde_eg) * t_flight)
    return CoefficientMatrix.from_components(
        f_after_pulse.f_ee, f_after_pulse.f_eg * factor
    )


def _correction(config: RamseyConfig, theory: str) -> complex:
    """The free-flight correction rate lambda_tilde_eg under ``theory``."""
    if theory not in ("standard", "modified"):
        raise ValueError(f"unknown theory {theory!r}")
    return config.lambda_tilde_eg if theory == "modified" else 0j


def _fringe(config: RamseyConfig, theory: str, dw):
    """Fringe constants (A, P, Q, gamma, nu) at each detuning in ``dw``.

    The first pulse takes the ground state (0, 0, -1) to b = -R e_z with
    rotating-frame coherence g1 = (b_x + i b_y) / 2.  Free flight multiplies
    g1 by e^{(-gamma + i nu) T} and leaves b_z alone, and the second pulse
    is the same rotation R, so f_ee = (1 + R_z . b(T)) / 2 is one damped
    fringe whose constants come from the bottom row of R.
    """
    lam = _correction(config, theory)
    dw = np.asarray(dw, dtype=float)
    r = _rotation(dw, _rabi(dw, config.u_eg), abs(config.u_eg), config.tau)
    bx, by, bz = -r[..., 0, 2], -r[..., 1, 2], -r[..., 2, 2]
    rzx, rzy, rzz = r[..., 2, 0], r[..., 2, 1], r[..., 2, 2]
    a = (1.0 + rzz * bz) / 2
    p = (rzx * bx + rzy * by) / 2
    q = (rzy * bx - rzx * by) / 2
    return a, p, q, lam.real, dw - lam.imag


def _fringe_at(a, p, q, gamma, nu, t):
    with np.errstate(over="ignore"):
        phase = nu * t
    if not np.all(np.isfinite(phase)):
        raise Overflow("the fringe phase nu * t overflows double precision")
    return a + np.exp(-gamma * t) * (p * np.cos(phase) + q * np.sin(phase))


def _transit_average(a, p, q, gamma, nu, t0, sig, truncate):
    """Gaussian transit-time average of the fringe; see gaussian_fraction.

    With kappa = -gamma + i nu the damped term is Re[(P - iQ) e^{kappa T}],
    whose weighted integral over the real line is
    e^{kappa t0 + kappa^2 sigma^2 / 4}, and over [t0 + d, inf) (sign +1) or
    (-inf, t0 + d] (sign -1) is (1/2) e^{kappa (t0 + d) - d^2 / sigma^2}
    w(sign i z), w the Faddeeva function and z = d / sigma - kappa sigma / 2.
    Both factors of a tail are bounded for t0 + d >= 0 when sign Re z >= 0.
    """
    if sig == 0.0:
        # delta-function transit distribution, truncated or not
        return _fringe_at(a, p, q, gamma, nu, t0)
    kappa = -gamma + 1j * nu
    if not truncate:
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.exp(kappa * t0 + _spread(kappa, sig))
            avg = a + ((p - 1j * q) * full).real
        if not np.all((avg >= -1e-9) & (avg <= 1 + 1e-9)):  # NaN fails too
            with np.errstate(over="ignore"):  # inf where a Python float power raises
                scale = gamma * np.float64(sig) ** 2 / 4
            raise UnphysicalAverage(
                "the full-line transit average leaves [0, 1]: the fringe's "
                f"continuation to T < 0 dominates (Re(lambda_tilde) sigma^2 / 4 = "
                f"{scale:.6g} vs T0 = {t0:.6g}); use truncate=True "
                "(CLI: --truncate-gaussian) for the physical T >= 0 average"
            )
        return avg

    if t0 - 8 * sig < 0.0:
        warnings.warn(
            "transit-time window clipped at T = 0; weight renormalized", stacklevel=3
        )
    # window offsets from t0, so a sigma below the float grain of t0 still
    # leaves a window of nonzero weight
    d_lo, d_hi = -min(8 * sig, t0), 8 * sig

    def tail(d, sign):
        z = d / sig - kappa * sig / 2
        return 0.5 * np.exp(kappa * (t0 + d) - (d / sig) ** 2) * special.wofz(
            sign * 1j * z
        )

    if d_lo / sig + gamma * sig / 2 > 0.0:
        # Re z_lo > 0: the full-line term overflows here, so integrate
        # [lo, inf) minus [hi, inf) directly
        damped = tail(d_lo, 1) - tail(d_hi, 1)
    else:
        damped = np.exp(kappa * t0 + _spread(kappa, sig)) - tail(d_lo, -1) - tail(d_hi, 1)
    weight = (special.erf(d_hi / sig) - special.erf(d_lo / sig)) / 2
    avg = a + ((p - 1j * q) * damped).real / weight
    if not np.all(np.isfinite(avg)):
        raise Overflow("the transit-time average overflows double precision")
    return avg


def _spread(kappa, sig):
    """kappa^2 sigma^2 / 4, the Gaussian weight's share of the exponent of the
    full-line term, with numpy's overflow to inf also at a single detuning,
    where Python's complex power raises instead: a real part of -inf (a
    fringe far faster than 1/sigma) damps the term to 0, as it should."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.complex128(kappa * sig) ** 2 / 4


def protocol(config: RamseyConfig, theory: str = "standard") -> float:
    """Excited-state probability after pulse -> free flight (t_free) -> pulse
    from the ground state, with equal pulse durations."""
    const = _fringe(config, theory, derive(config).delta_omega)
    return float(_fringe_at(*const, config.t_free))


def fringe_decomposition(config: RamseyConfig, theory: str):
    """Exact constants (A, P, Q, gamma, nu) of the composed fringe
    Pb_e(T) = A + e^{-gamma T} [P cos(nu T) + Q sin(nu T)]."""
    return tuple(float(c) for c in _fringe(config, theory, derive(config).delta_omega))


def gaussian_fraction(
    config: RamseyConfig,
    theory: str = "standard",
    truncate: bool = False,
) -> float:
    """Fraction of excited atoms averaged over the Gaussian transit-time
    distribution P(T) = exp(-(T - T0)^2 / sigma^2) / sqrt(pi sigma^2).

    The default integrates the fringe over the full real line, which is the
    documented closed form; it raises UnphysicalAverage when the damped
    fringe's continuation to T < 0 pushes that value out of [0, 1].
    ``truncate`` gives the physical variant: P(T) restricted to the window
    [max(T0 - 8 sigma, 0), T0 + 8 sigma] and renormalized over it, with a
    warning when the window is clipped at T = 0.  Both are exact.
    """
    const = _fringe(config, theory, derive(config).delta_omega)
    return float(_transit_average(*const, config.t0, config.sigma, truncate))


# ---------------------------------------------------------------------------
# Regime reference formulas (valid for |U_eg| >> |delta omega|)
# ---------------------------------------------------------------------------

def _strong_drive_fringe(config: RamseyConfig, theory: str):
    """Fringe constants in the |dw| << |U| limit: A = P = 1/2 sin^2(2 Omega tau),
    Q = 0."""
    der = derive(config)
    pref = 0.5 * np.sin(2 * der.big_omega * config.tau) ** 2
    lam = _correction(config, theory)
    return pref, pref, 0.0, lam.real, der.delta_omega - lam.imag


def pb_e_formula(config: RamseyConfig, theory: str = "standard") -> float:
    """Single-shot fringe formula 1/2 sin^2(2 Omega tau) [1 + e^{-Re(lt) T}
    cos((dw - Im(lt)) T)]; exact only in the strong-drive regime."""
    return float(_fringe_at(*_strong_drive_fringe(config, theory), config.t_free))


def pb_e_avg_formula(config: RamseyConfig, theory: str = "standard") -> float:
    """Gaussian-averaged fringe formula: the modified variant carries the
    damping e^{-Re(lt)(T0 - Re(lt) sigma^2/4)}, the fringe-center shift
    dw -> dw - Im(lt), and the effective time T0 - Re(lt) sigma^2/2."""
    const = _strong_drive_fringe(config, theory)
    return float(_transit_average(*const, config.t0, config.sigma, truncate=False))


# ---------------------------------------------------------------------------
# Detuning scans
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    """Rows of (delta_omega, single-shot Pb_e at t_free, Gaussian-averaged
    Pb_e), with the generating config and theory recorded."""

    delta_omegas: np.ndarray
    pb_e: np.ndarray
    pb_e_avg: np.ndarray
    config: RamseyConfig
    theory: str

    def argmax_avg(self) -> float:
        return float(self.delta_omegas[int(np.argmax(self.pb_e_avg))])

    def to_dict(self) -> dict:
        """The ``lindkit.scan/1`` document: theory, config and one row per
        detuning."""
        return {
            "schema": "lindkit.scan/1",
            "theory": self.theory,
            "config": self.config.to_dict(),
            "rows": [
                {"delta_omega": dw, "pb_e": p, "pb_e_avg": pa}
                for dw, p, pa in zip(
                    self.delta_omegas.tolist(), self.pb_e.tolist(), self.pb_e_avg.tolist()
                )
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def scan(
    config: RamseyConfig,
    delta_omega_grid,
    theory: str = "standard",
    truncate: bool = False,
) -> ScanResult:
    """Sweep the detuning over a sorted finite grid; each point re-derives
    omega = (E_e - E_g) + delta and is independent of the others.  The whole
    grid is evaluated as arrays, so a clipped-window warning is issued once."""
    grid = np.asarray(delta_omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("detuning grid must be a finite 1-d array")
    if np.any(np.diff(grid) < 0):
        raise ValueError("detuning grid must be sorted ascending")
    # the detuning each point's config represents: omega = (E_e - E_g) + delta
    # rounds at the float grain, exactly as with_detuning + derive would
    w0 = config.e_e - config.e_g
    const = _fringe(config, theory, (w0 + grid) - w0)
    pb = _fringe_at(*const, config.t_free)
    avg = _transit_average(*const, config.t0, config.sigma, truncate)
    return ScanResult(grid, pb, avg, config, theory)
