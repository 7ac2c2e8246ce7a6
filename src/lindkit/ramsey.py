"""Ramsey interferometer for a driven two-level system.

A two-level state is a d = 2 DensityMatrix in the (e, g) basis everywhere:
its entries f_ee, f_eg, f_gg are the slowly varying coefficients, and the
pulse takes and returns that one type, as lindblad.evolve does.  The
interaction-picture RWA equations for a monochromatic drive
-U e^{-i w t} - U^dag e^{i w t} are

    i f_ee' =  conj(U) f_eg e^{+i dw t} - U f_ge e^{-i dw t}
    i f_gg' = -conj(U) f_eg e^{+i dw t} + U f_ge e^{-i dw t}
    i f_eg' =  U (f_ee - f_gg) e^{-i dw t}

with detuning dw = omega - (E_e - E_g) = RamseyConfig.delta_omega and
f_ge = conj(f_eg).  In the frame g = f_eg e^{i dw t} the system is an exact
precession of the Bloch vector (2 Re g~, 2 Im g~, f_ee - f_gg) about the axis
(2|U|, 0, dw) at angular rate 2*Omega, Omega^2 = dw^2/4 + |U|^2, which the
rotation works out from the same (dw, U); pulse_closed_form evaluates that
rotation directly (Rodrigues formula), the general closed-form solution, which
degrades gracefully to the identity in the Omega -> 0 limit (a removable
singularity: zero drive on resonance means nothing moves).

The three-segment protocol is pulse(tau) -> free flight(T) -> pulse(tau) from
the ground state.  In the standard theory f is constant during free flight;
in a linearly modified theory the coherence picks up e^{-lambda_tilde T}
(conjugate factor on f_ge, populations untouched).  That free flight is the
d = 2 Lindblad semigroup with H = Im(lt) |e><e| and L = sqrt(2 Re(lt)) |e><e|
(Re(lt) >= 0 is its complete positivity), and it has no function of its own
here: tests/test_ramsey.py::test_protocol_is_pulse_engine_flight_pulse checks
the fringe against pulse -> lindblad.evolve -> pulse.  Because the composed
excited-state fraction is exactly a single damped fringe in T,

    Pb_e(T) = A + e^{-Re(lt) T} [P cos(nu T) + Q sin(nu T)],
    nu = dw - Im(lt),

every quantity here is derived from those five constants, evaluated as arrays
over the detuning grid: the single-shot fraction is the fringe at t_free, and
the Gaussian transit-time average has an exact closed form, over the full
real line (a Gaussian integral) or over the physical T >= 0 window (the same
integral minus two bounded Faddeeva-function tails).  The Faddeeva function
w(z) = e^{-z^2} erfc(-iz) is :func:`_faddeeva`, Weideman's rational series
in numpy, and the window's weight takes math.erf, so the module imports no
scipy.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import records
from .errors import DimensionMismatch, Overflow, UnphysicalAverage
from .quantum import DensityMatrix


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

    @property
    def delta_omega(self) -> float:
        """The detuning dw = omega - (E_e - E_g)."""
        return self.omega - (self.e_e - self.e_g)

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
        """The config of a Ramsey document (the form :meth:`to_dict` writes,
        where ``u_eg_im`` and ``lambda_tilde_*`` default to 0): a missing or
        unknown key raises ConfigParse naming it, any other fault one naming
        ``ramsey``."""
        records.check_keys(doc, "ramsey",
                           {"e_g", "e_e", "u_eg_re", "omega", "tau", "t_free", "t0", "sigma"},
                           {"u_eg_im", "lambda_tilde_re", "lambda_tilde_im"})
        with records.within("ramsey"):
            x = {"u_eg_im": 0.0, "lambda_tilde_re": 0.0, "lambda_tilde_im": 0.0}
            x.update((key, records.field(doc, key, records.real)) for key in doc)
            return cls(x["e_g"], x["e_e"], complex(x["u_eg_re"], x["u_eg_im"]), x["omega"],
                       x["tau"], x["t_free"], x["t0"], x["sigma"],
                       complex(x["lambda_tilde_re"], x["lambda_tilde_im"]))


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


def _rotation(dw, u_eg: complex, tau):
    """Bloch-vector rotation of an RWA pulse of length tau (Rodrigues): angle
    2 Omega tau about the unit axis (2|U|, 0, dw) / (2 Omega), Omega the
    :func:`_rabi` of that drive.  Vectorized over dw, returning shape
    dw.shape + (3, 3); at Omega = 0 the rotation is the identity."""
    dw = np.asarray(dw, dtype=float)
    big_om = _rabi(dw, u_eg)
    den = np.where(big_om > 0, 2 * big_om, 1.0)
    nx, nz = 2 * abs(u_eg) / den, dw / den
    theta = 2 * big_om * tau
    c, s = np.cos(theta), np.sin(theta)
    k = 1 - c
    return np.stack([
        np.stack([c + k * nx * nx, -s * nz, k * nx * nz], axis=-1),
        np.stack([s * nz, c, -s * nx], axis=-1),
        np.stack([k * nx * nz, s * nx, c + k * nz * nz], axis=-1),
    ], axis=-2)


def pulse_closed_form(
    rho: DensityMatrix,
    tau: float,
    delta_omega: float,
    u_eg: complex,
    t_start: float = 0.0,
) -> DensityMatrix:
    """Exact RWA pulse solution over [t_start, t_start + tau] of a two-level
    state in the (e, g) basis under the drive (``delta_omega``, ``u_eg``);
    any other dimension raises DimensionMismatch, and a drive whose Omega
    overflows raises :func:`_rabi`'s Overflow.

    The start time matters because the lab-frame coefficients carry the
    explicit e^{+-i dw t} drive phases; fitting the general solution to the
    boundary at t_start is what produces the Ramsey fringe when segments are
    composed.  Reduces to the textbook ground-state pulse formulas when rho
    is the ground state at t_start = 0.  The pulse rotates the Bloch vector,
    which keeps Hermiticity, trace and spectrum, so the result is built with
    no check or repair, as :meth:`DensityMatrix.pure` builds its state.
    """
    if rho.dim != 2:
        raise DimensionMismatch(f"a Ramsey pulse acts on a two-level state, not d = {rho.dim}")
    phi = np.angle(u_eg)
    g = rho.matrix[0, 1] * np.exp(1j * (delta_omega * t_start - phi))
    x, y, z = _rotation(delta_omega, u_eg, tau) @ (
        2 * g.real, 2 * g.imag, 2 * rho.matrix[0, 0].real - 1.0
    )
    f_ee = (1.0 + z) / 2
    f_eg = (x + 1j * y) / 2 * np.exp(1j * (phi - delta_omega * (t_start + tau)))
    return DensityMatrix(np.array([[f_ee, f_eg], [np.conj(f_eg), 1.0 - f_ee]]))


def _fringe(config: RamseyConfig, theory: str, dw):
    """Fringe constants (A, P, Q, gamma, nu) at each detuning in ``dw``.

    The first pulse takes the ground state (0, 0, -1) to b = -R e_z with
    rotating-frame coherence g1 = (b_x + i b_y) / 2.  Free flight multiplies
    g1 by e^{(-gamma + i nu) T} and leaves b_z alone, and the second pulse
    is the same rotation R, so f_ee = (1 + R_z . b(T)) / 2 is one damped
    fringe whose constants come from the bottom row of R.
    """
    if theory not in ("standard", "modified"):
        raise ValueError(f"unknown theory {theory!r}")
    lam = config.lambda_tilde_eg if theory == "modified" else 0j
    dw = np.asarray(dw, dtype=float)
    r = _rotation(dw, config.u_eg, config.tau)
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
    Both factors of a tail are bounded for t0 + d >= 0 when sign Re z >= 0,
    which every tail below keeps; that is Im(sign i z) >= 0, the domain of
    :func:`_faddeeva`.
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
        return 0.5 * np.exp(kappa * (t0 + d) - (d / sig) ** 2) * _faddeeva(sign * 1j * z)

    if d_lo / sig + gamma * sig / 2 > 0.0:
        # Re z_lo > 0: the full-line term overflows here, so integrate
        # [lo, inf) minus [hi, inf) directly
        damped = tail(d_lo, 1) - tail(d_hi, 1)
    else:
        damped = np.exp(kappa * t0 + _spread(kappa, sig)) - tail(d_lo, -1) - tail(d_hi, 1)
    weight = (math.erf(d_hi / sig) - math.erf(d_lo / sig)) / 2
    avg = a + ((p - 1j * q) * damped).real / weight
    if not np.all(np.isfinite(avg)):
        raise Overflow("the transit-time average overflows double precision")
    return avg


# Weideman's series for w: N terms and the scale L = sqrt(N / sqrt(2)) his
# paper pairs with N (Weideman 1994, SIAM J. Numer. Anal. 31:1497)
_W_TERMS = 36
_W_SCALE = math.sqrt(_W_TERMS / math.sqrt(2))


@functools.cache
def _faddeeva_coefficients() -> np.ndarray:
    """a_1 ... a_N of p(Z) = sum_n a_n Z^{n-1}: Weideman's cosine
    coefficients of f(t) = e^{-t^2} (L^2 + t^2) on the 2M = 4N nodes
    t_k = L tan(theta_k / 2), theta_k = pi k / M, k = -M ... M - 1, that is
    a_n = sum_k f(t_k) cos(n theta_k) / 2M.  f(t_{-M}) = f(-inf) = 0 and f
    is even in k, so the sum is f(0) = L^2 plus twice the k = 1 ... M - 1
    terms.  A direct sum where Weideman's code takes an FFT, built on first
    use: importing the module does no work and loads no numpy.fft."""
    m = 2 * _W_TERMS
    theta = np.pi * np.arange(1, m) / m
    t = _W_SCALE * np.tan(theta / 2)
    f = np.exp(-t * t) * (_W_SCALE ** 2 + t * t)
    n = np.arange(1, _W_TERMS + 1)
    return (_W_SCALE ** 2 + 2 * (np.cos(np.outer(n, theta)) @ f)) / (2 * m)


def _faddeeva(z) -> np.ndarray:
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0, an array.

    Weideman's rational series: with L = sqrt(N / sqrt(2)),
    Z = (L + iz) / (L - iz), written 2L / (L - iz) - 1 so that an argument
    near the largest double still gives Z = -1, and
    w(z) = (2 p(Z) / (L - iz) + 1/sqrt(pi)) / (L - iz).  Im z >= 0 keeps |Z| <= 1,
    so the powers Z^0 ... Z^{N-1}, one cumprod, stay bounded; p is then one
    matrix-vector product.  Within 1e-13 relative of scipy's wofz over
    the upper half-plane, the real axis included (tests/test_ramsey.py); the
    lower half-plane is outside its domain, and _transit_average never
    reaches it.
    """
    z = np.asarray(z, dtype=complex)
    den = _W_SCALE - 1j * z
    powers = np.empty(z.shape + (_W_TERMS,), dtype=complex)
    powers[..., 0] = 1.0
    # |w| <= 1 here: an overflow is only inside a complex division by a
    # denominator near the largest double, whose quotient is 0; a NaN
    # argument gives NaN without a warning, as scipy's wofz does
    with np.errstate(over="ignore", invalid="ignore"):
        powers[..., 1:] = (2 * _W_SCALE / den - 1)[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        return (2 * (powers @ _faddeeva_coefficients()) / den + 1 / math.sqrt(math.pi)) / den


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
    const = _fringe(config, theory, config.delta_omega)
    return float(_fringe_at(*const, config.t_free))


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
    const = _fringe(config, theory, config.delta_omega)
    return float(_transit_average(*const, config.t0, config.sigma, truncate))


def point(config: RamseyConfig, theory: str = "standard",
          truncate: bool = False) -> tuple[float, float, float]:
    """(detuning, single-shot fraction, transit average) of ``config``: its
    :attr:`RamseyConfig.delta_omega`, :func:`protocol` and
    :func:`gaussian_fraction`, bit for bit, from one set of fringe constants."""
    dw = config.delta_omega
    const = _fringe(config, theory, dw)
    return (dw, float(_fringe_at(*const, config.t_free)),
            float(_transit_average(*const, config.t0, config.sigma, truncate)))


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


def detuning_grid(values) -> np.ndarray:
    """``values`` as a detuning grid, a float array; raises ValueError unless
    it is 1-d, non-empty, finite and ascending."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) < 0):
        raise ValueError("expected a non-empty ascending list of finite detunings")
    return grid


def scan(
    config: RamseyConfig,
    delta_omega_grid,
    theory: str = "standard",
    truncate: bool = False,
) -> ScanResult:
    """Sweep the detuning over a sorted finite grid; each point re-derives
    omega = (E_e - E_g) + delta and is independent of the others.  The whole
    grid is evaluated as arrays, so a clipped-window warning is issued once."""
    grid = detuning_grid(delta_omega_grid)
    # the detuning each point's config represents: omega = (E_e - E_g) + delta
    # rounds at the float grain, so this is the delta_omega of with_detuning
    w0 = config.e_e - config.e_g
    const = _fringe(config, theory, (w0 + grid) - w0)
    pb = _fringe_at(*const, config.t_free)
    avg = _transit_average(*const, config.t0, config.sigma, truncate)
    return ScanResult(grid, pb, avg, config, theory)
