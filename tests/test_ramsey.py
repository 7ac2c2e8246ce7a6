import json
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindkit import (
    DensityMatrix,
    LindbladModel,
    ProjectorBasis,
    RamseyConfig,
    cli,
    decay_matrix,
    diagonal_solution,
    errors,
    evolve,
    gaussian_fraction,
    measurement_model,
    protocol,
    pulse_closed_form,
    ramsey,
    scan,
    spectrum,
)
from oracles import (
    _pulse_raw,
    full_ode,
    gaussian_fraction_quadrature,
    pb_e_avg_formula,
    pb_e_formula,
    rwa_ode,
)
from oracles import _rabi as textbook_rabi

E_G, E_E = 0.0, 100.0
W0 = E_E - E_G


@pytest.fixture(autouse=True, scope="module")
def faddeeva_arguments():
    """The size of every argument the transit average hands _faddeeva while
    this module's tests run, each checked on arrival to lie in its domain
    Im z >= 0."""
    sizes = []
    inner = ramsey._faddeeva

    def checked(z):
        z = np.asarray(z)
        assert np.all(z.imag >= 0), f"_faddeeva called below the real axis: {z[~(z.imag >= 0)]}"
        sizes.append(z.size)
        return inner(z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ramsey, "_faddeeva", checked)
        yield sizes


def make_config(u=0.25, dw=0.0, tau=None, t_free=20.0, t0=20.0, sigma=2.0, lam=0.0):
    u = complex(u)
    if tau is None:
        tau = np.pi / (4 * abs(u))  # 2*Omega*tau = pi/2 on resonance
    return RamseyConfig(E_G, E_E, u, W0 + dw, tau, t_free, t0, sigma, lam)


def flight_model(lam):
    """The modified free flight, f_eg -> e^{-lam T} f_eg with populations
    untouched, as the d = 2 Lindblad semigroup H = Im(lam) |e><e|,
    L = sqrt(2 Re(lam)) |e><e|."""
    lam, e = complex(lam), np.diag([1.0, 0.0])
    return LindbladModel(2, lam.imag * e, [np.sqrt(2 * lam.real) * e])


GROUND = DensityMatrix.pure([0.0, 1.0])  # the ground state over (e, g)


def free_flight(rho, t, lam):
    """``rho`` after a free flight of length t at rate lam, evolved by the
    Lindblad engine; lam = 0 is the standard theory's flight."""
    return evolve(flight_model(lam), rho, t)


def engine_protocol_at(config, theory, t):
    """Excited fraction after pulse -> engine free flight (t) -> pulse from
    the ground state."""
    dw = config.delta_omega
    lam = config.lambda_tilde_eg if theory == "modified" else 0.0
    rho = pulse_closed_form(GROUND, config.tau, dw, config.u_eg)
    rho = free_flight(rho, t, lam)
    rho = pulse_closed_form(rho, config.tau, dw, config.u_eg, t_start=config.tau + t)
    return rho.matrix[0, 0].real


def random_two_level(rng):
    """A random two-level state over (e, g), pure with probability 0."""
    f_ee = rng.uniform(0.0, 1.0)
    mag = np.sqrt(f_ee * (1 - f_ee)) * rng.uniform(0.0, 1.0)
    f_eg = mag * np.exp(2j * np.pi * rng.uniform())
    return DensityMatrix.from_matrix([[f_ee, f_eg], [np.conj(f_eg), 1 - f_ee]])


class TestDrive:
    def test_detuning_is_omega_less_the_level_gap(self):
        assert make_config(u=0.3, dw=0.0).delta_omega == 0.0
        cfg = RamseyConfig(0.1, E_E, 0.3, W0 + 0.8, 1.0, 1.0, 1.0, 0.0)
        assert cfg.delta_omega == (W0 + 0.8) - (E_E - 0.1)
        # omega = (E_e - E_g) + delta rounds at the float grain
        assert cfg.with_detuning(1e-14).delta_omega == ((E_E - 0.1) + 1e-14) - (E_E - 0.1)

    def test_rabi_on_resonance(self):
        assert ramsey._rabi(0.0, 0.3) == pytest.approx(0.3)
        assert ramsey._rabi(0.0, 0.3j) == pytest.approx(0.3)

    def test_rabi_without_drive(self):
        assert ramsey._rabi(0.8, 0.0) == pytest.approx(0.4)

    def test_rabi_detuned(self):
        om = ramsey._rabi(1.0, 0.5)
        assert om == pytest.approx(np.sqrt(2) * 0.5)
        assert om**2 == pytest.approx(1.0 / 4 + 0.25, rel=1e-14)
        assert ramsey._rabi(np.array([-1.0, 0.0, 1.0]), 0.5).tolist() == [
            ramsey._rabi(-1.0, 0.5), 0.5, om]

    @pytest.mark.parametrize("dw, u", [(1e300, 0.1), (0.0, 1e300), (np.array([0.0, 1e300]), 0.1),
                                       (0.0, complex(1e308, 1e308))])
    def test_rabi_beyond_double_precision_is_overflow(self, dw, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.Overflow, match="overflows double precision"):
                ramsey._rabi(dw, u)


class TestPulseClosedForm:
    def test_resonant_half_pulse_full_transfer(self):
        cfg = make_config(u=0.4)
        tau = np.pi / (2 * 0.4)  # Omega = |U| on resonance
        out = pulse_closed_form(GROUND, tau, cfg.delta_omega, cfg.u_eg)
        assert out.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_zero_duration(self, rng):
        f0 = random_two_level(rng)
        cfg = make_config(dw=0.7)
        out = pulse_closed_form(f0, 0.0, cfg.delta_omega, cfg.u_eg)
        assert np.allclose(out.matrix, f0.matrix)

    def test_zero_rabi_frequency_is_identity(self, rng):
        f0 = random_two_level(rng)
        out = pulse_closed_form(f0, 2.0, 0.0, 0.0)
        assert np.allclose(out.matrix, f0.matrix)

    def test_ground_start_textbook_formulas(self):
        u = 0.3 + 0.4j
        dw = 0.7
        om = textbook_rabi(dw, u)
        for tau in (0.3, 1.7, 4.0):
            out = pulse_closed_form(GROUND, tau, dw, u)
            fee = abs(u) ** 2 / om**2 * np.sin(om * tau) ** 2
            fgg = np.cos(om * tau) ** 2 + dw**2 / (4 * om**2) * np.sin(om * tau) ** 2
            feg = (
                1j * u / (2 * om)
                * np.exp(-1j * dw * tau)
                * (np.sin(2 * om * tau) + 1j * dw / om * np.sin(om * tau) ** 2)
            )
            assert out.matrix[0, 0].real == pytest.approx(fee, abs=1e-13)
            assert out.matrix[1, 1].real == pytest.approx(fgg, abs=1e-13)
            assert out.matrix[0, 1] == pytest.approx(feg, abs=1e-13)

    def test_matches_rk4_for_random_boundaries(self, rng):
        for _ in range(8):
            u = (rng.normal() + 1j * rng.normal()) * 0.5
            dw = rng.normal()
            om = textbook_rabi(dw, u)
            f0 = random_two_level(rng)
            tau = rng.uniform(0.2, 4.0)
            t_start = rng.uniform(0.0, 10.0)
            a = pulse_closed_form(f0, tau, dw, u, t_start=t_start)
            b = rwa_ode(f0, tau, dw, u, dt=1e-3 / max(om, 0.1), t_start=t_start)
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-8


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(0.0, 1.0),
    cos_polar=st.floats(-1.0, 1.0),
    azimuth=st.floats(0.0, 2 * np.pi),
    u=st.floats(0.01, 5.0),
    dw=st.floats(-5.0, 5.0),
    tau=st.floats(0.0, 20.0),
    t_start=st.floats(0.0, 20.0),
)
def test_pulse_is_unitary_on_mixed_states(r, cos_polar, azimuth, u, dw, tau, t_start):
    # a pulse rotates the Bloch vector (x, y, z), so rho's spectrum
    # (1 +- |(x, y, z)|) / 2 survives it, and so do Hermiticity and trace
    z = r * cos_polar
    xy = r * np.sqrt(1.0 - cos_polar**2) * np.exp(1j * azimuth)
    rho = DensityMatrix.from_matrix([[(1 + z) / 2, xy / 2], [np.conj(xy) / 2, (1 - z) / 2]])
    cfg = make_config(u=u, dw=dw, tau=tau)
    out = pulse_closed_form(rho, tau, cfg.delta_omega, cfg.u_eg, t_start=t_start)
    vals = np.linalg.eigvalsh([out.matrix, rho.matrix])
    assert np.max(np.abs(vals[0] - vals[1])) <= 1e-14
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-15
    assert np.array_equal(out.matrix, out.matrix.conj().T)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(0.0, 1.0),
    cos_polar=st.floats(-1.0, 1.0),
    azimuth=st.floats(0.0, 2 * np.pi),
    u_abs=st.floats(0.0, 5.0),
    u_phase=st.floats(-np.pi, np.pi),
    dw=st.floats(-5.0, 5.0),
    tau=st.floats(0.0, 20.0),
    t_start=st.floats(0.0, 20.0),
)
def test_pulse_of_a_drive_is_the_scalar_rotation(r, cos_polar, azimuth, u_abs, u_phase, dw,
                                                 tau, t_start):
    # the pulse takes the drive (dw, U) alone and works its Rabi frequency
    # out itself: it agrees with the oracle's scalar rotation, whose Omega is
    # the textbook formula, on mixed states and any phase of U, the zero
    # drive included, and keeps the input's spectrum
    z = r * cos_polar
    xy = r * np.sqrt(1.0 - cos_polar**2) * np.exp(1j * azimuth)
    rho = DensityMatrix.from_matrix([[(1 + z) / 2, xy / 2], [np.conj(xy) / 2, (1 - z) / 2]])
    u = u_abs * np.exp(1j * u_phase)
    out = pulse_closed_form(rho, tau, dw, u, t_start=t_start)
    assert np.max(np.abs(out.matrix - _pulse_raw(rho.matrix, tau, dw, u, t_start))) <= 1e-13
    vals = np.linalg.eigvalsh([out.matrix, rho.matrix])
    assert np.max(np.abs(vals[0] - vals[1])) <= 1e-14


def test_pulse_takes_only_a_two_level_state():
    cfg = make_config()
    with pytest.raises(errors.DimensionMismatch):
        pulse_closed_form(DensityMatrix(np.eye(3) / 3), cfg.tau, cfg.delta_omega, cfg.u_eg)
    # populations (0.5, 0.5) with coherence 0.9: eigenvalues -0.4 and 1.4
    with pytest.raises(errors.LindkitError):
        DensityMatrix.from_matrix([[0.5, 0.9], [0.9, 0.5]])


class TestRwaOde:
    def test_no_drive_is_constant(self, rng):
        f0 = random_two_level(rng)
        out = rwa_ode(f0, 3.0, 0.9, 0.0, dt=1e-3)
        assert np.max(np.abs(out.matrix - f0.matrix)) < 1e-12

    def test_resonant_pi_pulse(self):
        tau = np.pi / (2 * 0.4)  # Omega = |U| on resonance
        out = rwa_ode(GROUND, tau, 0.0, 0.4, dt=1e-3 / 0.4)
        assert out.matrix[0, 0].real == pytest.approx(1.0, abs=1e-8)

    def test_populations_bounded_along_trajectory(self):
        f = GROUND
        t = 0.0
        step = 0.25
        for _ in range(40):
            f = rwa_ode(f, step, 0.6, 0.4, dt=1e-3, t_start=t)
            t += step
            assert -1e-10 <= f.matrix[0, 0].real <= 1 + 1e-10

    def test_step_bound_enforced(self):
        with pytest.raises(errors.StepTooLarge):
            rwa_ode(GROUND, 1.0, 0.0, 2.0, dt=0.1)


class TestFullOde:
    def test_zero_drive_constant(self):
        times, traj = full_ode([E_E, E_G], np.zeros((2, 2)), W0, (0.0, 1.0), 0.05 / W0)
        assert np.max(np.abs(traj[-1] - traj[0])) < 1e-12

    def test_structural_hermiticity_and_trace(self):
        u = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
        times, traj = full_ode([E_E, E_G], u, W0, (0.0, 2.0), 0.05 / W0)
        for f in traj[:: len(traj) // 10]:
            assert np.linalg.norm(f - f.conj().T) < 1e-9
            assert abs(np.trace(f) - 1) < 1e-9

    def test_rwa_agreement_at_strong_scale_separation(self):
        # omega / |U| = 200, resonant, one Rabi period; symmetric (dipole)
        # drive so the counter-rotating term is actually present
        u_abs = W0 / 200.0
        u = u_abs * np.array([[0, 1], [1, 0]], dtype=complex)
        t_rabi = np.pi / u_abs
        times, traj = full_ode([E_E, E_G], u, W0, (0.0, t_rabi), 0.05 / W0)
        worst = 0.0
        for k in range(0, len(times), max(1, len(times) // 60)):
            rwa = pulse_closed_form(GROUND, times[k], 0.0, u_abs)
            worst = max(worst, abs(traj[k][0, 0].real - rwa.matrix[0, 0].real))
        assert worst <= 0.02


class TestFreeFlight:
    def test_zero_correction_matches_standard(self, rng):
        f0 = random_two_level(rng)
        # the standard flight leaves the state as it is
        b = free_flight(f0, 3.0, 0.0)
        assert np.allclose(f0.matrix, b.matrix)

    def test_real_rate_damps_coherence_only(self, rng):
        f0 = random_two_level(rng)
        gamma, t = 0.3, 2.0
        out = free_flight(f0, t, gamma)
        assert abs(out.matrix[0, 1]) == pytest.approx(abs(f0.matrix[0, 1]) * np.exp(-gamma * t))
        assert out.matrix[0, 0].real == pytest.approx(f0.matrix[0, 0].real)
        assert out.matrix[1, 1].real == pytest.approx(f0.matrix[1, 1].real)

    def test_imaginary_rate_shifts_phase_only(self, rng):
        f0 = random_two_level(rng)
        delta, t = 0.4, 3.0
        out = free_flight(f0, t, 1j * delta)
        assert abs(out.matrix[0, 1]) == pytest.approx(abs(f0.matrix[0, 1]))
        expected = f0.matrix[0, 1] * np.exp(-1j * delta * t)
        assert out.matrix[0, 1] == pytest.approx(expected)

    def test_hermiticity_preserved(self, rng):
        f0 = random_two_level(rng)
        out = free_flight(f0, 1.0, 0.2 + 0.5j)
        assert abs(out.matrix[0, 1] - np.conj(out.matrix[1, 0])) < 1e-14


class TestProtocol:
    def test_resonant_value(self):
        cfg = make_config(u=0.25, tau=1.1)
        om = 0.25  # |U| on resonance
        assert protocol(cfg) == pytest.approx(np.sin(2 * om * 1.1) ** 2, abs=1e-12)

    def test_fringe_node_in_regime(self):
        dw = 1e-6
        cfg = make_config(u=1.0, dw=dw, tau=0.61, t_free=np.pi / dw)
        assert protocol(cfg) == pytest.approx(0.0, abs=1e-10)

    def test_fully_damped_modified_fringe(self):
        cfg = make_config(u=1.0, dw=1e-7, tau=0.61, t_free=300.0, lam=0.1)
        om = textbook_rabi(cfg.delta_omega, cfg.u_eg)
        ref = 0.5 * np.sin(2 * om * 0.61) ** 2
        assert protocol(cfg, "modified") == pytest.approx(ref, rel=1e-8)

    def test_probability_bounds(self, rng):
        for _ in range(20):
            cfg = make_config(
                u=rng.uniform(0.1, 2.0),
                dw=rng.normal(),
                tau=rng.uniform(0.1, 5.0),
                t_free=rng.uniform(0.0, 40.0),
                lam=complex(rng.uniform(0, 0.3), rng.normal() * 0.3),
            )
            for theory in ("standard", "modified"):
                p = protocol(cfg, theory)
                assert -1e-9 <= p <= 1 + 1e-9


class TestGaussianFraction:
    def test_sigma_zero_is_single_shot(self):
        cfg = make_config(sigma=0.0, t0=13.0, t_free=13.0, dw=0.3)
        assert gaussian_fraction(cfg) == pytest.approx(protocol(cfg), abs=1e-14)

    def test_on_resonance_standard(self):
        cfg = make_config(u=0.25, tau=2.0, dw=0.0, sigma=3.0)
        om = 0.25  # |U| on resonance
        assert gaussian_fraction(cfg) == pytest.approx(
            np.sin(2 * om * 2.0) ** 2, abs=1e-12
        )

    def test_analytic_matches_quadrature(self, rng):
        for _ in range(4):
            cfg = make_config(
                u=rng.uniform(0.2, 1.0),
                dw=rng.normal() * 0.5,
                tau=rng.uniform(0.3, 3.0),
                t0=rng.uniform(5.0, 15.0),
                sigma=rng.uniform(0.5, 2.0),
                lam=complex(rng.uniform(0, 0.2), rng.normal() * 0.2),
            )
            for theory in ("standard", "modified"):
                a = gaussian_fraction(cfg, theory)
                q = gaussian_fraction_quadrature(cfg, theory)
                assert abs(a - q) < 1e-8

    def test_modified_continuous_at_zero_correction(self, rng):
        cfg = make_config(u=0.4, dw=0.6, sigma=2.5, lam=0.0)
        assert abs(
            gaussian_fraction(cfg, "modified") - gaussian_fraction(cfg, "standard")
        ) < 1e-12

    def test_truncation_warns_when_window_hits_zero(self):
        cfg = make_config(t0=1.0, sigma=2.0, dw=0.2)
        with pytest.warns(UserWarning):
            truncated = gaussian_fraction(cfg, truncate=True)
        assert -1e-9 <= truncated <= 1 + 1e-9

    def test_truncated_closed_form_matches_quadrature(self, rng):
        for k in range(24):
            sigma = rng.uniform(0.3, 6.0)
            t0 = rng.uniform(0.0, 3.0 * sigma) if k % 3 == 0 else rng.uniform(8.0, 20.0)
            gamma = rng.uniform(0.0, 0.3)
            if k % 3 == 1:  # damping shift gamma sigma^2 / 2 beyond t0
                gamma = 2 * t0 / sigma**2 * rng.uniform(1.1, 3.0)
            cfg = make_config(
                u=rng.uniform(0.1, 2.0) * np.exp(2j * np.pi * rng.uniform()),
                dw=rng.normal() * 0.7,
                tau=rng.uniform(0.1, 4.0),
                t0=t0,
                sigma=sigma,
                lam=complex(gamma, rng.normal() * 0.3),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # clipped windows warn
                for theory in ("standard", "modified"):
                    a = gaussian_fraction(cfg, theory, truncate=True)
                    q = gaussian_fraction_quadrature(cfg, theory, truncate=True)
                    assert abs(a - q) <= 1e-10

    def test_full_line_average_beyond_range_raises(self):
        # Re(lambda_tilde) sigma^2 / 4 far above T0: the continuation to
        # T < 0 overflows the full-line value
        cfg = make_config(u=0.4, dw=0.1, t0=50.0, sigma=50.0, lam=5.0 + 0.05j)
        with pytest.raises(errors.UnphysicalAverage, match="truncate=True"):
            gaussian_fraction(cfg, "modified")
        with pytest.raises(errors.UnphysicalAverage):
            scan(cfg, np.linspace(-0.1, 0.1, 5), "modified")
        with pytest.warns(UserWarning):
            truncated = gaussian_fraction(cfg, "modified", truncate=True)
        assert 0.0 <= truncated <= 1.0
        ref = gaussian_fraction_quadrature(cfg, "modified", truncate=True)
        assert abs(truncated - ref) <= 1e-10


class TestRegimeFormulas:
    def test_single_shot_formula_in_regime(self):
        dw = 1e-4
        cfg = make_config(u=1.0, dw=dw, tau=0.61, t_free=2 * np.pi / dw)
        assert protocol(cfg) == pytest.approx(pb_e_formula(cfg), rel=(dw) ** 2 * 4)

    def test_averaged_formula_in_regime(self):
        # fringe maxima (nu * t0 a full period) cancel the quadrature term the
        # strong-drive formula drops, leaving the O((dw/u)^2) regime error
        dw = 1e-4
        cfg = make_config(u=1.0, dw=dw, tau=0.61,
                          t0=2 * np.pi / dw, t_free=2 * np.pi / dw, sigma=30.0,
                          lam=2e-6)
        for theory in ("standard", "modified"):
            got = gaussian_fraction(cfg, theory)
            ref = pb_e_avg_formula(cfg, theory)
            assert got == pytest.approx(ref, rel=1e-6)


class TestScan:
    def test_requires_sorted_grid(self):
        with pytest.raises(ValueError):
            scan(make_config(), [0.3, -0.3])

    def test_standard_peak_at_zero(self):
        grid = np.linspace(-0.5, 0.5, 101)
        res = scan(make_config(u=0.25, t_free=20.0, t0=20.0, sigma=2.0), grid)
        assert abs(res.argmax_avg()) <= (grid[1] - grid[0]) + 1e-12

    def test_modified_peak_shifted(self):
        lam = complex(0.01, 0.06)
        grid = np.linspace(-0.5, 0.5, 251)  # step 0.004
        cfg = make_config(u=0.25, t_free=20.0, t0=20.0, sigma=2.0, lam=lam)
        res = scan(cfg, grid, "modified")
        assert abs(res.argmax_avg() - lam.imag) <= 2 * (grid[1] - grid[0])

    def test_standard_average_is_even(self):
        cfg = make_config(u=0.3, t_free=11.0, t0=11.0, sigma=1.5)
        for dw in (0.05, 0.21, 0.4):
            left = gaussian_fraction(cfg.with_detuning(-dw))
            right = gaussian_fraction(cfg.with_detuning(dw))
            assert abs(left - right) < 1e-12

    def test_rows_equal_scalar_evaluation(self):
        cfg = make_config(u=0.3, tau=2.1, t_free=9.0, t0=3.0, sigma=2.0,
                          lam=0.04 + 0.1j)
        grid = np.linspace(-0.6, 0.6, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # t0 < 8 sigma: clipped window
            for theory in ("standard", "modified"):
                for truncate in (False, True):
                    res = scan(cfg, grid, theory, truncate=truncate)
                    for dw, p, pa in zip(grid, res.pb_e, res.pb_e_avg):
                        point = cfg.with_detuning(dw)
                        assert p == pytest.approx(protocol(point, theory), abs=1e-15)
                        assert pa == pytest.approx(
                            gaussian_fraction(point, theory, truncate=truncate),
                            abs=1e-15,
                        )

    def test_clipped_window_warns_once_per_scan(self):
        cfg = make_config(t0=1.0, sigma=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scan(cfg, np.linspace(-0.2, 0.2, 11), truncate=True)
        assert [str(w.message) for w in caught] == [
            "transit-time window clipped at T = 0; weight renormalized"
        ]

    def test_rows_and_bounds(self):
        grid = np.linspace(-0.2, 0.2, 21)
        res = scan(make_config(), grid, "standard")
        assert res.delta_omegas.shape == res.pb_e.shape == res.pb_e_avg.shape
        assert np.all(res.pb_e >= -1e-9) and np.all(res.pb_e <= 1 + 1e-9)
        assert np.all(res.pb_e_avg >= -1e-9) and np.all(res.pb_e_avg <= 1 + 1e-9)

    def test_csv_and_json_serialization(self, tmp_path, capsys):
        # the CSV form of a scan is the CLI's, and its JSON record holds the
        # scan's bits
        grid = np.linspace(-0.1, 0.1, 5)
        res = scan(make_config(), grid)
        config, out = tmp_path / "scan.json", tmp_path / "scan.csv"
        config.write_text(json.dumps({"ramsey": res.config.to_dict(), "theory": "standard",
                                      "grid": {"values": grid.tolist()}}))
        assert cli.main(["ramsey-scan", "--config", str(config), "--format", "csv",
                         "--out", str(out)]) == 0
        csv = out.read_text()
        assert csv.splitlines()[0] == "delta_omega,pb_e,pb_e_avg"
        assert len(csv.splitlines()) == 6
        assert cli.main(["ramsey-scan", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["schema"] == "lindkit.scan/1" and doc["theory"] == "standard"
        assert doc["config"] == res.config.to_dict()
        _assert_rows_hold_the_bits_of(doc["rows"], res)

    def test_default_record_holds_both_scans_on_one_grid(self, capsys):
        assert cli.main(["ramsey-scan"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        for name, theory in (("fig1", "standard"), ("fig2", "modified")):
            doc = json.loads(cli.bundled_config_path(name).read_text())
            cfg, _, grid = cli._parse_ramsey(doc, required={"grid"})
            _assert_rows_hold_the_bits_of(result[theory]["rows"], scan(cfg, grid, theory))
        std, mod = (np.array([row["delta_omega"] for row in result[theory]["rows"]])
                    for theory in ("standard", "modified"))
        np.testing.assert_array_equal(std.view(np.int64), mod.view(np.int64))


def _assert_rows_hold_the_bits_of(rows, res):
    """Each column of a scan record's rows has the bits of ``res``'s array."""
    assert len(rows) == len(res.delta_omegas)
    for key, column in (("delta_omega", res.delta_omegas), ("pb_e", res.pb_e),
                        ("pb_e_avg", res.pb_e_avg)):
        np.testing.assert_array_equal(np.array([row[key] for row in rows]).view(np.int64),
                                      column.view(np.int64))


class TestCorrectionConsistency:
    def test_free_flight_matches_diagonal_solution(self, rng):
        # the two-level free-flight factor must agree with the diagonal-model
        # closed form for the same coefficients (h = 0 removes energy phases)
        basis = ProjectorBasis.computational(2)
        l = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        model = measurement_model(basis, l, np.zeros(2))
        dm = decay_matrix(model)
        lam_eg = complex(dm.lambdas_tilde[0, 1])
        f0 = random_two_level(rng)
        for t in (0.4, 1.9):
            via_ramsey = free_flight(f0, t, lam_eg)
            via_lindblad = diagonal_solution(dm, f0, t)
            assert np.linalg.norm(via_ramsey.matrix - via_lindblad.matrix) < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(0.0, 2.0),
    shift=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 20.0),
    dw=st.floats(-5.0, 5.0),
    u=st.floats(0.01, 5.0),
    tau=st.floats(0.0, 20.0),
)
def test_protocol_is_pulse_engine_flight_pulse(gamma, shift, t, dw, u, tau):
    # the fringe's closed form against its segments, the free flight evolved
    # by the Lindblad engine; the engine's Taylor steps lose accuracy as an
    # undamped coherence turns, so the gap grows with |Im(lambda)| T and a
    # wider T needs a tolerance that scales with it
    cfg = make_config(u=u, dw=dw, tau=tau, t_free=t, lam=complex(gamma, shift))
    for theory in ("standard", "modified"):
        assert abs(protocol(cfg, theory) - engine_protocol_at(cfg, theory, t)) <= 1e-13


@pytest.mark.parametrize("cfg", [
    make_config(u=0.4, dw=0.1, t0=30.0, sigma=4.0, lam=0.05 + 0.02j),
    make_config(u=1.3, dw=-0.7, tau=0.9, t0=3.0, sigma=2.0, lam=0.3 - 0.4j),
    make_config(u=0.2, dw=0.05, tau=5.0, t0=12.0, sigma=1.0, lam=1.5 + 0.1j),
], ids=["window-inside", "window-clipped", "strong-damping"])
def test_truncated_average_is_the_window_quadrature_of_the_engine_fraction(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clipped window warns
        for theory in ("standard", "modified"):
            got = gaussian_fraction(cfg, theory, truncate=True)
            ref = gaussian_fraction_quadrature(cfg, theory, truncate=True,
                                               at=engine_protocol_at)
            assert abs(got - ref) <= 1e-8


def _assert_modes(spec, lam, atol):
    """spec's modes are 0, 0, lam and conj(lam), each within atol, and the
    lam pair is classed by Re(lam) against the spectrum's tol."""
    got = list(spec.mus)
    for mu in (0.0, 0.0, lam, lam.conjugate()):
        k = int(np.argmin(np.abs(np.array(got) - mu)))
        assert abs(got.pop(k) - mu) <= atol
    assert not got
    pair = "decaying" if lam.real > spec.tol else "stationary"
    for mu, c in zip(spec.mus, spec.classifications):
        assert c == ("stationary" if abs(mu) <= atol else pair)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gamma=st.just(0.0) | st.floats(0.0, 2.0), shift=st.just(0.0) | st.floats(-2.0, 2.0))
def test_free_flight_spectrum_is_zero_zero_and_the_rate_pair(gamma, shift):
    # rates inside general_eig's cluster tolerance of 0 or of their own
    # conjugate are the next test's
    assume(gamma == shift == 0.0 or abs(complex(gamma, shift)) >= 1e-7)
    assume(shift == 0.0 or abs(shift) >= 1e-7)
    lam = complex(gamma, shift)
    _assert_modes(spectrum(flight_model(lam)), lam, 1e-12)


@pytest.mark.parametrize("lam", [1e-9, 1e-9j, 1 + 1e-9j, 1e-12, 1e-30 * (1 + 1j)])
def test_free_flight_spectrum_of_near_degenerate_rates(lam):
    # eigenvalues within the cluster tolerance 1e-8 max(1, ||R||_2) of each
    # other are one cluster at their mean, a normal one whose spread sets
    # ||R - mu I|| included
    _assert_modes(spectrum(flight_model(lam)), complex(lam), 1e-8 * max(1.0, abs(lam)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    u=st.floats(0.01, 5.0),
    dw=st.floats(-5.0, 5.0),
    tau=st.floats(0.0, 20.0),
    t=st.floats(0.0, 1e4),
    gamma=st.floats(0.0, 2.0),
    shift=st.floats(-2.0, 2.0),
    sigma=st.floats(0.0, 30.0),
)
def test_fringe_and_truncated_average_stay_in_unit_interval(
    u, dw, tau, t, gamma, shift, sigma
):
    cfg = make_config(u=u, dw=dw, tau=tau, t_free=t, t0=t, sigma=sigma,
                      lam=complex(gamma, shift))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clipped windows warn
        for theory in ("standard", "modified"):
            assert -1e-12 <= protocol(cfg, theory) <= 1 + 1e-12
            assert -1e-12 <= gaussian_fraction(cfg, theory, truncate=True) <= 1 + 1e-12


def _upper_half_plane(rng, n):
    """Seeded points of Im z >= 0: uniform boxes from [-1, 1] x [0, 12] up to
    [-1e8, 1e8] x [0, 1e8], magnitudes 1e-300 ... 1e300 at uniform angles in
    [0, pi], and the real axis, linear and at magnitudes 1e-300 ... 1e300."""
    boxes = [(1.0, 12.0), (10.0, 10.0), (1e2, 1e2), (1e4, 1e4), (1e8, 1e8)]
    parts = [rng.uniform(-re, re, n) + 1j * rng.uniform(0.0, im, n) for re, im in boxes]
    parts.append(10.0 ** rng.uniform(-300, 300, n) * np.exp(1j * rng.uniform(0, np.pi, n)))
    parts.append(rng.uniform(-30.0, 30.0, n) + 0j)
    parts.append(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n) + 0j)
    return np.concatenate(parts)


def test_faddeeva_matches_wofz_over_the_upper_half_plane(rng):
    z = np.r_[_upper_half_plane(rng, 4000),
              0.0, 1e300j, 1e308j, 1.7e308, -1.7e308, 1e300 + 1e300j, -1e300 + 1e-300j,
              1e308 + 1e308j, -1.7e308 + 1.7e308j]
    ref = scipy.special.wofz(z)
    assert np.all(np.abs(ramsey._faddeeva(z) - ref) <= 1e-13 * np.abs(ref))


def test_faddeeva_matches_mpmath_at_40_digits(rng):
    # w(z) = exp(-z^2) erfc(-iz), the definition, at up to about 1 ms a point
    z = np.r_[10.0 ** rng.uniform(-3, 4, 130) * np.exp(1j * rng.uniform(0, np.pi, 130)),
              rng.uniform(-1.0, 1.0, 10) + 1j * rng.uniform(0.0, 12.0, 10),
              rng.uniform(-30.0, 30.0, 10) + 0j]
    with mpmath.workdps(40):
        ref = np.array([complex(mpmath.exp(-mpmath.mpc(x) ** 2) * mpmath.erfc(-1j * mpmath.mpc(x)))
                        for x in z])
    assert np.all(np.abs(ramsey._faddeeva(z) - ref) <= 1e-13 * np.abs(ref))


def test_every_faddeeva_argument_lies_in_the_upper_half_plane(faddeeva_arguments):
    # both branches of the truncated average, at each sign of the detuning:
    # [lo, inf) minus [hi, inf) where Re z_lo > 0, the full line minus both
    # tails otherwise; the fixture checks each argument as it arrives
    before = len(faddeeva_arguments)
    configs = [make_config(t0=1.0, sigma=2.0, lam=5.0 + 0.3j),
               make_config(u=1.3, dw=-0.7, tau=0.9, t0=3.0, sigma=2.0, lam=0.3 - 0.4j),
               make_config(t0=30.0, sigma=4.0, lam=0.05 + 0.02j)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clipped windows warn
        for cfg in configs:
            for theory in ("standard", "modified"):
                scan(cfg, np.linspace(-2.0, 2.0, 9), theory, truncate=True)
    assert len(faddeeva_arguments) == before + 2 * len(configs) * 2
    assert sum(faddeeva_arguments[before:]) == 9 * len(faddeeva_arguments[before:])


def test_window_weight_erf_matches_scipy(rng):
    # the weight reads erf at 8 and at -min(8 sigma, t0) / sigma in [-8, 0]:
    # the ends below are those of this module's truncated averages, and a
    # seeded sweep of the rest
    ends = np.r_[8.0, -8.0, -1.5, -1.0, -0.5, 0.0, rng.uniform(-8.0, 0.0, 2000)]
    ref = scipy.special.erf(ends)
    got = np.array([math.erf(x) for x in ends])
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
