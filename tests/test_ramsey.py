import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindkit import (
    CoefficientMatrix,
    DensityMatrix,
    ProjectorBasis,
    RamseyConfig,
    cli,
    decay_matrix,
    derive,
    diagonal_solution,
    errors,
    free_flight,
    gaussian_fraction,
    measurement_model,
    protocol,
    pulse_closed_form,
    scan,
)
from lindkit.ramsey import fringe_decomposition, pb_e_avg_formula, pb_e_formula
from oracles import full_ode, gaussian_fraction_quadrature, rwa_ode

E_G, E_E = 0.0, 100.0
W0 = E_E - E_G


def make_config(u=0.25, dw=0.0, tau=None, t_free=20.0, t0=20.0, sigma=2.0, lam=0.0):
    u = complex(u)
    if tau is None:
        tau = np.pi / (4 * abs(u))  # 2*Omega*tau = pi/2 on resonance
    return RamseyConfig(E_G, E_E, u, W0 + dw, tau, t_free, t0, sigma, lam)


def random_coefficients(rng):
    f_ee = rng.uniform(0.0, 1.0)
    mag = np.sqrt(f_ee * (1 - f_ee)) * rng.uniform(0.0, 1.0)
    f_eg = mag * np.exp(2j * np.pi * rng.uniform())
    return CoefficientMatrix.from_components(f_ee, f_eg)


class TestDerive:
    def test_on_resonance(self):
        der = derive(make_config(u=0.3, dw=0.0))
        assert der.delta_omega == 0.0
        assert der.big_omega == pytest.approx(0.3)

    def test_no_drive(self):
        cfg = RamseyConfig(E_G, E_E, 0.0, W0 + 0.8, 1.0, 1.0, 1.0, 0.0)
        assert derive(cfg).big_omega == pytest.approx(0.4)

    def test_detuned(self):
        der = derive(make_config(u=0.5, dw=1.0))
        assert der.big_omega == pytest.approx(np.sqrt(2) * 0.5)
        assert der.big_omega**2 == pytest.approx(
            der.delta_omega**2 / 4 + 0.25, rel=1e-14
        )


class TestPulseClosedForm:
    def test_resonant_half_pulse_full_transfer(self):
        cfg = make_config(u=0.4)
        der = derive(cfg)
        tau = np.pi / (2 * der.big_omega)
        out = pulse_closed_form(CoefficientMatrix.ground(), tau, der, cfg.u_eg)
        assert out.f_ee == pytest.approx(1.0, abs=1e-12)

    def test_zero_duration(self, rng):
        f0 = random_coefficients(rng)
        cfg = make_config(dw=0.7)
        out = pulse_closed_form(f0, 0.0, derive(cfg), cfg.u_eg)
        assert np.allclose(out.f, f0.f)

    def test_zero_rabi_frequency_is_identity(self, rng):
        f0 = random_coefficients(rng)
        cfg = RamseyConfig(E_G, E_E, 0.0, W0, 1.3, 1.0, 1.0, 0.0)
        out = pulse_closed_form(f0, 2.0, derive(cfg), 0.0)
        assert np.allclose(out.f, f0.f)

    def test_ground_start_textbook_formulas(self):
        u = 0.3 + 0.4j
        dw = 0.7
        cfg = make_config(u=u, dw=dw)
        der = derive(cfg)
        om = der.big_omega
        for tau in (0.3, 1.7, 4.0):
            out = pulse_closed_form(CoefficientMatrix.ground(), tau, der, u)
            fee = abs(u) ** 2 / om**2 * np.sin(om * tau) ** 2
            fgg = np.cos(om * tau) ** 2 + dw**2 / (4 * om**2) * np.sin(om * tau) ** 2
            feg = (
                1j * u / (2 * om)
                * np.exp(-1j * dw * tau)
                * (np.sin(2 * om * tau) + 1j * dw / om * np.sin(om * tau) ** 2)
            )
            assert out.f_ee == pytest.approx(fee, abs=1e-13)
            assert out.f_gg == pytest.approx(fgg, abs=1e-13)
            assert out.f_eg == pytest.approx(feg, abs=1e-13)

    def test_matches_rk4_for_random_boundaries(self, rng):
        for _ in range(8):
            u = (rng.normal() + 1j * rng.normal()) * 0.5
            dw = rng.normal()
            cfg = RamseyConfig(E_G, E_E, u, W0 + dw, 1.0, 1.0, 1.0, 0.0)
            der = derive(cfg)
            f0 = random_coefficients(rng)
            tau = rng.uniform(0.2, 4.0)
            t_start = rng.uniform(0.0, 10.0)
            a = pulse_closed_form(f0, tau, der, u, t_start=t_start)
            b = rwa_ode(f0, tau, der, u, dt=1e-3 / max(der.big_omega, 0.1),
                        t_start=t_start)
            assert np.max(np.abs(a.f - b.f)) < 1e-8


class TestRwaOde:
    def test_no_drive_is_constant(self, rng):
        f0 = random_coefficients(rng)
        cfg = RamseyConfig(E_G, E_E, 0.0, W0 + 0.9, 1.0, 1.0, 1.0, 0.0)
        out = rwa_ode(f0, 3.0, derive(cfg), 0.0, dt=1e-3)
        assert np.max(np.abs(out.f - f0.f)) < 1e-12

    def test_resonant_pi_pulse(self):
        cfg = make_config(u=0.4)
        der = derive(cfg)
        tau = np.pi / (2 * der.big_omega)
        out = rwa_ode(CoefficientMatrix.ground(), tau, der, cfg.u_eg,
                      dt=1e-3 / der.big_omega)
        assert out.f_ee == pytest.approx(1.0, abs=1e-8)

    def test_populations_bounded_along_trajectory(self):
        cfg = make_config(u=0.4, dw=0.6)
        der = derive(cfg)
        f = CoefficientMatrix.ground()
        t = 0.0
        step = 0.25
        for _ in range(40):
            f = rwa_ode(f, step, der, cfg.u_eg, dt=1e-3, t_start=t)
            t += step
            assert -1e-10 <= f.f_ee <= 1 + 1e-10

    def test_step_bound_enforced(self):
        cfg = make_config(u=2.0)
        with pytest.raises(errors.StepTooLarge):
            rwa_ode(CoefficientMatrix.ground(), 1.0, derive(cfg), cfg.u_eg, dt=0.1)


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
        cfg = make_config(u=u_abs)
        der = derive(cfg)
        worst = 0.0
        for k in range(0, len(times), max(1, len(times) // 60)):
            rwa = pulse_closed_form(CoefficientMatrix.ground(), times[k], der, u_abs)
            worst = max(worst, abs(traj[k][0, 0].real - rwa.f_ee))
        assert worst <= 0.02


class TestFreeFlight:
    def test_zero_correction_matches_standard(self, rng):
        f0 = random_coefficients(rng)
        a = free_flight(f0, 3.0, 0.0, "standard")
        b = free_flight(f0, 3.0, 0.0, "modified")
        assert np.allclose(a.f, b.f)

    def test_real_rate_damps_coherence_only(self, rng):
        f0 = random_coefficients(rng)
        gamma, t = 0.3, 2.0
        out = free_flight(f0, t, gamma, "modified")
        assert abs(out.f_eg) == pytest.approx(abs(f0.f_eg) * np.exp(-gamma * t))
        assert out.f_ee == pytest.approx(f0.f_ee)
        assert out.f_gg == pytest.approx(f0.f_gg)

    def test_imaginary_rate_shifts_phase_only(self, rng):
        f0 = random_coefficients(rng)
        delta, t = 0.4, 3.0
        out = free_flight(f0, t, 1j * delta, "modified")
        assert abs(out.f_eg) == pytest.approx(abs(f0.f_eg))
        expected = f0.f_eg * np.exp(-1j * delta * t)
        assert out.f_eg == pytest.approx(expected)

    def test_hermiticity_preserved(self, rng):
        f0 = random_coefficients(rng)
        out = free_flight(f0, 1.0, 0.2 + 0.5j, "modified")
        assert abs(out.f[0, 1] - np.conj(out.f[1, 0])) < 1e-14


class TestProtocol:
    def test_resonant_value(self):
        cfg = make_config(u=0.25, tau=1.1)
        om = derive(cfg).big_omega
        assert protocol(cfg) == pytest.approx(np.sin(2 * om * 1.1) ** 2, abs=1e-12)

    def test_fringe_node_in_regime(self):
        dw = 1e-6
        cfg = make_config(u=1.0, dw=dw, tau=0.61, t_free=np.pi / dw)
        assert protocol(cfg) == pytest.approx(0.0, abs=1e-10)

    def test_fully_damped_modified_fringe(self):
        cfg = make_config(u=1.0, dw=1e-7, tau=0.61, t_free=300.0, lam=0.1)
        om = derive(cfg).big_omega
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
        om = derive(cfg).big_omega
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

    def test_fringe_decomposition_reproduces_protocol(self, rng):
        # against the segment-by-segment composition of the public pieces
        cfg = make_config(u=0.7, dw=0.9, tau=1.3, lam=0.05 + 0.12j)
        der = derive(cfg)
        for theory in ("standard", "modified"):
            a, p, q, g, nu = fringe_decomposition(cfg, theory)
            for t in (0.0, 0.9, 4.4, 17.0):
                model = a + np.exp(-g * t) * (p * np.cos(nu * t) + q * np.sin(nu * t))
                f1 = pulse_closed_form(CoefficientMatrix.ground(), cfg.tau, der, cfg.u_eg)
                f2 = free_flight(f1, t, cfg.lambda_tilde_eg, theory)
                f3 = pulse_closed_form(f2, cfg.tau, der, cfg.u_eg, t_start=cfg.tau + t)
                assert model == pytest.approx(f3.f_ee, abs=1e-12)


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

    def test_csv_and_json_serialization(self, tmp_path):
        # the CSV form of a scan is the CLI's
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
        doc = json.loads(res.to_json())
        assert doc == res.to_dict()
        assert doc["theory"] == "standard"
        assert len(doc["rows"]) == 5


class TestCorrectionConsistency:
    def test_free_flight_matches_diagonal_solution(self, rng):
        # the two-level free-flight factor must agree with the diagonal-model
        # closed form for the same coefficients (h = 0 removes energy phases)
        basis = ProjectorBasis.computational(2)
        l = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        model = measurement_model(basis, l, np.zeros(2))
        dm = decay_matrix(model)
        lam_eg = complex(dm.lambdas_tilde[0, 1])
        f0 = random_coefficients(rng)
        rho0 = DensityMatrix.from_matrix(f0.f)
        for t in (0.4, 1.9):
            via_ramsey = free_flight(f0, t, lam_eg, "modified")
            via_lindblad = diagonal_solution(dm, rho0, t)
            assert np.linalg.norm(via_ramsey.f - via_lindblad.matrix) < 1e-10


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
