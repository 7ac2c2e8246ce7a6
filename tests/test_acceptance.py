"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    SZ,
    random_density,
    random_hermitian,
    random_lindblad_model,
    random_measurement_model,
    random_state,
)
from lindkit import (
    DensityMatrix,
    GKSForm,
    Kernel,
    ProjectorBasis,
    RamseyConfig,
    bfr_derivative_check,
    born_collapse,
    born_limit_check,
    build_superoperator,
    choi_cp_test,
    cli,
    decay_matrix,
    entropy_rate,
    evolve,
    first_order,
    gaussian_fraction,
    gks_project,
    kernel_from_generator,
    measurement_model,
    protocol,
    pulse_closed_form,
    scan,
    spectrum,
    vn_entropy,
)
from lindkit.channels import extract_generator
from oracles import full_ode, gaussian_fraction_quadrature, pb_e_formula, rwa_ode

E_G, E_E = 0.0, 100.0
W0 = E_E - E_G
GROUND = DensityMatrix.pure([0.0, 1.0])  # the ground state over (e, g)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {title}: PASS")


def ramsey_config(u, dw, tau, t_free=0.0, t0=0.0, sigma=0.0, lam=0.0):
    return RamseyConfig(E_G, E_E, u, W0 + dw, tau, t_free, t0, sigma, lam)


def test_01_closed_form_matches_rk4():
    with criterion(1, "closed-form pulse vs RK4 oracle"):
        t_start = time.perf_counter()
        u = 1.0
        worst = 0.0
        for ratio in (-3.0, -1.0, 0.0, 1.0, 3.0):
            dw = ratio * u
            cfg = ramsey_config(u, dw, 1.0)
            om = np.sqrt(cfg.delta_omega**2 / 4 + abs(cfg.u_eg) ** 2)
            for om_tau in (0.1, np.pi / 4, np.pi / 2, np.pi, 2 * np.pi):
                tau = om_tau / om
                closed = pulse_closed_form(GROUND, tau, cfg.delta_omega, cfg.u_eg)
                ode = rwa_ode(GROUND, tau, cfg.delta_omega, cfg.u_eg, dt=1e-3 / om)
                worst = max(worst, float(np.max(np.abs(closed.matrix - ode.matrix))))
        elapsed = time.perf_counter() - t_start
        assert worst <= 1e-8, f"max deviation {worst:.3e}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_02_standard_ramsey_formula():
    with criterion(2, "standard fringe formula"):
        rng = np.random.default_rng(42)
        # deep strong-drive regime, fringe phase swept over a full period:
        # the composed pipeline must land on the textbook formula to 1e-8
        for _ in range(100):
            u = rng.uniform(0.5, 2.0)
            r = 10 ** rng.uniform(-9.0, np.log10(3e-9))
            dw = r * u
            om = np.sqrt(dw**2 / 4 + u**2)
            tau = rng.uniform(0.3, 1.1) / om
            t_free = rng.uniform(0.0, 2 * np.pi) / dw
            cfg = ramsey_config(u, dw, tau, t_free=t_free)
            # evaluate the formula at the detuning the config actually
            # represents (omega - omega_0 rounds at the float grain)
            dw_cfg = cfg.delta_omega
            om_cfg = np.sqrt(dw_cfg**2 / 4 + u**2)
            ref = 0.5 * np.sin(2 * om_cfg * tau) ** 2 * (1 + np.cos(dw_cfg * t_free))
            assert abs(protocol(cfg) - ref) <= 1e-8
        # moderate detuning, flight time at fringe maxima (the operating
        # point of the interferometer): relative error is O((dw/u)^2)
        for _ in range(100):
            u = rng.uniform(0.5, 2.0)
            r = 10 ** rng.uniform(-3.0, np.log10(3e-2))
            dw = r * u
            om = np.sqrt(dw**2 / 4 + u**2)
            tau = rng.uniform(0.3, 1.1) / om
            lam = complex(rng.uniform(0.0, 0.1), rng.uniform(-0.1, 0.1)) * dw
            nu = dw - lam.imag
            t_free = 2 * np.pi * rng.integers(1, 9) / abs(nu)
            cfg = ramsey_config(u, dw, tau, t_free=t_free, lam=lam)
            got = protocol(cfg, "modified")
            ref = pb_e_formula(cfg, "modified")
            assert abs(got - ref) / ref <= r**2, (
                f"r={r:.2e}: rel err {abs(got - ref) / ref:.3e}"
            )


def test_03_gaussian_fraction_analytic_vs_quadrature():
    with criterion(3, "transit-average closed form vs quadrature"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.uniform(0.2, 1.0)
            cfg = ramsey_config(
                u,
                rng.normal() * 0.5 * u,
                rng.uniform(0.3, 3.0),
                t_free=rng.uniform(2.0, 20.0),
                t0=rng.uniform(5.0, 20.0),
                sigma=rng.uniform(0.3, 2.5),
                lam=complex(rng.uniform(0.0, 0.15), rng.normal() * 0.15),
            )
            for theory in ("standard", "modified"):
                a = gaussian_fraction(cfg, theory)
                q = gaussian_fraction_quadrature(cfg, theory)
                assert abs(a - q) <= 1e-8, f"{theory}: |analytic-quad|={abs(a-q):.2e}"
        # continuity: the modified theory collapses onto the standard one
        # as the correction rate vanishes
        for _ in range(10):
            cfg = ramsey_config(
                rng.uniform(0.2, 1.0), rng.normal() * 0.3, rng.uniform(0.3, 2.0),
                t0=rng.uniform(5.0, 15.0), sigma=rng.uniform(0.5, 2.0), lam=0.0,
            )
            assert abs(
                gaussian_fraction(cfg, "modified") - gaussian_fraction(cfg, "standard")
            ) <= 1e-12


def test_04_correction_fringe_signatures():
    with criterion(4, "correction peak shift and contrast damping"):
        rng = np.random.default_rng(13)
        u, t0, sigma = 2000.0, 50.0, 5.0
        tau = np.pi / (4 * u)
        base_grid = np.linspace(-0.2, 0.2, 201)
        step = base_grid[1] - base_grid[0]
        for _ in range(10):
            re_lam = rng.uniform(0.02, 3.0) / t0
            im_lam = rng.uniform(-0.1, 0.1)
            lam = complex(re_lam, im_lam)
            cfg = ramsey_config(u, 0.0, tau, t_free=t0, t0=t0, sigma=sigma, lam=lam)
            grid = np.unique(np.concatenate([base_grid, [0.0, im_lam]]))
            res_mod = scan(cfg, grid, "modified")
            res_std = scan(cfg, grid, "standard")
            # (a) fringe center sits at the imaginary part of the correction
            assert abs(res_mod.argmax_avg() - im_lam) <= step + 1e-12
            assert abs(res_std.argmax_avg()) <= step + 1e-12

            # (b) contrast: pedestal-normalized fringe depth at each curve's
            # center, ratio against the predicted damping factor
            def fringe_depth(res, center):
                k = int(np.argmin(np.abs(res.delta_omegas - center)))
                om_c = np.sqrt(res.delta_omegas[k] ** 2 / 4 + u**2)
                pedestal = 0.5 * np.sin(2 * om_c * tau) ** 2
                return res.pb_e_avg[k] / pedestal - 1.0

            ratio = fringe_depth(res_mod, im_lam) / fringe_depth(res_std, 0.0)
            predicted = np.exp(-re_lam * (t0 - re_lam * sigma**2 / 4))
            assert abs(ratio - predicted) / predicted <= 1e-6, (
                f"damping {ratio:.8f} vs {predicted:.8f}"
            )


def test_05_born_rule_emergence():
    with criterion(5, "Born-rule asymptotics of measurement models"):
        rng = np.random.default_rng(99)
        for k in range(20):
            d = int(rng.integers(2, 5))
            incomplete = k % 3 == 0 and d >= 3
            if incomplete:
                basis = ProjectorBasis.computational(d)
                l = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
                l[:, 1] = l[:, 0]  # outcomes 0 and 1 become one class
                h = rng.standard_normal(d)
                h[1] = h[0]
                model = measurement_model(basis, l, h)
            else:
                model = random_measurement_model(rng, d)
            dm = decay_matrix(model)
            gamma = dm.gamma_min()
            assert gamma > 1e-3
            rho0 = DensityMatrix.pure(random_state(rng, d))
            _, res10 = born_limit_check(model, rho0, 10.0 / gamma, np.inf)
            assert res10 <= 10 * np.exp(-10.0), f"residual {res10:.3e}"
            converged, res40 = born_limit_check(model, rho0, 40.0 / gamma, 1e-6)
            assert converged and res40 <= 1e-6
            if incomplete:
                classes = dm.classes()
                assert any(len(c) > 1 for c in classes)
                target = born_collapse(
                    rho0, ProjectorBasis(model.basis.u, classes)
                )
                reached = evolve(model, rho0, 40.0 / gamma)
                assert np.linalg.norm(reached.matrix - target.matrix) <= 1e-6


def test_06_complete_positivity():
    with criterion(6, "complete positivity: Choi spectra and derivative test"):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            gen = build_superoperator(random_lindblad_model(rng, d))
            for tau in (0.01, 0.1, 1.0, 10.0):
                _, spec = choi_cp_test(kernel_from_generator(gen, tau))
                assert spec.lambdas.min() >= -1e-10 * d
        transpose = Kernel(
            2, 1.0,
            np.array(
                [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex,
            ),
        )
        is_cp, spec = choi_cp_test(transpose)
        assert not is_cp and spec.lambdas.min() < -0.5
        for _ in range(5):
            gks = gks_project(build_superoperator(random_lindblad_model(rng, 2)))
            assert bfr_derivative_check(gks, 100, seed=5) >= -1e-10
        bad = GKSForm(2, 0.1 * SZ, np.diag([1.0, -0.5, 0.2]).astype(complex))
        assert bfr_derivative_check(bad, 200, seed=5) < 0


def test_07_entropy_monotonicity():
    with criterion(7, "entropy rate: sign, finite differences, trace identity"):
        rng = np.random.default_rng(31)
        eps = 1e-5
        for _ in range(20):
            d = int(rng.integers(2, 4))
            model = random_lindblad_model(rng, d, hermitian_ops=True)
            assert model.balanced
            rho0 = random_density(rng, d, strictly_positive=True)
            for t in np.linspace(0.05, 3.0, 10):
                rho_t = evolve(model, rho0, float(t))
                rate = entropy_rate(rho_t, model.lindblads)
                assert rate >= -1e-12
                s_p = vn_entropy(evolve(model, rho0, float(t) + eps))
                s_m = vn_entropy(evolve(model, rho0, float(t) - eps))
                assert abs(rate - (s_p - s_m) / (2 * eps)) <= 1e-6
            lhs = sum(np.trace(l.conj().T @ l) for l in model.lindblads)
            rhs = sum(np.trace(l @ l.conj().T) for l in model.lindblads)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_08_generator_extraction_round_trip():
    with criterion(8, "generator extraction: accuracy and convergence order"):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            gen = build_superoperator(random_lindblad_model(rng, d))
            scale = np.linalg.norm(gen)
            errs = {}
            for h in (1e-4, 5e-5):
                samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h)]
                errs[h] = np.linalg.norm(extract_generator(samples, "central") - gen)
            assert errs[1e-4] <= 1e-6 * scale
            ratio = errs[1e-4] / errs[5e-5]
            assert 3.3 <= ratio <= 4.7, f"convergence ratio {ratio:.2f}"


def test_09_perturbation_theory():
    with criterion(9, "degenerate perturbation theory"):
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = 6
            q = np.linalg.qr(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            )[0]
            base = np.array([2.0, 2.0, 2.0, 5.0, 7.0, 9.0])
            a = (q * base) @ q.conj().T
            a = 0.5 * (a + a.conj().T)
            da = random_hermitian(rng, d)
            res = first_order(a, da)
            for grp in res.degeneracy_groups:
                sub = res.rotated_basis[:, grp]
                block = sub.conj().T @ da @ sub
                assert np.linalg.norm(block - np.diag(np.diag(block))) <= 1e-10
            errs = {}
            for eps in (1e-2, 5e-3):
                exact = np.sort(np.linalg.eigvalsh(a + eps * da))
                pred = np.sort(res.base_eigenvalues + eps * res.shifts)
                errs[eps] = np.max(np.abs(exact - pred))
            assert errs[1e-2] / errs[5e-3] >= 3.5


def test_10_superoperator_spectrum_structure():
    with criterion(10, "generator spectrum structure"):
        rng = np.random.default_rng(55)
        for k in range(20):
            d = int(rng.integers(2, 4))
            balanced = k % 2 == 0
            model = (
                random_lindblad_model(rng, d, hermitian_ops=True)
                if balanced
                else random_lindblad_model(rng, d)
            )
            spec = spectrum(model)
            scale = max(1.0, float(np.abs(spec.mus).max()))
            assert np.min(np.abs(spec.mus)) <= 1e-8 * scale  # zero mode
            for mu in spec.mus:  # closure under conjugation
                assert np.min(np.abs(spec.mus - np.conj(mu))) <= 1e-8 * scale
            if balanced:
                assert spec.mus.real.min() >= -1e-9 * scale
                for mode in spec.stationary_modes():
                    for l in model.lindblads:
                        assert np.linalg.norm(l @ mode - mode @ l) <= 1e-8
                        ld = l.conj().T
                        assert np.linalg.norm(ld @ mode - mode @ ld) <= 1e-8


def test_11_rwa_validity():
    with criterion(11, "RWA validity against the exact driven dynamics"):
        t_start = time.perf_counter()
        discrepancies = []
        for ratio in (50, 100, 200, 400):
            u_abs = W0 / ratio
            # dipole-style drive: both U_eg and U_ge present, so the
            # counter-rotating term survives and the RWA is a real
            # approximation with O(|U|/omega) error
            u = u_abs * np.array([[0, 1], [1, 0]], dtype=complex)
            t_rabi = np.pi / u_abs
            times, traj = full_ode([E_E, E_G], u, W0, (0.0, t_rabi), 0.05 / W0)
            dw, om = 0.0, u_abs  # resonant: Omega = sqrt(0^2 / 4 + |U|^2)
            worst = 0.0
            for k in range(0, len(times), max(1, len(times) // 80)):
                rwa = pulse_closed_form(GROUND, float(times[k]), dw, u_abs)
                worst = max(worst, abs(traj[k][0, 0].real - rwa.matrix[0, 0].real))
            discrepancies.append(worst)
            if ratio == 200:
                # tie the trajectory check back to the RK4 RWA integrator
                ode_final = rwa_ode(GROUND, t_rabi, dw, u_abs, dt=1e-3 / om)
                assert abs(traj[-1][0, 0].real - ode_final.matrix[0, 0].real) <= 0.02
                assert worst <= 0.02, f"ratio 200 discrepancy {worst:.4f}"
        for lo, hi in zip(discrepancies[1:], discrepancies[:-1]):
            assert lo <= hi * 1.05, f"RWA error not decreasing: {discrepancies}"
        elapsed = time.perf_counter() - t_start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_12_cli_determinism_and_figure_data(tmp_path):
    with criterion(12, "CLI determinism and figure curves"):
        outputs = {}
        for name in ("fig1", "fig2"):
            paths = []
            for rep in range(2):
                out = tmp_path / f"{name}_{rep}.csv"
                code = cli.main(
                    ["ramsey-scan", "--config", name, "--format", "csv",
                     "--out", str(out)]
                )
                assert code == 0
                paths.append(out)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            outputs[name] = np.loadtxt(str(paths[0]), delimiter=",", skiprows=1)
        std, mod = outputs["fig1"], outputs["fig2"]
        step = std[1, 0] - std[0, 0]
        assert np.all(std[:, 1:] >= -1e-9) and np.all(std[:, 1:] <= 1 + 1e-9)
        assert np.all(mod[:, 1:] >= -1e-9) and np.all(mod[:, 1:] <= 1 + 1e-9)
        # fig1: standard fringe peaks on resonance
        assert abs(std[std[:, 2].argmax(), 0]) <= step + 1e-12
        # fig2: center shifted to Im(lambda), contrast damped by the
        # predicted factor (structural: well inside the fringe scale)
        im_lam, re_lam, t0, sigma = 0.05, 0.02, 50.0, 5.0
        assert abs(mod[mod[:, 2].argmax(), 0] - im_lam) <= 2 * step
        predicted = np.exp(-re_lam * (t0 - re_lam * sigma**2 / 4))
        peak_ratio = (2 * mod[:, 2].max() - 1) / (2 * std[:, 2].max() - 1)
        assert abs(peak_ratio - predicted) <= 0.15 * predicted
        assert mod[:, 2].max() < std[:, 2].max()
