import json
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SM,
    SX,
    SZ,
    random_density,
    random_hermitian,
    random_lindblad_model,
    random_measurement_model,
    random_unitary,
)
from lindkit import (
    DensityMatrix,
    LindbladModel,
    MeasurementModel,
    ProjectorBasis,
    born_collapse,
    born_limit_check,
    build_superoperator,
    choi_cp_test,
    decay_matrix,
    diagonal_solution,
    errors,
    evolve,
    evolve_many,
    evolve_stencil,
    kernel_from_generator,
    matcore,
    measurement_model,
    spectrum,
)
from oracles import (apply_generator, chain_views, hermiticity_defect, projectors,
                     superoperator_kron)


class TestSuperoperator:
    def test_decay_operator_hand_case(self):
        model = LindbladModel(2, np.zeros((2, 2)), [SM])
        rho_e = np.diag([1.0, 0.0]).astype(complex)
        out = (build_superoperator(model) @ rho_e.reshape(-1)).reshape(2, 2)
        assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_commuting_state_is_stationary(self, rng):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        model = LindbladModel(3, h, [])
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        out = (build_superoperator(model) @ rho.reshape(-1)).reshape(3, 3)
        assert np.linalg.norm(out) < 1e-14

    def test_hermitian_lindblads_fix_maximally_mixed(self, rng):
        model = random_lindblad_model(rng, 3, hermitian_ops=True)
        rho = np.eye(3, dtype=complex) / 3
        out = (build_superoperator(model) @ rho.reshape(-1)).reshape(3, 3)
        assert np.linalg.norm(out) < 1e-14

    def test_matches_direct_evaluation(self, rng):
        model = random_lindblad_model(rng, 3)
        rho = random_density(rng, 3).matrix
        via_sop = (build_superoperator(model) @ rho.reshape(-1)).reshape(3, 3)
        assert np.linalg.norm(via_sop - apply_generator(model, rho)) < 1e-12

    def test_identity_is_left_null_vector(self, rng):
        model = random_lindblad_model(rng, 2)
        sop = build_superoperator(model)
        vec_i = np.eye(2, dtype=complex).reshape(-1)
        assert np.linalg.norm(vec_i @ sop) < 1e-12

    def test_rejects_non_hermitian_h(self):
        with pytest.raises(errors.NotHermitianH):
            LindbladModel(2, np.array([[0, 1], [0, 0]]), [])


@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("n_ops", [0, 1, 3])
@pytest.mark.parametrize("d", range(1, 9))
def test_superoperator_is_the_kronecker_form(d, n_ops, structured):
    # equal values, so every nonzero entry has the oracle's bits (only a
    # zero has two); structured models (real H, sparse real operators, an
    # all-zero one) put exact zeros in every term
    rng = np.random.default_rng([d, n_ops, structured])
    if structured:
        h = random_hermitian(rng, d).real
        ops = [np.where(rng.random((d, d)) < 0.4, rng.standard_normal((d, d)), 0.0)
               for _ in range(n_ops)]
        if ops:
            ops[0] = np.zeros((d, d))
    else:
        model = random_lindblad_model(rng, d, n_ops)
        h, ops = model.hamiltonian, model.lindblads
    model = LindbladModel(d, h, ops)
    assert np.array_equal(build_superoperator(model), superoperator_kron(model))


class TestSpectrum:
    def test_pure_dephasing(self):
        gamma = 0.8
        model = LindbladModel(2, np.zeros((2, 2)), [np.sqrt(gamma) * SZ])
        mus = np.sort_complex(spectrum(model).mus)
        assert np.allclose(mus, [0, 0, 2 * gamma, 2 * gamma], atol=1e-9)

    def test_pure_hamiltonian_oscillatory(self):
        w = 1.7
        model = LindbladModel(2, w * SZ / 2, [])
        mus = sorted(spectrum(model).mus, key=lambda z: (round(z.imag, 9), z.real))
        assert np.allclose(mus, [-1j * w, 0, 0, 1j * w], atol=1e-9)

    def test_balanced_models_have_no_forbidden_modes(self, rng):
        for _ in range(5):
            model = random_lindblad_model(rng, 2, hermitian_ops=True)
            spec = spectrum(model)
            assert "forbidden" not in spec.classifications
            assert spec.mus.real.min() > -1e-9 * max(1, np.abs(spec.mus).max())

    def test_zero_mode_always_present(self, rng):
        for d in (2, 3):
            spec = spectrum(random_lindblad_model(rng, d))
            assert np.min(np.abs(spec.mus)) < 1e-8

    def test_conjugate_pairing(self, rng):
        spec = spectrum(random_lindblad_model(rng, 2))
        for mu in spec.mus:
            assert np.min(np.abs(spec.mus - np.conj(mu))) < 1e-8

    def test_stationary_modes_commute_with_lindblads(self, rng):
        model = random_measurement_model(rng, 3)
        spec = spectrum(model)
        for mode in spec.stationary_modes():
            for l in model.lindblads:
                assert np.linalg.norm(l @ mode - mode @ l) < 1e-8
                ld = l.conj().T
                assert np.linalg.norm(ld @ mode - mode @ ld) < 1e-8

    def test_norm_svd_failure_is_no_convergence(self, monkeypatch, rng):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        model = random_lindblad_model(rng, 2)
        monkeypatch.setattr(np.linalg, "norm", failing_svd)
        with pytest.raises(errors.NoConvergence):
            spectrum(model)


def _hermitian_up_to_phase_defect(m):
    """min over phases c of ||m^dag - c m|| / ||m||: 0 exactly when
    e^{i theta} m is Hermitian for some theta."""
    c = np.vdot(m, m.conj().T) / np.vdot(m, m)
    return float(np.linalg.norm(m.conj().T - c * m) / np.linalg.norm(m))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 8), measurement=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_spectrum_is_the_generators_eigensystem(d, measurement, seed):
    rng = np.random.default_rng(seed)
    model = (random_measurement_model(rng, d) if measurement
             else random_lindblad_model(rng, d))
    sop = build_superoperator(model)
    spec = spectrum(model)
    # the mus are eig(L)'s eigenvalues, matched one to one
    want = -np.linalg.eigvals(sop)
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(spec.mus[:, None] - want))
    assert np.abs(spec.mus[rows] - want[cols]).max() <= 1e-10 * np.linalg.norm(sop, 2)
    # closed under exact conjugation: the real basis pairs them exactly
    assert np.array_equal(np.sort_complex(spec.mus), np.sort_complex(spec.mus.conj()))
    scale = np.linalg.norm(sop)
    for mu, mode in zip(spec.mus, spec.modes):
        v = mode.reshape(-1) / np.linalg.norm(mode)
        assert np.linalg.norm(sop @ v + mu * v) <= 1e-12 * scale
        if abs(mu) <= spec.tol:  # a stationary state, up to normalization
            assert _hermitian_up_to_phase_defect(mode) <= 1e-12


def test_stationary_residual_of_generic_models():
    # R's first row, vec(I)^dag L, is rounding noise for a trace-preserving
    # L; left in, LAPACK's balancing scaled it up to a stationary-mode
    # residual of about 1e-7 ||L||_F
    rng = np.random.default_rng(11)
    for d in range(4, 11):
        for _ in range(3):
            model = random_lindblad_model(rng, d)
            sop = build_superoperator(model)
            spec = spectrum(model)
            k = int(np.argmin(np.abs(spec.mus)))
            v = spec.modes[k].reshape(-1) / np.linalg.norm(spec.modes[k])
            assert np.linalg.norm(sop @ v + spec.mus[k] * v) <= 1e-12 * np.linalg.norm(sop)


def _span_projector(modes):
    """The orthogonal projector onto the span of the vectorized modes."""
    q = np.linalg.qr(np.reshape(modes, (len(modes), -1)).T)[0]
    return q @ q.conj().T


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 10), merge=st.sampled_from([None, "equal h", "unequal h"]),
       seed=st.integers(0, 2**32 - 1))
def test_measurement_spectrum_is_the_eig_paths(d, merge, seed):
    # the decay-matrix path against the eig path on the same operators; with
    # ``merge`` some outcomes share outcome 0's coefficient column, and with
    # it its h or not.  One class with one h would be the zero generator,
    # whose eig path reads its rounding noise, so that merge leaves a class
    # apart.
    rng = np.random.default_rng(seed)
    basis = ProjectorBasis.from_vectors(list(random_unitary(rng, d).T))
    l = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    h = rng.standard_normal(d)
    most = d - 1 if merge == "unequal h" else d - 2
    if merge and most:
        merged = rng.choice(np.arange(1, d), size=int(rng.integers(1, most + 1)),
                            replace=False)
        l[:, merged] = l[:, [0]]
        if merge == "equal h":
            h[merged] = h[0]
    model = measurement_model(basis, l, h)
    got = spectrum(model)
    want = spectrum(LindbladModel(d, model.hamiltonian, model.lindblads))
    sop = build_superoperator(model)
    scale = max(1.0, np.abs(got.mus).max())
    # L is normal, so ||L||_2 = max |mu| sets the same tolerances
    assert abs(got.tol - want.tol) <= 1e-12 * want.tol
    # The order is the eig path's, except where exact real parts tie: there
    # the eig path sorts by their rounding noise, so a run of tied real parts
    # is compared as a multiset.
    assert len(got.mus) == len(want.mus) == d * d
    cut = np.flatnonzero(np.diff(got.mus.real) > 1e-10 * scale) + 1
    perm = np.arange(d * d)
    for run in np.split(perm, cut):
        cost = np.abs(got.mus[run][:, None] - want.mus[run][None, :])
        perm[run] = run[scipy.optimize.linear_sum_assignment(cost)[1]]
    assert np.abs(got.mus - want.mus[perm]).max() <= 1e-10 * scale
    assert got.classifications == [want.classifications[k] for k in perm]
    m_got, m_want = (list(map(sum, s.chains.lengths)) for s in (got, want))
    size_got, size_want = np.repeat(m_got, m_got), np.repeat(m_want, m_want)
    assert np.array_equal(size_got, size_want[perm])
    assert got.chains.lengths == [[1] * m for m in m_got]
    assert [p for per_eig in want.chains.lengths for p in per_eig] == [1] * d * d
    # each cluster spans what the eig path's cluster at the same mu spans
    for mu in np.unique(got.mus):
        mine = np.flatnonzero(got.mus == mu)
        theirs = np.flatnonzero(np.abs(want.mus - mu) <= 1e-10 * scale)
        assert len(mine) == len(theirs)
        distance = np.linalg.norm(_span_projector(got.modes[mine])
                                  - _span_projector(want.modes[theirs]), 2)
        assert distance <= 1e-10
    for mu, mode in zip(got.mus, got.modes):
        v = mode.reshape(-1)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(sop @ v + mu * v) <= 1e-12 * np.linalg.norm(sop)
        if abs(mu) <= got.tol:
            assert _hermitian_up_to_phase_defect(mode) <= 1e-12


@pytest.mark.parametrize("d", [4, 8])
def test_eig_path_resolves_a_measurement_models_stationary_cluster(monkeypatch, d):
    # the measurement model's operators as a plain LindbladModel take the
    # eig path, whose d stationary modes are one cluster of _cluster_chains
    chains = []
    real = matcore._cluster_chains
    monkeypatch.setattr(matcore, "_cluster_chains",
                        lambda *args: chains.append(args[2]) or real(*args))
    model = random_measurement_model(np.random.default_rng(d), d)
    plain = LindbladModel(d, model.hamiltonian, model.lindblads)
    spec = spectrum(plain)
    assert [len(members) for members in chains] == [d]
    assert sorted(map(sum, spec.chains.lengths)) == [1] * (d * d - d) + [d]
    sop = build_superoperator(plain)
    stationary = spec.stationary_modes()
    assert len(stationary) == d
    for mode in stationary:
        v = mode.reshape(-1)
        assert np.linalg.norm(sop @ v) <= 1e-12 * np.linalg.norm(sop)
        assert _hermitian_up_to_phase_defect(mode) <= 1e-12
    assert np.linalg.norm(_span_projector(stationary)
                          - _span_projector(projectors(model.basis)), 2) <= 1e-10


def test_measurement_spectrum_overflows_as_the_eig_path_does():
    model = measurement_model(ProjectorBasis.computational(3), [[0.0, 1e300, -1.0]],
                              [0.0, 0.0, 0.0])
    for m in (model, LindbladModel(3, model.hamiltonian, model.lindblads)):
        with pytest.raises(errors.Overflow):
            spectrum(m)


def test_measurement_model_needs_its_basis_and_coefficients(rng):
    # a MeasurementModel without them would be a plain LindbladModel under
    # the name of one whose decay matrix is read
    model = random_measurement_model(rng, 4)
    with pytest.raises(TypeError):
        MeasurementModel(4, model.hamiltonian, model.lindblads)


class TestEvolve:
    def test_t_zero_identity(self, rng):
        rho = random_density(rng, 2)
        assert np.array_equal(evolve(random_lindblad_model(rng, 2), rho, 0.0).matrix,
                              rho.matrix)

    def test_dephasing_analytic(self):
        gamma = 0.4
        model = LindbladModel(2, np.zeros((2, 2)), [np.sqrt(gamma) * SZ])
        plus = DensityMatrix.pure(np.array([1, 1]) / np.sqrt(2))
        for t in (0.3, 1.1, 2.7):
            out = evolve(model, plus, t)
            assert abs(out.matrix[0, 1] - 0.5 * np.exp(-2 * gamma * t)) < 1e-12

    def test_matches_rk4_oracle(self, rng):
        model = random_lindblad_model(rng, 2, scale=0.4)
        rho = random_density(rng, 2)
        dt, t_end = 1e-3, 5.0
        mat = rho.matrix.copy()
        n = int(round(t_end / dt))
        for _ in range(n):
            k1 = apply_generator(model, mat)
            k2 = apply_generator(model, mat + dt / 2 * k1)
            k3 = apply_generator(model, mat + dt / 2 * k2)
            k4 = apply_generator(model, mat + dt * k3)
            mat = mat + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.linalg.norm(evolve(model, rho, t_end).matrix - mat) < 1e-7

    def test_trace_preserved(self, rng):
        model = random_lindblad_model(rng, 3)
        rho = random_density(rng, 3)
        for t in (0.1, 1.0, 10.0):
            assert abs(np.trace(evolve(model, rho, t).matrix) - 1) < 1e-10

    def test_flow_is_cp(self, rng):
        model = random_lindblad_model(rng, 2)
        gen = build_superoperator(model)
        for t in (0.01, 0.1, 1.0, 10.0):
            is_cp, _ = choi_cp_test(kernel_from_generator(gen, t))
            assert is_cp

    def test_modal_sum_on_diagonalizable_fixture(self, rng):
        model = random_lindblad_model(rng, 2)
        sop = build_superoperator(model)
        vals, vecs = np.linalg.eig(sop)
        rho0 = random_density(rng, 2)
        coeff = np.linalg.solve(vecs, rho0.matrix.reshape(-1))
        t = 0.8
        modal = (vecs @ (coeff * np.exp(vals * t))).reshape(2, 2)
        assert np.linalg.norm(modal - evolve(model, rho0, t).matrix) < 1e-9


class TestEvolveMany:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_matches_per_time_expm(self, rng, d):
        model = random_lindblad_model(rng, d)
        rho0 = random_density(rng, d)
        sop = build_superoperator(model)
        # unsorted, duplicated, zero, and t - eps, t, t + eps triples
        times = [1.3, 0.2, 0.0, 1.3, 2.5, 0.7 - 1e-5, 0.7, 0.7 + 1e-5, 0.0,
                 1e-5, 0.2, 3.0, 3.0 - 1e-5, 3.0 + 1e-5]
        for t, rho in zip(times, evolve_many(model, rho0, times)):
            want = scipy.linalg.expm(t * sop) @ rho0.matrix.reshape(-1)
            assert np.max(np.abs(rho.matrix - want.reshape(d, d))) <= 1e-12

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_long_grids_match_per_time_expm(self, rng, d):
        # 400 points, the entropy check's +-1e-5 interleave, and steps that
        # differ by up to 1e-11, so that each needs its exp((dt - h) L) factor:
        # long chains of reused step propagators, checked at every 50th point
        # and the end
        model = random_lindblad_model(rng, d)
        rho0 = random_density(rng, d)
        sop = build_superoperator(model)
        v0 = rho0.matrix.reshape(-1)
        times = np.linspace(0.05, 4.0, 400).tolist()
        jittered = np.cumsum(0.01 + rng.uniform(0.0, 1e-11, 400)).tolist()
        for grid in (times, [s for t in times for s in (t, t + 1e-5, t - 1e-5)], jittered):
            states = evolve_many(model, rho0, grid)
            for k in [*range(0, len(grid), 50), len(grid) - 1]:
                want = (scipy.linalg.expm(grid[k] * sop) @ v0).reshape(d, d)
                assert np.max(np.abs(states[k].matrix - want)) <= 1e-12

    def test_negative_time_rejected(self, rng):
        model = random_lindblad_model(rng, 2)
        with pytest.raises(ValueError):
            evolve_many(model, random_density(rng, 2), [0.5, -0.1, 1.0])

    def test_single_long_time_still_overflows(self, rng):
        model = random_lindblad_model(rng, 2)
        norm1 = np.linalg.norm(build_superoperator(model), 1)
        with pytest.raises(errors.Overflow):
            evolve(model, random_density(rng, 2), 2e6 / norm1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8),
)
def test_evolve_many_states_are_physical_and_match_evolve(d, seed, times):
    rng = np.random.default_rng(seed)
    model = random_lindblad_model(rng, d)
    rho0 = random_density(rng, d)
    states = evolve_many(model, rho0, times)
    assert len(states) == len(times)
    for t, rho in zip(times, states):
        assert hermiticity_defect(rho.matrix) <= 1e-12
        assert abs(np.trace(rho.matrix) - 1) <= 1e-12
        assert np.max(np.abs(rho.matrix - evolve(model, rho0, t).matrix)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
)
def test_evolved_states_are_exactly_hermitian_with_unit_trace(d, seed, times):
    # the stack handed to the density-matrix check, before its
    # symmetrization, already has bit-exact mirrors and a real diagonal, and
    # every trace is within 4 ulp of 1
    rng = np.random.default_rng(seed)
    model = random_lindblad_model(rng, d)
    rho0 = random_density(rng, d)
    checked = []
    from_matrices = DensityMatrix.from_matrices.__func__

    def recording(cls, mats):
        checked.append(np.array(mats))
        return from_matrices(cls, mats)

    with mock.patch.object(DensityMatrix, "from_matrices", classmethod(recording)):
        states = evolve_many(model, rho0, times)
    j, k = np.triu_indices(d, 1)
    for stack in checked:
        for part, sign in ((stack.real, 1.0), (stack.imag, -1.0)):
            assert np.array_equal(part[:, j, k].view(np.int64),
                                  (sign * part[:, k, j]).view(np.int64))
        assert not np.diagonal(stack.imag, axis1=1, axis2=2).view(np.int64).any()
    for t, rho in zip(times, states):
        if t > 0.0:
            assert abs(np.trace(rho.matrix).real - 1.0) <= 4 * np.spacing(1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-5, exclude_max=True),
                             st.floats(0.0, 4.0)), min_size=1, max_size=8),
    repeat=st.booleans(),
)
def test_stencil_matches_evolve_many(d, seed, times, repeat):
    # the states at t are evolve_many's bits; the +-eps states, a block step
    # from them, are evolve_many's at t + eps and max(t - eps, 0)
    eps = 1e-5
    times = times + times[:2] if repeat else times
    rng = np.random.default_rng(seed)
    model = random_lindblad_model(rng, d)
    rho0 = random_density(rng, d)
    states, plus, minus = evolve_stencil(model, rho0, times, eps)
    for got, want in zip(states, evolve_many(model, rho0, times), strict=True):
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.repaired == want.repaired
    for got, grid in ((plus, [t + eps for t in times]),
                      (minus, [max(t - eps, 0.0) for t in times])):
        for rho, want in zip(got, evolve_many(model, rho0, grid), strict=True):
            assert np.max(np.abs(rho.matrix - want.matrix)) <= 1e-13
    # rho0's rows, unchecked: the states at t = 0 and the earlier states below
    # eps (the later state at t = 0 is exp(eps R) rho0, an evolved one)
    for got, held in ((states, [t == 0.0 for t in times]), (minus, [t < eps for t in times])):
        for k in np.flatnonzero(held):
            assert got.matrices[k].tobytes() == rho0.matrix.tobytes()
            assert got.repaired[k] == rho0.repaired
            assert got.eigenvalues[k].tobytes() == np.linalg.eigvalsh(rho0.matrix).tobytes()


def test_stencil_step_must_be_positive(rng):
    for eps in (0.0, -1e-5, float("nan")):
        with pytest.raises(ValueError):
            evolve_stencil(random_lindblad_model(rng, 2), random_density(rng, 2), [0.5], eps)


def test_stencil_step_beyond_expm_bound_overflows(rng):
    # a probe step exp(+-eps R) with ||eps R||_1 > 1e6 raises, as the dense
    # expm of that step does, also where no time needs a step of its own
    model = random_lindblad_model(rng, 2)
    norm1 = np.linalg.norm(build_superoperator(model), 1)
    s = 1e7 / (1e-5 * norm1)
    big = LindbladModel(2, s * model.hamiltonian, [np.sqrt(s) * l for l in model.lindblads])
    with pytest.raises(errors.Overflow):
        evolve_stencil(big, random_density(rng, 2), [0.0], 1e-5)


def test_stencil_backward_step_that_overflows_raises_overflow():
    # eps ||R||_1 = 4e3: exp(-eps R) x(t) at t = 1e-4 leaves double
    # precision, and the error names that step
    model = LindbladModel(2, np.zeros((2, 2)), [2e4 * SM.T])
    rho0 = DensityMatrix.from_matrix(np.eye(2) / 2)
    with pytest.raises(errors.Overflow, match="backward stencil step"):
        evolve_stencil(model, rho0, [0.0, 1e-4], 1e-5)


class TestMeasurementModel:
    def test_projector_commutation_and_balance(self, rng):
        model = random_measurement_model(rng, 3)
        assert model.balanced
        for l in model.lindblads:
            for p in projectors(model.basis):
                assert np.linalg.norm(l @ p - p @ l) < 1e-12

    def test_zero_l_is_purely_hamiltonian(self):
        basis = ProjectorBasis.computational(2)
        model = measurement_model(basis, np.zeros((1, 2)), [0.0, 1.0])
        plus = DensityMatrix.pure(np.array([1, 1]) / np.sqrt(2))
        for t in (1.0, 10.0, 100.0):
            out = evolve(model, plus, t)
            assert abs(abs(out.matrix[0, 1]) - 0.5) < 1e-9

    def test_qubit_rate_example(self):
        basis = ProjectorBasis.computational(2)
        model = measurement_model(basis, np.array([[1.0, -1.0]]), [0.0, 0.0])
        dm = decay_matrix(model)
        assert dm.lambdas[0, 1] == pytest.approx(2.0)
        assert dm.lambdas[1, 0] == pytest.approx(2.0)

    def test_class_degenerate_coefficients(self):
        basis = ProjectorBasis.computational(3)
        l = np.array([[0.7, 0.7, -0.2]])
        model = measurement_model(basis, l, [0.1, 0.1, 0.5])
        dm = decay_matrix(model)
        assert abs(dm.lambdas[0, 1].real) < 1e-14
        assert dm.classes() == [[0, 1], [2]]

    def test_coefficient_shape_mismatch(self):
        basis = ProjectorBasis.computational(3)
        with pytest.raises(errors.DimensionMismatch):
            measurement_model(basis, np.zeros((1, 2)), [0.0, 0.0, 0.0])
        with pytest.raises(errors.DimensionMismatch):
            measurement_model(basis, np.zeros((1, 3)), [0.0, 0.0])

    @pytest.mark.parametrize("l, h", [
        ([[1.0, 0.5]], [np.inf, 1.0]),
        ([[1.0, np.nan]], [0.0, 1.0]),
        ([[1.0, 1j * np.inf]], [0.0, 1.0]),
    ], ids=["inf-h", "nan-l", "inf-imaginary-l"])
    def test_non_finite_coefficients_raise_before_any_operator(self, l, h):
        # the table is checked before U diag(c) U^dag is formed, whose
        # products would warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                measurement_model(ProjectorBasis.from_vectors([[0.6, 0.8], [0.8, -0.6]]),
                                  l, h)

    def test_general_model_rejected_by_decay_matrix(self, rng):
        with pytest.raises(errors.NotDiagonalFamily):
            decay_matrix(random_lindblad_model(rng, 2))


class TestDecayMatrix:
    def test_diagonal_is_zero(self, rng):
        dm = decay_matrix(random_measurement_model(rng, 3))
        assert np.all(np.diag(dm.lambdas) == 0)
        assert np.all(dm.lambdas.real >= 0)

    def test_real_coefficients_give_real_rates(self):
        basis = ProjectorBasis.computational(3)
        model = measurement_model(basis, np.array([[0.3, -0.4, 1.1]]), np.zeros(3))
        dm = decay_matrix(model)
        assert np.linalg.norm(dm.lambdas.imag) < 1e-14

    def test_tilde_symmetries(self, rng):
        dm = decay_matrix(random_measurement_model(rng, 4))
        assert np.linalg.norm(dm.lambdas_tilde - dm.lambdas_tilde.conj().T) < 1e-12

    def test_offdiagonal_decay_matches_evolve(self, rng):
        model = random_measurement_model(rng, 3)
        dm = decay_matrix(model)
        rho0 = random_density(rng, 3)
        t = 0.7
        evolved = evolve(model, rho0, t).matrix
        projs = projectors(model.basis)
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                block0 = projs[a] @ rho0.matrix @ projs[b]
                blockt = projs[a] @ evolved @ projs[b]
                expected = block0 * np.exp(-dm.lambdas[a, b] * t)
                denom = max(np.linalg.norm(block0), 1e-12)
                assert np.linalg.norm(blockt - expected) / denom < 1e-7

    def test_spectrum_equals_decay_rates(self, rng):
        # the generator of a diagonal family is diagonal in the |a><b| basis,
        # so its eigenvalue set is exactly {-lambda_ab}
        model = random_measurement_model(rng, 3)
        dm = decay_matrix(model)
        sop = build_superoperator(model)
        projs = projectors(model.basis)
        vecs = [v / np.linalg.norm(v) for v in
                (np.linalg.eigh(p)[1][:, -1] for p in projs)]
        for a in range(3):
            for b in range(3):
                mode = np.outer(vecs[a], vecs[b].conj()).reshape(-1)
                resid = sop @ mode + dm.lambdas[a, b] * mode
                assert np.linalg.norm(resid) < 1e-10


class TestDiagonalSolution:
    def test_t_zero(self, rng):
        model = random_measurement_model(rng, 3)
        rho0 = random_density(rng, 3)
        out = diagonal_solution(decay_matrix(model), rho0, 0.0)
        assert np.linalg.norm(out.matrix - rho0.matrix) < 1e-12

    def test_matches_evolve(self, rng):
        model = random_measurement_model(rng, 3)
        dm = decay_matrix(model)
        rho0 = random_density(rng, 3)
        for t in (0.2, 1.5, 6.0):
            a = diagonal_solution(dm, rho0, t).matrix
            b = evolve(model, rho0, t).matrix
            assert np.linalg.norm(a - b) < 1e-9

    def test_long_time_is_born_rule(self, rng):
        model = random_measurement_model(rng, 3)
        dm = decay_matrix(model)
        rho0 = random_density(rng, 3)
        t_long = 60.0 / dm.gamma_min()
        out = diagonal_solution(dm, rho0, t_long).matrix
        target = born_collapse(rho0, model.basis).matrix
        assert np.linalg.norm(out - target) < 1e-12

    def test_degenerate_class_keeps_coherence(self, rng):
        basis = ProjectorBasis.computational(3)
        model = measurement_model(
            basis, np.array([[0.7, 0.7, -0.5]]), [0.2, 0.2, 0.9]
        )
        dm = decay_matrix(model)
        rho0 = random_density(rng, 3)
        t_long = 50.0 / dm.gamma_min()
        out = diagonal_solution(dm, rho0, t_long).matrix
        class_basis = ProjectorBasis.computational(3, classes=[[0, 1], [2]])
        target = born_collapse(rho0, class_basis).matrix
        # within-class coherence survives (up to the h-phase rotation, which
        # vanishes here because h is equal inside the class)
        assert np.linalg.norm(out - target) < 1e-10
        assert abs(out[0, 1]) > 1e-3


class TestBornLimitCheck:
    def test_diagonal_state_converged_at_zero(self, rng):
        model = random_measurement_model(rng, 2)
        diag = sum(
            p * 0.5 for p in projectors(model.basis)
        )
        rho0 = DensityMatrix.from_matrix(diag)
        converged, residual = born_limit_check(model, rho0, 0.0, 1e-12)
        assert converged and residual < 1e-12

    def test_qubit_rate_two_horizon_twenty(self):
        basis = ProjectorBasis.computational(2)
        model = measurement_model(basis, np.array([[1.0, -1.0]]), [0.0, 0.0])
        plus = DensityMatrix.pure(np.array([1, 1]) / np.sqrt(2))
        converged, residual = born_limit_check(model, plus, 20.0, 1e-12)
        assert converged
        assert residual < 1e-15

    def test_residual_bound(self, rng):
        model = random_measurement_model(rng, 3)
        dm = decay_matrix(model)
        rho0 = random_density(rng, 3)
        horizon = 5.0 / dm.gamma_min()
        _, residual = born_limit_check(model, rho0, horizon, 1.0)
        bound = np.linalg.norm(rho0.matrix) * np.exp(-dm.gamma_min() * horizon)
        assert residual <= 10 * bound

    def test_unbalanced_model_refused(self):
        model = LindbladModel(2, np.zeros((2, 2)), [SM])
        rho0 = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(errors.NotBalanced):
            born_limit_check(model, rho0, 1.0, 1e-6)

    def test_balanced_but_not_measurement_refused(self, rng):
        model = random_lindblad_model(rng, 2, hermitian_ops=True)
        rho0 = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(errors.NotDiagonalFamily):
            born_limit_check(model, rho0, 1.0, 1e-6)

    def test_coefficients_beyond_double_precision_are_overflow(self):
        # L^dag L overflows to inf - inf before any decay rate is formed
        model = measurement_model(ProjectorBasis.computational(3), [[0.0, 1e300, -1.0]],
                                  [0.0, 0.0, 0.0])
        with pytest.raises(errors.Overflow):
            born_limit_check(model, DensityMatrix(np.eye(3) / 3), 1.0, 1e-6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 12), n_ops=st.integers(1, 3), degenerate=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_is_evolve_and_reaches_the_born_limit(d, n_ops, degenerate, seed):
    # a measurement model in a random basis; with ``degenerate`` outcomes 0
    # and 1 share every coefficient and form one class
    rng = np.random.default_rng(seed)
    basis = ProjectorBasis.from_vectors(list(random_unitary(rng, d).T))
    l = rng.standard_normal((n_ops, d)) + 1j * rng.standard_normal((n_ops, d))
    h = rng.standard_normal(d)
    degenerate = degenerate and d > 2
    if degenerate:
        l[:, 1], h[1] = l[:, 0], h[0]
    model = measurement_model(basis, l, h)
    dm = decay_matrix(model)
    rho0 = random_density(rng, d)
    norm1 = np.linalg.norm(build_superoperator(model), 1)
    for t in np.array([1e-3, 0.1, 1.0]) * 1e3 / norm1:  # ||tL||_1 <= 1e3
        exact = diagonal_solution(dm, rho0, t).matrix
        assert np.linalg.norm(exact - evolve(model, rho0, t).matrix) <= 1e-12
    classes = dm.classes()
    assert (classes[0] == [0, 1]) == degenerate
    target = born_collapse(rho0, ProjectorBasis(basis.u, classes))
    for horizon_over_gamma in (1e6, 1e9, 1e12):
        out = diagonal_solution(dm, rho0, horizon_over_gamma / dm.gamma_min()).matrix
        assert np.array_equal(out, out.conj().T)
        assert abs(np.trace(out) - 1.0) <= 1e-14
        assert np.linalg.norm(out - target.matrix) <= 1e-15


class TestLemma:
    def test_stationary_modes_satisfy_adjoint_relation(self, rng):
        model = random_measurement_model(rng, 3)
        spec = spectrum(model)
        h = model.hamiltonian
        for mu, mode, cls in zip(spec.mus, spec.modes, spec.classifications):
            if cls != "stationary":
                continue
            resid = mu * mode - 1j * (h @ mode - mode @ h)
            assert np.linalg.norm(resid) < 1e-8

    def test_commutant_adjoint_eigenvectors_are_modes(self, rng):
        # reverse direction: every |a><b| commutes with all L_a iff the
        # coefficients agree, and is an ad-H eigenvector; it must then be an
        # eigenmode with purely imaginary eigenvalue
        basis = ProjectorBasis.computational(3)
        l = np.array([[0.4, 0.4, -0.9]])
        h = [0.3, 0.8, -0.1]
        model = measurement_model(basis, l, h)
        sop = build_superoperator(model)
        cand = np.zeros((3, 3), dtype=complex)
        cand[0, 1] = 1.0  # same l coefficients, different h
        out = (sop @ cand.reshape(-1)).reshape(3, 3)
        mu = 1j * (h[0] - h[1])  # mu rho = i [H, rho]
        assert np.linalg.norm(out - (-mu) * cand) < 1e-12


class TestDefectiveGenerator:
    def test_exceptional_point_has_jordan_chain(self):
        # damped driven qubit at its exceptional point Delta = gamma/4; the
        # float-noise splitting of the coalesced pair is ~1e-8 (square-root
        # sensitivity), so the cluster tolerance must sit above it
        model = LindbladModel(2, 0.125 * SX, [SM])
        sop = build_superoperator(model)
        cs = matcore.general_eig(sop, tol_cluster=1e-5)
        assert max(map(max, cs.lengths)) == 2
        # chain relations hold at machine precision despite the noise
        idx = list(map(sum, cs.lengths)).index(2)
        b = sop - cs.eigenvalues[idx] * np.eye(4)
        chain = next(c for c in chain_views(cs)[idx] if len(c) == 2)
        assert np.linalg.norm(b @ chain[0]) < 1e-10
        assert np.linalg.norm(b @ chain[1] - chain[0]) < 1e-10

    def test_polynomial_modes_stay_bounded_for_physical_states(self, rng):
        model = LindbladModel(2, 0.125 * SX, [SM])
        rho0 = random_density(rng, 2)
        for t in np.linspace(0.0, 40.0, 15):
            out = evolve(model, rho0, float(t))
            assert abs(np.trace(out.matrix) - 1) < 1e-10
            assert np.linalg.norm(out.matrix) <= 1.0 + 1e-9


class TestSerialization:
    def test_json_roundtrip(self, rng):
        model = random_lindblad_model(rng, 3)
        back = LindbladModel.from_dict(json.loads(model.to_json()))
        assert back.dim == model.dim
        assert np.allclose(back.hamiltonian, model.hamiltonian)
        for a, b in zip(back.lindblads, model.lindblads):
            assert np.allclose(a, b)
