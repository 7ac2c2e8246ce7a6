import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SZ,
    random_density,
    random_hermitian,
    random_lindblad_model,
    random_matrix,
    random_unitary,
)
from lindkit import (
    GKSForm,
    Kernel,
    bfr_derivative_check,
    build_superoperator,
    choi_cp_test,
    errors,
    gks_build,
    gks_project,
    kernel_from_generator,
    kernel_from_unitary_ensemble,
    kernel_spectrum,
)
from lindkit.channels import (
    extract_generator,
    extract_generator_richardson,
    gellmann_basis,
    gks_lindblad_ops,
    kraus_operators,
    reshuffle,
    trace_defect,
)
from oracles import gks_build_loops, gks_project_loops

TRANSPOSE_D2 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def random_cp_kernel(rng, d, tau=0.7):
    gen = build_superoperator(random_lindblad_model(rng, d))
    return kernel_from_generator(gen, tau)


class TestKernelBasics:
    def test_reshuffle_is_involution(self, rng):
        m = random_matrix(rng, 9)
        assert np.array_equal(reshuffle(reshuffle(m, 3), 3), m)

    def test_identity_at_tau_zero_enforced(self):
        with pytest.raises(errors.NotTracePreserving):
            Kernel(2, 0.0, TRANSPOSE_D2)

    def test_rejects_non_hermiticity_preserving(self, rng):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.3  # breaks the reshuffled Hermiticity
        with pytest.raises(errors.NotHermitianKernel):
            Kernel(2, 1.0, bad)

    def test_rejects_trace_violation(self):
        bad = np.eye(4, dtype=complex) * 1.01
        with pytest.raises((errors.NotTracePreserving, errors.NotHermitianKernel)):
            Kernel(2, 1.0, bad)

    def test_json_roundtrip(self, rng):
        k = random_cp_kernel(rng, 2)
        k2 = Kernel.from_json(k.to_json())
        assert k2.dim == k.dim and k2.tau == k.tau
        assert np.allclose(k2.matrix, k.matrix)


class TestKernelSpectrum:
    def test_tau_zero_structure(self):
        k = Kernel(2, 0.0, np.eye(4, dtype=complex))
        spec = kernel_spectrum(k)
        assert np.allclose(spec.lambdas, [2, 0, 0, 0], atol=1e-12)
        assert np.allclose(spec.kraus_like[0], np.eye(2) / np.sqrt(2), atol=1e-12)
        for u in spec.kraus_like[1:]:
            assert abs(np.trace(u)) < 1e-10

    def test_unitary_conjugation_reassembles(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        k = Kernel(2, 1.0, np.kron(sx, sx.conj()))
        spec = kernel_spectrum(k)
        assert np.linalg.norm(spec.reassemble() - k.matrix) < 1e-12

    def test_orthonormality_and_completeness(self, rng):
        k = random_cp_kernel(rng, 3)
        spec = kernel_spectrum(k)
        gram = np.array(
            [
                [np.sum(u * v.conj()) for v in spec.kraus_like]
                for u in spec.kraus_like
            ]
        )
        assert np.linalg.norm(gram - np.eye(9)) < 1e-10
        total = sum(
            a * (u.conj().T @ u) for a, u in zip(spec.lambdas, spec.kraus_like)
        )
        assert np.linalg.norm(total - np.eye(3)) < 1e-9

    def test_reassembly_random(self, rng):
        k = random_cp_kernel(rng, 2)
        assert np.linalg.norm(kernel_spectrum(k).reassemble() - k.matrix) < 1e-9


class TestChoiCp:
    def test_identity_channel(self):
        is_cp, spec = choi_cp_test(Kernel(3, 1.0, np.eye(9, dtype=complex)))
        assert is_cp
        assert np.allclose(spec.lambdas, [3] + [0] * 8, atol=1e-12)

    def test_transpose_is_positive_but_not_cp(self):
        k = Kernel(2, 1.0, TRANSPOSE_D2)
        is_cp, spec = choi_cp_test(k)
        assert not is_cp
        assert spec.lambdas.min() == pytest.approx(-1.0, abs=1e-12)
        # direct eigensolve oracle on the hand-built Choi (the SWAP matrix)
        swap = reshuffle(TRANSPOSE_D2, 2)
        assert np.allclose(np.sort(np.linalg.eigvalsh(swap)), [-1, 1, 1, 1])

    def test_lindblad_semigroups_are_cp(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        for tau in (0.1, 1.0, 10.0):
            is_cp, spec = choi_cp_test(kernel_from_generator(gen, tau))
            assert is_cp, f"tau={tau}: min lambda {spec.lambdas.min()}"

    def test_lambda_sum_is_d(self, rng):
        _, spec = choi_cp_test(random_cp_kernel(rng, 3))
        assert abs(spec.lambdas.sum() - 3) < 1e-10

    def test_kraus_reproduce_channel(self, rng):
        k = random_cp_kernel(rng, 2)
        _, spec = choi_cp_test(k)
        ops = kraus_operators(spec)
        rho = random_density(rng, 2).matrix
        via_kraus = sum(e @ rho @ e.conj().T for e in ops)
        assert np.linalg.norm(via_kraus - k.apply(rho)) < 1e-9

    def test_choi_theorem_forward(self, rng):
        # all lambda >= 0 implies the extension acts positively on the
        # maximally entangled state
        k = random_cp_kernel(rng, 2)
        d = k.dim
        omega = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                omega[i * d + i, j * d + j] = 1.0 / d
        ext = np.zeros_like(omega)
        _, spec = choi_cp_test(k)
        for lam, e in zip(spec.lambdas, spec.kraus_like):
            w = np.kron(e, np.eye(d))
            ext += lam * (w @ omega @ w.conj().T)
        assert np.linalg.eigvalsh(ext).min() >= -1e-10

    def test_choi_theorem_reverse_witness(self):
        # a forced negative lambda is exposed by the witness expectation
        d = 2
        e_ops = [np.eye(d, dtype=complex) / np.sqrt(d)] + [
            f.copy() for f in gellmann_basis(d)
        ]
        lams = np.array([2.4, -0.4, 0.0, 0.0])
        c_mat = np.eye(d, dtype=complex) / np.sqrt(d)  # maximally entangled
        psi = c_mat.reshape(-1)
        r = np.outer(psi, psi.conj())
        r_prime = np.zeros_like(r)
        for lam, e in zip(lams, e_ops):
            w = np.kron(e, np.eye(d))
            r_prime += lam * (w @ r @ w.conj().T)
        beta = 1  # index of the negative lambda
        w_vec = (e_ops[beta] @ c_mat).reshape(-1)
        val = np.real(w_vec.conj() @ r_prime @ w_vec)
        assert val < -1e-3
        # and the same witness is nonnegative when all lambdas are
        r_ok = np.zeros_like(r)
        for lam, e in zip(np.abs(lams), e_ops):
            w = np.kron(e, np.eye(d))
            r_ok += lam * (w @ r @ w.conj().T)
        assert np.real(w_vec.conj() @ r_ok @ w_vec) >= -1e-12


class TestSemigroup:
    def test_composition_law(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        s, t = 0.3, 0.9
        ks = kernel_from_generator(gen, s).matrix
        kt = kernel_from_generator(gen, t).matrix
        kst = kernel_from_generator(gen, s + t).matrix
        assert np.linalg.norm(ks @ kt - kst) < 1e-9
        assert np.linalg.norm(ks @ kt - kt @ ks) < 1e-9

    def test_continuity_at_zero(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        k = kernel_from_generator(gen, 1e-6)
        assert np.linalg.norm(k.matrix - np.eye(4)) < 1e-4


class TestGellmann:
    def test_orthonormal_traceless(self):
        for d in (2, 3, 4):
            fs = gellmann_basis(d)
            assert len(fs) == d * d - 1
            for i, f in enumerate(fs):
                assert abs(np.trace(f)) < 1e-14
                for j, g in enumerate(fs):
                    ref = 1.0 if i == j else 0.0
                    assert abs(np.trace(f @ g.conj().T) - ref) < 1e-13


class TestGKS:
    def test_pure_hamiltonian_generator(self):
        from lindkit import LindbladModel

        h = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
        sop = build_superoperator(LindbladModel(2, h, []))
        gks = gks_project(sop)
        assert np.linalg.norm(gks.c_matrix) < 1e-12
        diff = gks.hamiltonian - h
        # recovered H equals the input up to a multiple of the identity
        off = diff - np.trace(diff) / 2 * np.eye(2)
        assert np.linalg.norm(off) < 1e-12

    def test_single_hermitian_lindblad_rank_one(self):
        from lindkit import LindbladModel

        l = np.array([[0.3, 0.5], [0.5, -0.3]], dtype=complex)  # traceless
        sop = build_superoperator(LindbladModel(2, np.zeros((2, 2)), [l]))
        gks = gks_project(sop)
        vals = np.linalg.eigvalsh(gks.c_matrix)
        assert np.sum(vals > 1e-10) == 1
        assert vals.max() == pytest.approx(np.trace(l.conj().T @ l).real, abs=1e-10)

    def test_non_cp_generator_flagged(self):
        c = np.diag([1.0, -0.5, 0.3]).astype(complex)
        gks_in = GKSForm(2, 0.2 * SZ, c)
        sop = gks_build(gks_in)
        gks_out = gks_project(sop)
        vals = np.linalg.eigvalsh(gks_out.c_matrix)
        assert vals.min() == pytest.approx(-0.5, abs=1e-10)
        with pytest.raises(errors.NotAGenerator):
            gks_lindblad_ops(gks_out)

    def test_roundtrip_on_random_models(self, rng):
        for d in (2, 3):
            sop = build_superoperator(random_lindblad_model(rng, d))
            gks = gks_project(sop)
            assert np.linalg.norm(gks_build(gks) - sop) < 1e-9

    def test_build_then_project_recovers_c(self, rng):
        c_half = random_matrix(rng, 3)
        c = c_half @ c_half.conj().T
        gks_in = GKSForm(2, np.zeros((2, 2), dtype=complex), c)
        gks_out = gks_project(gks_build(gks_in))
        assert np.linalg.norm(gks_out.c_matrix - c) < 1e-10

    def test_lindblad_ops_rebuild_dissipator(self, rng):
        from lindkit import LindbladModel

        c_half = random_matrix(rng, 3, 0.5)
        c = c_half @ c_half.conj().T
        gks = GKSForm(2, np.zeros((2, 2), dtype=complex), c)
        ops = gks_lindblad_ops(gks)
        rebuilt = build_superoperator(LindbladModel(2, np.zeros((2, 2)), ops))
        assert np.linalg.norm(rebuilt - gks_build(gks)) < 1e-10

    def test_rejects_non_generator(self):
        with pytest.raises(errors.NotAGenerator):
            gks_project(np.eye(4, dtype=complex))

    def test_json_roundtrip(self, rng):
        sop = build_superoperator(random_lindblad_model(rng, 2))
        gks = gks_project(sop)
        back = GKSForm.from_json(gks.to_json())
        assert back.dim == gks.dim
        assert np.allclose(back.hamiltonian, gks.hamiltonian)
        assert np.allclose(back.c_matrix, gks.c_matrix)
        assert np.linalg.norm(gks_build(back) - sop) < 1e-9

    def test_hamiltonian_must_be_d_by_d(self):
        with pytest.raises(errors.DimensionMismatch):
            GKSForm(2, np.zeros((3, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_project_matches_loop_oracle(self, rng, d):
        sop = build_superoperator(random_lindblad_model(rng, d))
        got, ref = gks_project(sop), gks_project_loops(sop)
        for a, b in ((got.hamiltonian, ref.hamiltonian), (got.c_matrix, ref.c_matrix)):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_build_matches_loop_oracle(self, rng, d):
        gks = GKSForm(d, random_hermitian(rng, d), random_hermitian(rng, d * d - 1))
        ref = gks_build_loops(gks)
        assert np.linalg.norm(gks_build(gks) - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), n_ops=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_gks_build_after_project_is_identity(d, n_ops, seed):
    # CP part from jump operators plus an indefinite Hermitian c, so the
    # generators cover the whole trace- and Hermiticity-preserving space
    rng = np.random.default_rng(seed)
    sop = build_superoperator(random_lindblad_model(rng, d, n_ops=n_ops))
    sop = sop + gks_build(
        GKSForm(d, np.zeros((d, d)), random_hermitian(rng, d * d - 1))
    )
    rebuilt = gks_build(gks_project(sop))
    assert np.linalg.norm(rebuilt - sop) <= 1e-12 * np.linalg.norm(sop)


def test_gks_forms_of_dimension_one():
    # d = 1 has no traceless basis: c is 0 x 0 and the only generator is 0
    gks = GKSForm(1, np.zeros((1, 1)), np.zeros((0, 0)))
    assert np.array_equal(gks_build(gks), np.zeros((1, 1)))
    projected = gks_project(np.zeros((1, 1)))
    assert projected.dim == 1 and projected.c_matrix.shape == (0, 0)
    assert np.array_equal(projected.hamiltonian, np.zeros((1, 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 4), rank=st.integers(1, 15), seed=st.integers(0, 2**32 - 1),
       log_tau=st.floats(-3.0, 1.0))
def test_gks_semigroup_with_psd_c_is_cptp(d, rank, seed, log_tau):
    # Gorini-Kossakowski-Sudarshan: exp(tau L) is CPTP when c >= 0; a
    # low-rank c puts Choi eigenvalues at the edge of the cone
    rng = np.random.default_rng(seed)
    n = d * d - 1
    b = rng.standard_normal((n, min(rank, n))) + 1j * rng.standard_normal((n, min(rank, n)))
    c = b @ b.conj().T
    gks = GKSForm(d, random_hermitian(rng, d), c / np.linalg.norm(c, 2))
    kernel = kernel_from_generator(gks_build(gks), 10.0**log_tau)
    is_cp, spec = choi_cp_test(kernel)
    assert is_cp, spec.lambdas.min()
    assert trace_defect(kernel.matrix, d) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_reshuffle_is_an_involution(d, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, d * d)
    assert np.array_equal(reshuffle(reshuffle(m, d), d), m)
    # the identity both GKS maps rest on: reshuffle(A (x) conj B) = vec(A) vec(B)^dag
    a, b = random_matrix(rng, d), random_matrix(rng, d)
    outer = np.outer(a.reshape(-1), b.reshape(-1).conj())
    assert np.array_equal(reshuffle(np.kron(a, b.conj()), d), outer)


class TestBfr:
    def test_identity_c_returns_probe_norm(self):
        gks = GKSForm(2, np.zeros((2, 2), dtype=complex), np.eye(3, dtype=complex))
        seed = 11
        got = bfr_derivative_check(gks, 1, seed=seed)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert got == pytest.approx(float(np.sum(np.abs(w) ** 2)), rel=1e-10)

    def test_positive_definite_never_negative(self):
        gks = GKSForm(2, np.zeros((2, 2), dtype=complex), np.eye(3, dtype=complex))
        assert bfr_derivative_check(gks, 100) > 0

    def test_negative_direction_detected(self):
        c = np.diag([1.0, -0.5, 0.2]).astype(complex)
        gks = GKSForm(2, np.zeros((2, 2), dtype=complex), c)
        assert bfr_derivative_check(gks, 200) < 0

    def test_zero_form(self):
        gks = GKSForm(2, np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex))
        assert bfr_derivative_check(gks, 20) == pytest.approx(0.0, abs=1e-12)


class TestExtractGenerator:
    def test_hamiltonian_round_trip(self, rng):
        from lindkit import LindbladModel

        h = np.array([[0.7, 0.3 + 0.2j], [0.3 - 0.2j, -0.1]])
        gen = build_superoperator(LindbladModel(2, h, []))
        h_step = 1e-4
        samples = [
            (t, kernel_from_generator(gen, t)) for t in (h_step, 2 * h_step)
        ]
        est = extract_generator(samples, "central")
        assert np.linalg.norm(est - gen) <= 1e-6 * np.linalg.norm(gen)

    def test_static_family_gives_zero(self):
        samples = [
            (t, Kernel(2, t, np.eye(4, dtype=complex))) for t in (1e-4, 2e-4)
        ]
        assert np.linalg.norm(extract_generator(samples)) < 1e-12

    def test_second_order_convergence(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        errs = {}
        for h in (1e-3, 5e-4):
            samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h)]
            errs[h] = np.linalg.norm(extract_generator(samples) - gen)
        ratio = errs[1e-3] / errs[5e-4]
        assert 3.3 < ratio < 4.7

    def test_forward_scheme_is_first_order(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        errs = {}
        for h in (1e-4, 5e-5):
            samples = [(h, kernel_from_generator(gen, h))]
            errs[h] = np.linalg.norm(extract_generator(samples, "forward") - gen)
        ratio = errs[1e-4] / errs[5e-5]
        assert 1.8 < ratio < 2.2

    def test_richardson_beats_central(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        h = 1e-3
        samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h, 4 * h)]
        e_central = np.linalg.norm(extract_generator(samples) - gen)
        e_rich = np.linalg.norm(extract_generator_richardson(samples) - gen)
        assert e_rich < 0.1 * e_central

    def test_step_too_large(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        samples = [(t, kernel_from_generator(gen, t)) for t in (5.0, 10.0)]
        with pytest.raises(errors.StepTooLarge):
            extract_generator(samples)

    def test_inconsistent_samples(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        k1 = kernel_from_generator(gen, 1e-4)
        k_other = Kernel(2, 1e-4, np.eye(4, dtype=complex))
        with pytest.raises(errors.InconsistentSamples):
            extract_generator([(1e-4, k1), (1e-4, k_other)])
        with pytest.raises(errors.InconsistentSamples):
            extract_generator([(1e-4, k1), (3e-4, kernel_from_generator(gen, 3e-4))])

    @pytest.mark.parametrize(
        "extract", [extract_generator, extract_generator_richardson]
    )
    def test_tau_sampled_twice_with_different_kernels(self, rng, extract):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        h = 1e-3
        samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h, 4 * h)]
        repeat = [(2 * h, kernel_from_generator(gen, 2 * h))]
        assert np.array_equal(extract(samples + repeat), extract(samples))
        other = [(2 * h, kernel_from_generator(2.0 * gen, 2 * h))]
        with pytest.raises(errors.InconsistentSamples):
            extract(samples + other)
        with pytest.raises(errors.InconsistentSamples):
            extract([])


class TestUnitaryEnsemble:
    def test_single_unitary_is_conjugation(self, rng):
        u = random_unitary(rng, 2)
        k = kernel_from_unitary_ensemble(lambda _k: u, 0.5, 1)
        assert np.linalg.norm(k.matrix - np.kron(u, u.conj())) < 1e-13

    def test_is_the_mean_of_the_per_sample_products(self, rng):
        us = [random_unitary(rng, 3) for _ in range(20)]
        k = kernel_from_unitary_ensemble(us.__getitem__, 0.5, len(us))
        ref = sum(np.kron(u, u.conj()) for u in us) / len(us)
        assert np.abs(k.matrix - ref).max() <= 1e-15

    def test_identity_z_ensemble_is_dephasing(self):
        ops = [np.eye(2, dtype=complex), SZ]
        k = kernel_from_unitary_ensemble(lambda i: ops[i % 2], 1.0, 2)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = k.apply(plus)
        assert out[0, 0] == pytest.approx(0.5)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_random_phase_ensemble_cp(self):
        rng = np.random.default_rng(3)
        phases = rng.uniform(0, 2 * np.pi, size=100_000)

        def sampler(k):
            return np.diag([1.0, np.exp(1j * phases[k])])

        k = kernel_from_unitary_ensemble(sampler, 1.0, len(phases))
        is_cp, spec = choi_cp_test(k)
        assert is_cp
        # the ensemble average approaches the fully dephasing kernel
        ideal = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        assert np.linalg.norm(k.matrix - ideal) < 1e-2
