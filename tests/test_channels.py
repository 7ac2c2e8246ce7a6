import importlib.util
import json
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
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
    LindbladModel,
    bfr_derivative_check,
    build_superoperator,
    channels,
    choi_cp_test,
    cli,
    errors,
    gks_build,
    gks_project,
    kernel_from_generator,
    matcore,
)
from lindkit.channels import (
    extract_generator,
    extract_generators,
    kraus_operators,
    reshuffle,
)
from oracles import (choi_eigh, gellmann_basis, gks_build_loops, gks_lindblad_ops,
                     gks_project_loops, kernel_from_unitary_ensemble, reassemble, vec_basis)

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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_entries(self, entry):
        # a NaN defect passes every "defect > tol" check, and choi_cp_test
        # then called the kernel CP
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = entry
        with pytest.raises(errors.Overflow, match="finite"):
            Kernel(2, 1.0, bad)

    def test_json_roundtrip(self, rng):
        k = random_cp_kernel(rng, 2)
        k2 = Kernel.from_dict(json.loads(k.to_json()))
        assert k2.dim == k.dim and k2.tau == k.tau
        assert np.allclose(k2.matrix, k.matrix)


class TestKernelSpectrum:
    def test_tau_zero_structure(self):
        k = Kernel(2, 0.0, np.eye(4, dtype=complex))
        spec = choi_cp_test(k)[1]
        assert np.allclose(spec.lambdas, [2, 0, 0, 0], atol=1e-12)
        assert np.allclose(spec.kraus_like[0], np.eye(2) / np.sqrt(2), atol=1e-12)
        for u in spec.kraus_like[1:]:
            assert abs(np.trace(u)) < 1e-10

    def test_unitary_conjugation_reassembles(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        k = Kernel(2, 1.0, np.kron(sx, sx.conj()))
        spec = choi_cp_test(k)[1]
        assert np.linalg.norm(reassemble(spec) - k.matrix) < 1e-12

    def test_orthonormality_and_completeness(self, rng):
        k = random_cp_kernel(rng, 3)
        spec = choi_cp_test(k)[1]
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
        assert np.linalg.norm(reassemble(choi_cp_test(k)[1]) - k.matrix) < 1e-9


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
        assert np.linalg.norm(via_kraus - (k.matrix @ rho.reshape(-1)).reshape(2, 2)) < 1e-9

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


def _generator(seed, d):
    return build_superoperator(random_lindblad_model(np.random.default_rng(seed), d))


def _diagonal_generator():
    # a d = 3 model with no off-diagonal entry in L
    return build_superoperator(LindbladModel(
        3, np.diag([0.5, -1.0, 2.0]), [np.diag([1.0, 0.3j, -2.0])]))


def _max_relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _seeded_cp_kernel(seed, d):
    return kernel_from_generator(_generator([seed, d], d), 0.7)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", range(3))
def test_kraus_like_is_the_one_eigh_decomposition(d, seed):
    # the eigen-matrices read on demand carry the bits of one eigh of the
    # Choi matrix, sorted descending and phase-fixed
    kernel = _seeded_cp_kernel(seed, d)
    is_cp, spec = choi_cp_test(kernel)
    want_vals, want = choi_eigh(kernel)
    assert is_cp
    assert np.array_equal(spec.kraus_like, want)
    # eigvalsh's eigenvalues match eigh's to rounding, in the same order
    assert np.all(np.diff(spec.lambdas) <= 0)
    bound = 2 * _eigenvalue_bound(reshuffle(kernel.matrix, kernel.dim))
    assert np.abs(spec.lambdas - want_vals).max() <= bound


# |lambda_computed - lambda_exact| <= N_EPS_BOUND n u ||C||_2 for the n x n
# Choi matrix C, u = 2^-53: a backward-stable Hermitian eigensolver returns
# the eigenvalues of C + E with ||E||_2 <= p(n) u ||C||_2, and by Weyl's
# inequality each sorted eigenvalue moves by at most ||E||_2; here p(n) = 2n
N_EPS_BOUND = 2.0


def _eigenvalue_bound(choi):
    return N_EPS_BOUND * len(choi) * (np.finfo(float).eps / 2) * np.linalg.norm(choi, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_choi_eigenvalues_meet_the_backward_error_bound(d, seed):
    kernel = _seeded_cp_kernel(seed, d)
    choi = reshuffle(kernel.matrix, kernel.dim)
    with mpmath.workdps(40):
        exact = mpmath.eigh(mpmath.matrix(choi.tolist()), eigvals_only=True)
        exact = np.sort([float(x) for x in exact])[::-1]
    bound = _eigenvalue_bound(choi)
    assert np.abs(choi_eigh(kernel)[0] - exact).max() <= bound  # the eigh reference
    assert np.abs(choi_cp_test(kernel)[1].lambdas - exact).max() <= bound


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), s=st.floats(0.0, 2.0),
       t=st.floats(0.0, 2.0))
def test_kernel_is_the_exponential_and_a_semigroup(d, seed, s, t):
    # every dense generator is exponentiated as the real V^dag L V
    gen = _generator(seed, d)
    ks, kt = (kernel_from_generator(gen, tau).matrix for tau in (s, t))
    assert _max_relative(kt, scipy.linalg.expm(t * gen)) <= 1e-13
    assert _max_relative(ks @ kt, kernel_from_generator(gen, s + t).matrix) <= 1e-13


@pytest.mark.parametrize("d", [2, 6, 8])
def test_kernel_of_a_zero_generator_or_at_tau_zero_is_the_identity(d):
    assert np.array_equal(kernel_from_generator(_generator(d, d), 0.0).matrix, np.eye(d * d))
    zero = np.zeros((d * d, d * d))
    assert np.array_equal(kernel_from_generator(zero, 0.7).matrix, np.eye(d * d))


@pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
def test_kernels_at_several_times_are_the_one_time_kernels(diagonal):
    # one R for all the times, and each kernel with the bits of its own
    # call; a time past the norm bound raises that call's Overflow
    gen = _generator(3, 3)
    if diagonal:
        gen = _diagonal_generator()
    taus = (0.3, 0.0, 1.1, 0.3)
    got = channels.kernels_from_generator(gen, taus)
    assert [k.tau for k in got] == list(taus)
    for k, tau in zip(got, taus):
        assert k.matrix.tobytes() == kernel_from_generator(gen, tau).matrix.tobytes()
    huge = 2 * matcore.EXPM_NORM_BOUND / np.abs(gen).sum(axis=0).max()
    with pytest.raises(errors.Overflow) as one:
        kernel_from_generator(gen, huge)
    with pytest.raises(errors.Overflow) as several:
        channels.kernels_from_generator(gen, (0.3, huge, 0.0))
    assert str(several.value) == str(one.value)


def _skewed(gen, d, factor):
    """gen with an imaginary entry eps off the trace row of q = V^dag L V, so
    that it stays trace preserving: reshuffle(L) gains the anti-Hermitian
    part of Frobenius norm 2 eps, set to factor times the Kernel's tolerance
    TOL_KERNEL max(1, ||reshuffle(L)||_F)."""
    v = vec_basis(d)
    q = v.conj().T @ gen @ v
    q[2, 1] += 0.5j * factor * channels.TOL_KERNEL * max(1.0, np.linalg.norm(gen))
    return v @ q @ v.conj().T


def _passes_generator_check(gen):
    try:
        channels._real_generator(gen, check=True)
    except errors.NotHermitianKernel:
        return False
    return True


def _passes_reshuffle_test(gen):
    # the Kernel's own test, which the generator check reads off Im(V^dag L V)
    d = int(round(np.sqrt(len(gen))))
    return matcore._is_hermitian(reshuffle(gen, d), channels.TOL_KERNEL)


@pytest.mark.parametrize("factor, inside", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
def test_kernel_needs_a_hermiticity_preserving_generator(d, factor, inside):
    gen = _generator(d, d)
    skewed = _skewed(gen, d, factor)
    if inside:
        got = kernel_from_generator(skewed, 0.6).matrix
        assert _max_relative(got, kernel_from_generator(gen, 0.6).matrix) <= 1e-13
    else:
        with pytest.raises(errors.NotHermitianKernel, match="does not preserve Hermiticity"):
            kernel_from_generator(skewed, 0.6)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_generator_check_has_the_reshuffle_tests_verdict(d, factor):
    for seed in range(3):
        skewed = _skewed(_generator([seed, d], d), d, factor)
        assert _passes_reshuffle_test(skewed) == (factor < 1.0)
        assert _passes_generator_check(skewed) == (factor < 1.0)


def test_generator_check_has_the_reshuffle_tests_verdict_on_bundled_and_digest_models():
    # the bundled models, and the generic models of tools/cli_digest.py
    # (cp-check of their kernels), skewed on either side of the tolerance
    spec = importlib.util.spec_from_file_location(
        "cli_digest", Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    models = [cli._load("extract-generator", "model-qubit")[2][0],
              cli._load("born-check", "born-d3")[2][0]]
    models += [LindbladModel.from_dict(digest._generic(d)[0]) for d in digest.GENERIC_DIMS]
    for model in models:
        gen = build_superoperator(model)
        for skewed in [gen] + [_skewed(gen, model.dim, f) for f in (0.5, 0.9, 1.1, 2.0)]:
            assert _passes_generator_check(skewed) == _passes_reshuffle_test(skewed)
        assert _passes_generator_check(gen)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_kernel_of_a_generator_whose_side_is_not_a_square_is_a_dimension_mismatch(n):
    # raised before any map, so that no Gell-Mann layout of a wrong d is read
    rng = np.random.default_rng(n)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for gen in (dense, np.diag(np.diagonal(dense))):
        with pytest.raises(errors.DimensionMismatch, match="perfect square"):
            kernel_from_generator(gen, 0.5)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_kernel_of_a_non_trace_preserving_generator_fails_the_trace_test(d):
    # L + 0.05 I reaches the Kernel's trace test only through R's first
    # row, which is kept
    gen = _generator(d, d) + 0.05 * np.eye(d * d)
    with pytest.raises(errors.NotTracePreserving):
        kernel_from_generator(gen, 0.5)


@pytest.mark.parametrize("d", [2, 6, 8])
def test_kernel_of_a_huge_generator_is_overflow(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.Overflow):
            kernel_from_generator(1e300 * _generator(d, d), 1.0)


@pytest.mark.parametrize("d", [2, 4, 5, 8, 12])
def test_kernels_of_diagonal_generators_are_the_complex_exponential(d):
    # a generator without off-diagonal entries (a measurement model in the
    # computational basis) keeps the bits of scipy's complex expm of tau L
    rng = np.random.default_rng(d)
    l = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    gen = build_superoperator(LindbladModel(
        d, np.diag(rng.standard_normal(d)), [np.diag(row) for row in l]))
    got = kernel_from_generator(gen, 0.4).matrix
    assert got.tobytes() == scipy.linalg.expm(0.4 * gen).tobytes()


def test_diagonal_generator_kernels_keep_the_identity_and_the_norm_bound():
    # the entrywise exponential of a diagonal L is exactly I at tau = 0,
    # and refuses ||tau L||_1 past the bound with matcore.expm's Overflow
    gen = _diagonal_generator()
    assert kernel_from_generator(gen, 0.0).matrix.tobytes() == np.eye(9, dtype=complex).tobytes()
    tau = 2 * matcore.EXPM_NORM_BOUND / np.abs(np.diagonal(gen)).max()
    with pytest.raises(errors.Overflow) as diagonal:
        kernel_from_generator(gen, tau)
    with pytest.raises(errors.Overflow) as dense:
        matcore.expm(gen, tau)
    assert str(diagonal.value) == str(dense.value)
    # inf times a zero entry is NaN, and 1e300 times -1e10 overflows: both
    # norms are inf, and raise the dense path's Overflow with no warning
    for gen, tau in ((np.zeros((4, 4)), np.inf), (np.diag([0.0, -1e10, -1e10, 0.0]), 1e300)):
        with pytest.raises(errors.Overflow) as diagonal:
            kernel_from_generator(gen, tau)
        with pytest.raises(errors.Overflow) as dense:
            matcore.expm(gen, tau)
        assert str(diagonal.value) == str(dense.value)


def test_a_kernel_beyond_the_double_range_is_overflow_without_a_warning():
    # tau ||L||_1 = 800 is within the norm bound, but e^800 is not a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.Overflow, match="leaves double precision"):
            kernel_from_generator(np.diag([0.0, 800.0, 800.0, 0.0]), 1.0)


def test_a_single_entry_off_the_diagonal_takes_the_dense_path(monkeypatch):
    # H = 0 and the one operator |1><2| at d = 3: L's only off-diagonal entry
    # is ((1, 1), (2, 2)), and entry (0, 1) is zero.  The diagonal path would
    # drop it, giving 0 where exp(tau L) holds 1 - exp(-tau)
    jump = np.zeros((3, 3))
    jump[1, 2] = 1.0
    gen = build_superoperator(LindbladModel(3, np.zeros((3, 3)), [jump]))
    off = gen - np.diag(np.diagonal(gen))
    assert np.flatnonzero(off).tolist() == [4 * 9 + 8] and gen[0, 1] == 0
    calls = []
    real_generator = channels._real_generator
    monkeypatch.setattr(channels, "_real_generator",
                        lambda *a, **k: calls.append(1) or real_generator(*a, **k))
    for tau in (0.3, 1.7):
        got = kernel_from_generator(gen, tau).matrix
        assert np.abs(got - scipy.linalg.expm(tau * gen)).max() <= 1e-12
    assert len(calls) == 2


def test_a_one_by_one_zero_generator_takes_the_diagonal_path(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the dense path was taken")

    monkeypatch.setattr(channels, "_real_generator", dense)
    kernel = kernel_from_generator(np.zeros((1, 1)), 0.8)
    assert kernel.matrix.tolist() == [[1.0]]


@pytest.mark.parametrize("source, tau", [
    ("matrix", -1.0), ("matrix", float("nan")), ("matrix", float("inf")),
    ("dense", -1.0), ("diagonal", -1.0),
])
def test_kernel_refuses_a_negative_or_non_finite_tau(source, tau):
    # exp(-L) of a decaying qubit is the backward propagator, not a kernel
    sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="tau"):
        if source == "matrix":
            Kernel(2, tau, np.eye(4))
        elif source == "dense":
            kernel_from_generator(
                build_superoperator(LindbladModel(2, np.zeros((2, 2)), [sigma_minus])), tau)
        else:
            kernel_from_generator(_diagonal_generator(), tau)


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
    vec_i = np.eye(d, dtype=complex).reshape(-1)
    assert np.linalg.norm(vec_i @ kernel.matrix - vec_i) <= 1e-12  # the trace defect


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
        e_rich = np.linalg.norm(extract_generator(samples, "richardson") - gen)
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

    @pytest.mark.parametrize("scheme", ["central", "richardson"])
    def test_tau_sampled_twice_with_different_kernels(self, rng, scheme):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        h = 1e-3
        samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h, 4 * h)]
        repeat = [(2 * h, kernel_from_generator(gen, 2 * h))]
        assert np.array_equal(extract_generator(samples + repeat, scheme),
                              extract_generator(samples, scheme))
        other = [(2 * h, kernel_from_generator(2.0 * gen, 2 * h))]
        with pytest.raises(errors.InconsistentSamples):
            extract_generator(samples + other, scheme)
        with pytest.raises(errors.InconsistentSamples):
            extract_generator([], scheme)


    def test_schemes_together_share_their_central_differences(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 3))
        h = 1e-3
        samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h, 4 * h)]
        k1, k2, k4 = (k.matrix for _, k in samples)
        eye = np.eye(9)
        l_h = (k2 - eye) @ np.linalg.inv(k1) / (2 * h)
        l_2h = (k4 - eye) @ np.linalg.inv(k2) / (4 * h)
        forward, central, rich = extract_generators(samples, ("forward", "central",
                                                              "richardson"))
        assert np.array_equal(forward, (k1 - eye) / h)
        assert np.array_equal(central, l_h)
        assert np.array_equal(rich, (4.0 * l_h - l_2h) / 3.0)
        for scheme, est in zip(("forward", "central", "richardson"), (forward, central, rich)):
            assert np.array_equal(extract_generator(samples, scheme), est)

    @pytest.mark.parametrize("scheme", ["forward", "central", "richardson"])
    def test_a_subnormal_step_is_overflow_without_a_warning(self, rng, scheme):
        # K(h) - I holds entries of order h, and numpy's complex quotient by a
        # subnormal h overflows; at h = 1e-300 the quotient is still finite
        gen = build_superoperator(random_lindblad_model(rng, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (1e-320, 1e-310):
                samples = [(t, kernel_from_generator(gen, t)) for t in (h, 2 * h, 4 * h)]
                with pytest.raises(errors.Overflow) as raised:
                    extract_generator(samples, scheme)
                assert str(raised.value) == (f"the {scheme} difference quotient at h = {h} "
                                             "overflows double precision")
            samples = [(t, kernel_from_generator(gen, t)) for t in (1e-300, 2e-300, 4e-300)]
            assert np.all(np.isfinite(extract_generator(samples, scheme)))

    def test_schemes_together_raise_what_the_first_failing_scheme_raises(self, rng):
        gen = build_superoperator(random_lindblad_model(rng, 2))
        # K(h) too large and no 4h sample: central names K(h) before
        # Richardson can miss its 4h sample
        samples = [(t, kernel_from_generator(gen, t)) for t in (5.0, 10.0)]
        with pytest.raises(errors.StepTooLarge, match=r"^\|\|K\(h\) - I\|\|"):
            extract_generators(samples, ("central", "richardson"))
        with pytest.raises(errors.InconsistentSamples, match="at 4h"):
            extract_generators(samples, ("richardson", "central"))
        with pytest.raises(ValueError, match="unknown differencing scheme"):
            extract_generators(samples, ("central", "backward"))


class TestUnitaryEnsemble:
    # the oracle averages U (x) conj(U) over its samples; the library's
    # kernels and their action are compared against it
    def test_single_unitary_is_conjugation(self, rng):
        h = random_hermitian(rng, 3)
        p, v = np.linalg.eigh(h)
        u = (v * np.exp(-0.5j * p)) @ v.conj().T
        k = kernel_from_generator(build_superoperator(LindbladModel(3, h, [])), 0.5)
        ref = kernel_from_unitary_ensemble(lambda _k: u, 0.5, 1)
        assert np.abs(k.matrix - ref.matrix).max() < 1e-13

    def test_is_the_mean_of_the_per_sample_products(self, rng):
        us = [random_unitary(rng, 3) for _ in range(20)]
        k = kernel_from_unitary_ensemble(us.__getitem__, 0.5, len(us))
        rho = random_density(rng, 3).matrix
        ref = sum(u @ rho @ u.conj().T for u in us) / len(us)
        assert np.abs((k.matrix @ rho.reshape(-1)).reshape(3, 3) - ref).max() <= 1e-15

    def test_identity_z_ensemble_is_dephasing(self):
        ops = [np.eye(2, dtype=complex), SZ]
        k = kernel_from_unitary_ensemble(lambda i: ops[i % 2], 1.0, 2)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = (k.matrix @ plus.reshape(-1)).reshape(2, 2)
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
