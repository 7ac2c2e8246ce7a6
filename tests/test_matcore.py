import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_matrix, random_measurement_model
from lindkit import GKSForm, LindbladModel, build_superoperator, errors, gks_project, quantum
from lindkit.matcore import (
    _TAYLOR_M,
    _cluster_eigenvalues,
    _is_hermitian,
    _taylor_plan,
    expm,
    expm_action,
    general_eig,
    hermiticity_defect,
    herm_eig,
    kron,
    unvec,
    vec,
)
from lindkit.perturb import first_order
from oracles import cluster_pairwise, expm_action_loop


def charpoly_roots(a):
    """Independent eigenvalue oracle: characteristic-polynomial coefficients
    by Faddeev-LeVerrier, roots from the companion matrix (np.roots)."""
    d = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, d + 1):
        m = a @ m + coeffs[-1] * np.eye(d)
        coeffs.append(-np.trace(a @ m) / k)
    return np.roots(coeffs)


def expm_taylor(a, t, terms=30):
    """Truncated-series oracle with pre-scaling and repeated squaring."""
    m = t * a
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(m, 1), 1e-30) / 0.5))))
    m = m / 2**s
    acc = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


class TestHermEig:
    def test_identity(self):
        vals, vecs = herm_eig(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(vecs @ vecs.conj().T, np.eye(3))

    def test_pauli_x(self):
        vals, _ = herm_eig(np.array([[0, 1], [1, 0]]))
        assert np.allclose(vals, [-1, 1])

    def test_matches_charpoly_roots(self, rng):
        a = random_hermitian(rng, 5)
        vals, _ = herm_eig(a)
        ref = np.sort(charpoly_roots(a).real)
        assert np.max(np.abs(vals - ref)) < 1e-10

    def test_reconstruction_up_to_d16(self, rng):
        for d in (2, 5, 9, 16):
            a = random_hermitian(rng, d)
            vals, vecs = herm_eig(a)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(d)) < 1e-10

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(errors.NotHermitian):
            herm_eig(random_matrix(rng, 3))


# A Hamiltonian-like matrix that is not Hermitian, with entries whose squares
# overflow: ||m - m^dag||_F and ||m||_F are both infinite unless scaled.
_HUGE_NOT_HERMITIAN = [np.array([[0.5, big], [0.0, -0.5]]) for big in (1e300, 1.7e308)]


@pytest.mark.parametrize("m", _HUGE_NOT_HERMITIAN, ids=["1e300", "1.7e308"])
@pytest.mark.parametrize("check, error, reports_defect", [
    (lambda m: LindbladModel(2, m, []), errors.NotHermitianH, False),
    (herm_eig, errors.NotHermitian, True),
    (lambda m: quantum.expectation(quantum.DensityMatrix.maximally_mixed(2), m),
     errors.NotHermitian, False),
    (lambda m: quantum.unitary_step(quantum.DensityMatrix.maximally_mixed(2), m, 0.1),
     errors.NotHermitian, False),
    (lambda m: first_order(np.eye(2), m), errors.NotHermitian, False),
    (lambda m: GKSForm(2, m, np.eye(3)), errors.NotHermitian, False),
    # -i[m, .] preserves the trace but, m not being Hermitian, not Hermiticity
    (lambda m: gks_project(-1j * (np.kron(m, np.eye(2)) - np.kron(np.eye(2), m.T))),
     errors.NotHermitianKernel, True),
], ids=["model", "herm_eig", "expectation", "unitary_step", "first_order", "gks",
        "gks_project"])
def test_hermiticity_checks_hold_where_norms_overflow(m, check, error, reports_defect):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as exc:
            check(m)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    defect = re.search(r"defect ([^\s)]+)", str(exc.value))
    assert (defect is not None) == reports_defect
    assert defect is None or math.isfinite(float(defect.group(1)))


def test_hermiticity_verdict_is_the_unscaled_one_where_that_is_finite(rng):
    # scaling by a power of two is exact, so the verdict near the threshold
    # matches the unscaled formula; huge Hermitian matrices still pass
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a = random_hermitian(rng, d, scale=10.0 ** rng.uniform(-5, 150))
        a = a + 1e-10 * rng.uniform(0.5, 2.0) * np.linalg.norm(a) * random_matrix(rng, d) / d
        old = hermiticity_defect(a) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert _is_hermitian(a, 1e-10) == old
    assert _is_hermitian(np.array([[0.5, 1.7e308], [1.7e308, -0.5]]), 1e-10)
    assert _is_hermitian(np.array([[1e308j, 0.0], [0.0, -1e308j]]), 1e-10) is False
    assert _is_hermitian(np.zeros((0, 0)), 1e-10)


class TestGeneralEig:
    def test_jordan_block(self):
        lam = 2.5 - 0.5j
        a = np.array([[lam, 1], [0, lam]])
        cs = general_eig(a)
        assert len(cs.eigenvalues) == 1
        assert abs(cs.eigenvalues[0] - lam) < 1e-8
        assert [len(c) for c in cs.chains[0]] == [2]
        v1, v2 = cs.chains[0][0]
        b = a - cs.eigenvalues[0] * np.eye(2)
        assert np.linalg.norm(b @ v1) < 1e-8
        assert np.linalg.norm(b @ v2 - v1) < 1e-8
        assert cs.rank_flags[0][0] == [1, 2]

    def test_diagonal(self):
        cs = general_eig(np.diag([1.0, 2.0, 3.0]))
        assert sorted(np.real(cs.eigenvalues)) == [1.0, 2.0, 3.0]
        for per_eig in cs.chains:
            assert [len(c) for c in per_eig] == [1]

    def test_nilpotent_chain_and_exp_polynomial(self):
        n = np.diag([1.0, 1.0], k=1)  # 3x3, ones on the superdiagonal
        cs = general_eig(n)
        assert len(cs.eigenvalues) == 1 and abs(cs.eigenvalues[0]) < 1e-10
        assert [len(c) for c in cs.chains[0]] == [3]
        # exp(tN) must equal the exactly truncated series I + tN + t^2 N^2/2
        for t in (0.3, 1.7):
            poly = np.eye(3) + t * n + t**2 / 2 * (n @ n)
            assert np.linalg.norm(expm(n, t) - poly) < 1e-13

    def test_chain_orthonormality_on_canonical_fixtures(self):
        n = np.diag([1.0, 1.0, 1.0], k=1)
        cs = general_eig(n)
        vecs = cs.all_vectors()
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-10)

    def test_completeness_random(self, rng):
        for d in (3, 6, 10):
            a = random_matrix(rng, d)
            cs = general_eig(a)
            assert np.linalg.matrix_rank(cs.all_vectors()) == d
            assert sum(cs.multiplicities) == d

    def test_chain_relations_random(self, rng):
        a = random_matrix(rng, 6)
        cs = general_eig(a)
        for lam, per_eig in zip(cs.eigenvalues, cs.chains):
            b = a - lam * np.eye(6)
            for chain in per_eig:
                assert np.linalg.norm(b @ chain[0]) < 1e-6
                for lo, hi in zip(chain, chain[1:]):
                    assert np.linalg.norm(b @ hi - lo) < 1e-6

    def test_ill_conditioned_cluster_fails_loudly(self):
        # forcing two genuinely distinct eigenvalues into one cluster leaves
        # the generalized null space short of the algebraic multiplicity;
        # that must surface as IllConditioned, not a silently merged answer
        with pytest.raises(errors.IllConditioned) as exc:
            general_eig(np.diag([1.0, 1.5]), tol_cluster=1.0)
        assert exc.value.cluster is not None

    def test_mixed_jordan_structure(self):
        # blocks: 2-chain at 1, 1-chain at 1, 1-chain at 4 (via similarity)
        j = np.diag([1.0, 1.0, 1.0, 4.0])
        j[0, 1] = 1.0
        rng = np.random.default_rng(5)
        s = rng.standard_normal((4, 4)) + 0.1 * np.eye(4)
        a = s @ j @ np.linalg.inv(s)
        cs = general_eig(a)
        by_val = {round(ev.real, 3): sorted(len(c) for c in per)
                  for ev, per in zip(cs.eigenvalues, cs.chains)}
        assert by_val == {1.0: [1, 2], 4.0: [1]}


    def test_simple_clusters_give_unit_eigenvectors(self, rng):
        a = random_matrix(rng, 36)
        cs = general_eig(a)
        assert cs.multiplicities == [1] * 36
        scale = np.linalg.norm(a, 2)
        for lam, (chain,) in zip(cs.eigenvalues, cs.chains):
            assert len(chain) == 1
            assert abs(np.linalg.norm(chain[0]) - 1.0) < 1e-13
            assert np.linalg.norm(a @ chain[0] - lam * chain[0]) <= 1e-10 * scale

    def test_measurement_stationary_cluster_is_orthonormal(self, rng):
        for d in (3, 4, 6):
            cs = general_eig(build_superoperator(random_measurement_model(rng, d)))
            k = int(np.argmin(np.abs(cs.eigenvalues)))
            assert cs.multiplicities[k] == d
            assert [len(c) for c in cs.chains[k]] == [1] * d
            vecs = np.column_stack([c[0] for c in cs.chains[k]])
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(d)) < 1e-10


def test_cluster_norm_failure_is_no_convergence():
    # a Hermitian H with entries near 1.7e308: the generator's eigenvalues
    # are infinite, the default cluster tolerance ||A||_2 too, and the
    # cluster's ||A - lambda I||_2 fails in LAPACK
    h = np.array([[0.5, 1.7e308], [1.7e308, -0.5]])
    sop = build_superoperator(LindbladModel(2, h, [np.array([[0.0, 0.3], [0.3, 0.0]])]))
    with pytest.raises(errors.NoConvergence):
        general_eig(sop)


def test_cluster_power_overflow_is_overflow():
    # a defective double eigenvalue 0 whose ||A - lambda I||^2 overflows
    with pytest.raises(errors.Overflow):
        general_eig(np.array([[0.0, 1e300], [0.0, 0.0]]))


class TestClusterEigenvalues:
    """The real-part sweep must give exactly the groups of the all-pairs
    union-find, in the same order."""

    def test_random_inputs(self, rng):
        for n in (1, 2, 7, 40, 150):
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for tol in (1e-3, 0.1, 0.5):
                assert _cluster_eigenvalues(vals, tol) == cluster_pairwise(vals, tol)

    def test_clustered_inputs(self, rng):
        tol = 1e-6
        centres = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        centres[1] = centres[0].real + 1j * (centres[0].imag + 10 * tol)
        vals = centres[rng.integers(0, 6, 80)]
        vals = vals + 0.6 * tol * (rng.standard_normal(80) + 1j * rng.standard_normal(80))
        on_axis = 1j * np.repeat(rng.standard_normal(10), 4)
        on_axis = on_axis + 1j * 0.4 * tol * rng.standard_normal(40)
        for v in (vals, on_axis, np.concatenate([vals, on_axis])):
            assert _cluster_eigenvalues(v, tol) == cluster_pairwise(v, tol)

    @pytest.mark.parametrize(
        "vals, groups",
        [
            ([0.0, 0.9, 1.8], [[0, 1, 2]]),
            ([1.8j, 0.0, 0.9j], [[0, 1, 2]]),
            ([0.0, 1.2 + 1.2j, 0.6 + 0.6j], [[0, 1, 2]]),
            ([0.0, 1.5, 0.75 + 0.5j], [[0, 1, 2]]),
            ([0.0, 0.5 + 5j, 0.6, 0.4 + 5j], [[0, 2], [1, 3]]),
            ([0.0, 1.0, 2.0 + 1e-12], [[0, 1], [2]]),
            ([3.5, 0.0, 1.1, 2.2], [[0], [1], [2], [3]]),
        ],
    )
    def test_chains_merge_transitively(self, vals, groups):
        # a ~ b ~ c with |a - c| > tol is one group; exactly tol still links
        vals = np.asarray(vals, dtype=complex)
        assert _cluster_eigenvalues(vals, 1.0) == groups
        assert cluster_pairwise(vals, 1.0) == groups


class TestExpm:
    def test_t_zero_is_identity_exact(self, rng):
        a = random_matrix(rng, 4)
        assert np.array_equal(expm(a, 0.0), np.eye(4))

    def test_rotation_generator(self):
        th = 0.77
        g = np.array([[0, -th], [th, 0]])
        ref = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert np.linalg.norm(expm(g, 1.0) - ref) < 1e-14

    def test_matches_taylor_oracle(self, rng):
        a = random_matrix(rng, 4)
        assert np.linalg.norm(expm(a, 0.3) - expm_taylor(a, 0.3)) < 1e-12

    def test_matches_taylor_oracle_at_norm_ten(self, rng):
        a = random_matrix(rng, 4)
        a *= 10.0 / np.linalg.norm(a, 1)
        ref = expm_taylor(a, 1.0)
        assert np.linalg.norm(expm(a, 1.0) - ref) < 1e-12 * np.linalg.norm(ref)

    def test_group_law(self, rng):
        a = random_matrix(rng, 5)
        a *= 5.0 / np.linalg.norm(a)
        s, t = 0.4, 1.3
        assert np.linalg.norm(
            expm(a, s) @ expm(a, t) - expm(a, s + t)
        ) < 1e-10

    def test_overflow_guard(self):
        with pytest.raises(errors.Overflow):
            expm(np.eye(2) * 1e9, 1.0)


def _series_case(n, seed, log_x, log_norm, nilpotent):
    """(a, t, v, ||a||_1) with ||t*a||_1 = 10^log_x."""
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, n)
    if nilpotent:  # a^n v = 0: the series stops early once m > n + 1
        a = np.triu(a, 1)
    norm1 = float(np.linalg.norm(a, 1))
    if norm1 > 0.0:
        a *= 10.0**log_norm / norm1
        norm1 = float(np.linalg.norm(a, 1))
    t = 10.0**log_x / (norm1 if norm1 > 0.0 else 1.0)
    return a, t, random_matrix(rng, n)[0], norm1


class TestExpmAction:
    # m = 1 with s = 2; s = 2 with m = 40 (80 < n products); one dense expm
    @pytest.mark.parametrize("n, log_x, want", [
        (6, np.log10(3e-16), (1, 2, False)),
        (100, np.log10(11.0), (40, 2, False)),
        (4, 0.0, (None, None, True)),
    ])
    def test_regimes_match_the_reference_loop_bit_for_bit(self, rng, n, log_x, want):
        a, t, v, norm1 = _series_case(n, 1, log_x, 0.5, False)
        k, products, dense = _taylor_plan(t, norm1, n)
        m = int(_TAYLOR_M[k])
        assert (want[2] if dense else (m, int(products) // m, False) == want)
        assert expm_action(a, t, v, norm1).tobytes() == expm_action_loop(a, t, v, norm1).tobytes()

    @pytest.mark.parametrize("lam, terms", [
        (1e-6, 5),
        (0.8 * 2.0**-53, 3),  # c_1 + c_2 is 0.8 of the threshold
    ])
    def test_early_stop_matches_the_reference_loop_bit_for_bit(self, lam, terms):
        # the series (m = 18 < n) stops once the terms of the second
        # component fall below 2^-53; the first component, which later terms
        # would still change, shows where it stopped
        a = np.diag([1.0] + [lam] * 23).astype(complex)
        v = np.zeros(24, dtype=complex)
        v[:2] = 1e-30, 1.0
        assert not _taylor_plan(1.0, 1.0, 24)[2]
        got = expm_action(a, 1.0, v, 1.0)
        assert got.tobytes() == expm_action_loop(a, 1.0, v, 1.0).tobytes()
        partial_sum = sum(1.0 / np.prod(np.arange(1, j + 1)) for j in range(terms))
        assert got[0] == pytest.approx(1e-30 * partial_sum, rel=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
           log_x=st.floats(-17.0, 1.5), log_norm=st.floats(-3.0, 3.0),
           nilpotent=st.booleans())
    @example(n=3, seed=0, log_x=-3.0, log_norm=0.0, nilpotent=True)
    @example(n=96, seed=2, log_x=1.2, log_norm=2.0, nilpotent=False)
    def test_is_the_reference_loop_bit_for_bit(self, n, seed, log_x, log_norm, nilpotent):
        a, t, v, norm1 = _series_case(n, seed, log_x, log_norm, nilpotent)
        got = expm_action(a, t, v, norm1)
        assert got.tobytes() == expm_action_loop(a, t, v, norm1).tobytes()


class TestTaylorPlan:
    def test_plan_over_a_vector_of_steps_is_the_scalar_plans(self):
        steps = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 50.0, 60)])
        for norm1, n in ((3.7, 16), (64.0, 64), (1e4, 144)):
            plans = _taylor_plan(steps, norm1, n)
            for j, t in enumerate(steps):
                assert [p[j] for p in plans] == [p[()] for p in _taylor_plan(t, norm1, n)]


class TestKronVec:
    def test_kron_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_mixed_product(self, rng):
        a, b, x, y = (random_matrix(rng, 2) for _ in range(4))
        lhs = kron(a, b) @ kron(x, y)
        rhs = kron(a @ x, b @ y)
        assert np.linalg.norm(lhs - rhs) < 1e-13

    def test_trace_factorization(self, rng):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_vec_ordering(self):
        m = np.array([[1, 2], [3, 4]])
        assert np.array_equal(vec(m), [1, 2, 3, 4])

    def test_roundtrip_exact(self, rng):
        m = random_matrix(rng, 5)
        assert np.array_equal(unvec(vec(m)), m)

    def test_vec_of_product_identity(self, rng):
        a, x, b = (random_matrix(rng, 3) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = kron(a, b.T) @ vec(x)
        assert np.linalg.norm(lhs - rhs) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            unvec(np.arange(5))
