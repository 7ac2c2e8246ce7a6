import numpy as np
import pytest

from conftest import random_hermitian, random_matrix, random_measurement_model
from lindkit import build_superoperator, errors
from lindkit.matcore import (
    _cluster_eigenvalues,
    _taylor_plan,
    expm,
    general_eig,
    herm_eig,
    kron,
    unvec,
    vec,
)
from oracles import cluster_pairwise


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
