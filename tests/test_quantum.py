import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SM,
    SZ,
    random_density,
    random_hermitian,
    random_lindblad_model,
    random_state,
    random_unitary,
)
from lindkit import (
    DensityMatrix,
    LindbladModel,
    ProjectorBasis,
    born_collapse,
    entropy_rate,
    entropy_rates,
    errors,
    evolve,
    vn_entropies,
    vn_entropy,
)
from oracles import (basis_from_projectors, density_matrix_single, entropy_rate_single,
                     expectation, mixture, projectors, vn_entropy_single)


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.pure([1, 0])
        assert np.allclose(rho.matrix, np.diag([1, 0]))

    def test_repair_clips_tiny_negativity(self):
        mat = np.diag([1.0 + 5e-11, -5e-11])
        rho = DensityMatrix.from_matrix(mat)
        assert rho.repaired
        assert np.linalg.eigvalsh(rho.matrix).min() >= 0
        assert abs(np.trace(rho.matrix) - 1) < 1e-14

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_repaired_states_are_exactly_hermitian(self, rng, d):
        # a rank-deficient state rotated by a random unitary carries
        # rounding-level negative eigenvalues, which the repair clips: its
        # mirror entries are then exact conjugates, and its imaginary
        # diagonal +0.0
        mats = []
        for _ in range(50):
            u = random_unitary(rng, d)
            mats.append((u * np.r_[1.0, np.zeros(d - 1)]) @ u.conj().T)
        states = [rho for rho in DensityMatrix.from_matrices(mats) if rho.repaired]
        assert len(states) >= 10
        for rho in states:
            m = rho.matrix
            assert np.array_equal(m, m.conj().T)
            assert not np.signbit(m.diagonal().imag).any()

    def test_rejects_large_negativity(self):
        with pytest.raises(errors.InvalidDensityMatrix):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(errors.InvalidDensityMatrix):
            DensityMatrix.from_matrix(np.diag([0.7, 0.7]))

    def test_rejects_entries_beyond_any_state_without_a_warning(self):
        # no state has |rho_01| > 1/2: these are Hermitian with unit trace,
        # but 0.5 (a + a^dag) would overflow, and a NaN eigenvalue or norm
        # passes a test that only rejects what exceeds a tolerance
        huge = (np.array([[0.5, 1.7e308], [1.7e308, 0.5]]),
                np.array([[0.5, 1.7e308j], [-1.7e308j, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in huge:
                with pytest.raises(errors.InvalidDensityMatrix):
                    DensityMatrix.from_matrix(m)
                with pytest.raises(errors.InvalidDensityMatrix):
                    DensityMatrix.from_matrices([np.eye(2) / 2, m])
            for v in ([np.nan, 0.0], [1.0, complex(0.0, np.nan)]):
                with pytest.raises(errors.UnnormalizedState):
                    DensityMatrix.pure(v)


class TestMixture:
    # the oracle sums w_i |psi_i><psi_i|; the library's states and state
    # check are compared against it
    def test_single_pure_state(self):
        rho = mixture([1.0], [[1, 0]])
        assert np.array_equal(rho.matrix, DensityMatrix.pure([1, 0]).matrix)

    def test_classical_mixture(self):
        rho = mixture([0.5, 0.5], [[1, 0], [0, 1]])
        assert np.array_equal(rho.matrix, np.eye(2) / 2)

    def test_non_orthogonal_states(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = mixture([0.5, 0.5], [[1, 0], plus])
        collapsed = born_collapse(rho, ProjectorBasis.computational(2))
        assert np.abs(collapsed.matrix - np.diag([0.75, 0.25])).max() < 1e-14

    def test_bad_weights(self):
        with pytest.raises(errors.InvalidDensityMatrix, match="trace is 1.4"):
            mixture([0.7, 0.7], [[1, 0], [0, 1]])
        with pytest.raises(errors.InvalidDensityMatrix, match="trace is 2.0"):
            mixture([1.0], [[1, 1]])

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [0.5, np.nan]])
    def test_non_finite_weights_are_bad_weights(self, weights):
        with pytest.raises(ValueError, match="must be finite"):
            mixture(weights, [[1, 0], [0, 1]])


class TestExpectation:
    # a collapse keeps the expectation of every observable diagonal in its
    # basis; the oracle takes Tr(obs rho)
    def test_maximally_mixed(self, rng):
        basis = ProjectorBasis.from_vectors(random_unitary(rng, 4).T)
        obs = random_hermitian(rng, 4)
        rho = born_collapse(DensityMatrix(np.eye(4) / 4), basis)
        assert abs(expectation(rho, obs) - np.trace(obs).real / 4) < 1e-13

    def test_eigenstate(self):
        rho = born_collapse(DensityMatrix.pure([1, 0]), ProjectorBasis.computational(2))
        assert expectation(rho, SZ) == pytest.approx(1.0)

    def test_matches_per_state_sum(self, rng):
        states = [random_state(rng, 3) for _ in range(4)]
        w = rng.random(4)
        w = w / w.sum()
        u = random_unitary(rng, 3)
        obs = (u * rng.normal(size=3)) @ u.conj().T
        rho = born_collapse(mixture(w, states), ProjectorBasis.from_vectors(u.T))
        ref = sum(wi * np.real(s.conj() @ obs @ s) for wi, s in zip(w, states))
        assert abs(expectation(rho, obs) - ref) < 1e-12


class TestBornCollapse:
    def test_diagonal_fixed_point(self):
        basis = ProjectorBasis.computational(2)
        rho = DensityMatrix.from_matrix(np.diag([0.3, 0.7]))
        out = born_collapse(rho, basis)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_plus_state_in_z_basis(self):
        rho = DensityMatrix.pure(np.array([1, 1]) / np.sqrt(2))
        out = born_collapse(rho, ProjectorBasis.computational(2))
        assert np.allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-14)

    def test_two_qubit_classes_keep_within_class_coherence(self, rng):
        # measuring only the first spin: classes {00,01} and {10,11}
        basis = ProjectorBasis.computational(4, classes=[[0, 1], [2, 3]])
        rho = random_density(rng, 4)
        out = born_collapse(rho, basis).matrix
        assert np.allclose(out[:2, :2], rho.matrix[:2, :2], atol=1e-14)
        assert np.allclose(out[2:, 2:], rho.matrix[2:, 2:], atol=1e-14)
        assert np.allclose(out[:2, 2:], 0.0, atol=1e-14)

    def test_classes_keep_non_adjacent_members(self, rng):
        # class {0, 2} projects with P_0 + P_2, which keeps rho_02
        basis = ProjectorBasis.computational(3, classes=[[0, 2], [1]])
        rho = random_density(rng, 3).matrix
        out = born_collapse(DensityMatrix.from_matrix(rho), basis).matrix
        keep = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        assert np.allclose(out, rho * keep, atol=1e-14)

    def test_idempotent(self, rng):
        basis = ProjectorBasis.computational(3, classes=[[0, 1], [2]])
        rho = random_density(rng, 3)
        once = born_collapse(rho, basis)
        twice = born_collapse(once, basis)
        assert np.linalg.norm(once.matrix - twice.matrix) < 1e-12

    def test_never_decreases_entropy(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            out = born_collapse(rho, ProjectorBasis.computational(4))
            assert vn_entropy(out) >= vn_entropy(rho) - 1e-12

    def test_probabilities_sum_to_one(self, rng):
        rho = random_density(rng, 3)
        out = born_collapse(rho, ProjectorBasis.computational(3))
        assert abs(np.trace(out.matrix) - 1) < 1e-12


class TestProjectorBasis:
    def test_incomplete_set_rejected(self):
        with pytest.raises(errors.IncompleteBasis):
            ProjectorBasis.from_vectors([[1, 0]])  # d=2 but only one projector

    def test_non_orthogonal_rejected(self):
        v = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(errors.IncompleteBasis):
            ProjectorBasis.from_vectors([[1, 0], v])

    def test_bad_class_partition_rejected(self):
        with pytest.raises(errors.IncompleteBasis):
            ProjectorBasis.computational(3, classes=[[0, 1]])

    @pytest.mark.parametrize("vectors, error, match", [
        ([[np.inf, 0.0], [0.0, 1.0]], ValueError, "finite"),
        ([[np.nan, 0.0], [0.0, 1.0]], ValueError, "finite"),
        ([[1e200, 0.0], [0.0, 1.0]], errors.UnnormalizedState, "normalized"),
        ([[1e200 + 1e200j, 0.0], [0.0, 1.0]], errors.UnnormalizedState, "normalized"),
        ([], errors.IncompleteBasis, "at least one"),
        ([[]], errors.IncompleteBasis, "at least one"),
        (1.0, errors.IncompleteBasis, "a list"),
    ], ids=["inf", "nan", "huge", "huge-complex", "empty", "empty-vector", "scalar"])
    def test_bad_vectors_raise_a_typed_error_and_no_warning(self, vectors, error, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                ProjectorBasis.from_vectors(vectors)

    @pytest.mark.parametrize("u", [
        np.diag([1.0, np.nan]), np.diag([1.0, np.inf]), np.diag([1.0, 1e200]),
        np.eye(2)[:, :1], np.zeros((0, 0)), np.ones(2) / np.sqrt(2),
    ], ids=["nan", "inf", "huge", "one-column", "empty", "vector"])
    def test_bad_unitary_raises_incomplete_basis_and_no_warning(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.IncompleteBasis):
                ProjectorBasis(u)

    def test_basis_is_its_unitary(self, rng):
        u = random_unitary(rng, 4)
        basis = ProjectorBasis(u, [[0, 1], [2], [3]])
        assert np.array_equal(basis.u, u)
        assert basis.dim == 4 and basis.classes == [[0, 1], [2], [3]]
        assert np.abs(basis._diagonal(np.eye(4)) - projectors(basis)).max() <= 1e-15

    def test_basis_owns_its_unitary(self, rng):
        # a later change to the caller's array cannot pass the checks by
        u = random_unitary(rng, 3)
        basis = ProjectorBasis(u)
        u[:] = 0.0
        assert not np.array_equal(basis.u, u)
        with pytest.raises(ValueError, match="read-only"):
            basis.u[0, 0] = 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), real=st.booleans())
def test_from_vectors_keeps_the_bits_of_the_projector_round_trip(d, seed, real):
    # random column phases, or a real orthogonal basis with random signs, so
    # that the phase convention is exercised on every branch of the argmax
    rng = np.random.default_rng(seed)
    if real:
        w = np.linalg.qr(rng.standard_normal((d, d)))[0] * rng.choice([-1.0, 1.0], d)
    else:
        w = random_unitary(rng, d) * np.exp(2j * np.pi * rng.random(d))
    u = ProjectorBasis.from_vectors(list(w.T)).u
    assert u.dtype == complex and np.array_equal(u, basis_from_projectors(list(w.T)))


class TestUnitaryStep:
    """Unitary evolution is ``evolve`` of a model without jump operators."""

    @staticmethod
    def step(rho, h, t):
        return evolve(LindbladModel(rho.dim, h, []), rho, t)

    def test_zero_hamiltonian(self, rng):
        rho = random_density(rng, 3)
        out = self.step(rho, np.zeros((3, 3)), 0.5)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_half_larmor_period(self):
        w = 1.3
        plus = DensityMatrix.pure(np.array([1, 1]) / np.sqrt(2))
        out = self.step(plus, w * SZ / 2, np.pi / w)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.linalg.norm(out.matrix - np.outer(minus, minus)) < 1e-12

    def test_purity_preserved(self, rng):
        rho = random_density(rng, 4)
        h = random_hermitian(rng, 4)
        out = self.step(rho, h, 0.7)
        assert abs(
            np.trace(out.matrix @ out.matrix) - np.trace(rho.matrix @ rho.matrix)
        ) < 1e-12

    def test_finite_difference_matches_commutator(self, rng):
        # evolution runs forward only, so the central difference is taken
        # about t = dt
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3)
        dt = 1e-5
        mid = self.step(rho, h, dt).matrix
        drho = (self.step(rho, h, 2 * dt).matrix - rho.matrix) / (2 * dt)
        ref = -1j * (h @ mid - mid @ h)
        assert np.linalg.norm(drho - ref) < 1e-8


class TestEntropy:
    def test_pure_state_zero(self):
        assert vn_entropy(DensityMatrix.pure([1, 0])) == 0.0

    def test_maximally_mixed(self):
        assert abs(vn_entropy(DensityMatrix(np.eye(4) / 4)) - np.log(4)) < 1e-13

    def test_scalar_value(self):
        rho = DensityMatrix.from_matrix(np.diag([0.75, 0.25]))
        ref = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert abs(vn_entropy(rho) - ref) < 1e-14
        assert ref == pytest.approx(0.5623, abs=1e-4)

    def test_range(self, rng):
        rho = random_density(rng, 5)
        assert 0.0 <= vn_entropy(rho) <= np.log(5) + 1e-12


class TestEntropyRate:
    def test_zero_lindblads(self, rng):
        rho = random_density(rng, 3, strictly_positive=True)
        assert entropy_rate(rho, [np.zeros((3, 3))]) == 0.0

    def test_maximally_mixed_is_stationary(self, rng):
        rho = DensityMatrix(np.eye(3) / 3)
        ls = [random_hermitian(rng, 3) for _ in range(2)]
        assert abs(entropy_rate(rho, ls)) < 1e-12

    def test_matches_central_difference(self, rng):
        model = random_lindblad_model(rng, 3, hermitian_ops=True)
        rho0 = random_density(rng, 3, strictly_positive=True)
        t, eps = 0.4, 1e-5
        rho_t = evolve(model, rho0, t)
        rate = entropy_rate(rho_t, model.lindblads)
        s_plus = vn_entropy(evolve(model, rho0, t + eps))
        s_minus = vn_entropy(evolve(model, rho0, t - eps))
        assert abs(rate - (s_plus - s_minus) / (2 * eps)) < 1e-6

    def test_nonnegative_for_balanced_models(self, rng):
        for _ in range(5):
            model = random_lindblad_model(rng, 3, hermitian_ops=True)
            rho = random_density(rng, 3, strictly_positive=True)
            assert entropy_rate(rho, model.lindblads) >= -1e-12

    def test_trace_identity(self, rng):
        ls = [np.asarray(l) for l in random_lindblad_model(rng, 4).lindblads]
        lhs = sum(np.trace(l.conj().T @ l) for l in ls)
        rhs = sum(np.trace(l @ l.conj().T) for l in ls)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_singular_state_rejected(self):
        rho = DensityMatrix.pure([1, 0])
        with pytest.raises(errors.SingularState):
            entropy_rate(rho, [SM])


def _stack_member(rng, d, kind):
    """A matrix that from_matrix accepts as it is ("valid"; "pure" and
    "rank_deficient" with exact zero weights, so rounding leaves eigenvalues
    near 0 of either sign), repairs ("repair": minimum eigenvalue in
    [-1e-10, 0)), or rejects."""
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    w = rng.uniform(0.05, 1.0, d)
    if kind == "repair":
        w[0] = -10.0 ** rng.uniform(-14, -10) * w[1:].sum()
    if kind == "negative":
        w[0] = -1e-3 * w[1:].sum()
    if kind == "pure":
        w[1:] = 0.0
    if kind == "rank_deficient":
        w[:d // 2] = 0.0
    m = (u * (w / w.sum())) @ u.conj().T
    if kind.startswith("not_hermitian"):
        m = m + 1e-3j * np.triu(np.ones((d, d)), 1)
    if kind.endswith("trace"):
        m = 1.01 * m
    return m


def _outcome(f, *args):
    try:
        return True, f(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return False, (type(exc), str(exc))


def _same_bytes(x, y):
    # array_equal would let -0.0 stand for 0.0, which JSON output tells apart
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["valid", "pure", "rank_deficient", "repair", "repair",
                                    "negative", "not_hermitian", "trace",
                                    "not_hermitian_trace"]),
                   min_size=1, max_size=6),
)
def test_stacked_states_equal_per_state_results(d, seed, kinds):
    # the stacked calls, their n = 1 cases, and the one-state-at-a-time
    # oracles give the same matrices, flags, values and first error; the
    # stack's eigenvalues are eigvalsh's of each matrix it holds, repaired
    # or not; at d >= 9 numpy's pairwise sum makes the entropy's bytes
    # depend on which terms it adds
    rng = np.random.default_rng(seed)
    mats = np.stack([_stack_member(rng, d, kind) for kind in kinds])
    stacked = _outcome(DensityMatrix.from_matrices, mats)
    single = [_outcome(DensityMatrix.from_matrix, m) for m in mats]
    oracle = [_outcome(density_matrix_single, m) for m in mats]
    assert [ok for ok, _ in single] == [ok for ok, _ in oracle]
    first_bad = next((r for ok, r in oracle if not ok), None)
    if first_bad is not None:
        assert stacked == (False, first_bad)
        assert [r for ok, r in single if not ok] == [r for ok, r in oracle if not ok]
        return
    states = stacked[1]
    for rho, (_, one), (_, (matrix, repaired)) in zip(states, single, oracle):
        assert rho.repaired == one.repaired == repaired
        assert np.array_equal(rho.matrix, one.matrix)
        assert np.array_equal(rho.matrix, matrix)
    for rho, p in zip(states, states.eigenvalues, strict=True):
        assert p.tobytes() == np.linalg.eigvalsh(rho.matrix).tobytes()
    entropies = vn_entropies(states.eigenvalues)
    assert _same_bytes(entropies, [vn_entropy(s) for s in states])
    assert _same_bytes(entropies, [vn_entropy_single(s.matrix) for s in states])
    ls = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
    rates = _outcome(entropy_rates, states.matrices, ls)
    single_rates = [_outcome(entropy_rate, s, ls) for s in states]
    oracle_rates = [_outcome(entropy_rate_single, s.matrix, ls) for s in states]
    assert single_rates == oracle_rates
    first_bad = next((r for ok, r in oracle_rates if not ok), None)
    if first_bad is not None:
        assert rates == (False, first_bad)
    else:
        assert _same_bytes(rates[1], [r for _, r in oracle_rates])
