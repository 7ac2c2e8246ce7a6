import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (random_hermitian, random_lindblad_model, random_matrix,
                      random_measurement_model)
from lindkit import (GKSForm, LindbladModel, build_superoperator, errors, gks_project, lindblad,
                     matcore, quantum)
from lindkit.matcore import (
    _TAYLOR_M,
    _cluster_labels,
    _is_hermitian,
    _real_span,
    _step_actions,
    _taylor_plan,
    _taylor_series,
    expm,
    general_eig,
    herm_eig,
)
from lindkit.perturb import first_order
from oracles import (chain_views, cluster_pairwise, expm_action_loop, hermitian_scaled,
                     hermiticity_defect, unit_scaled_parts)


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
    (quantum.DensityMatrix.from_matrix, errors.NotHermitian, False),
    (lambda m: first_order(np.eye(2), m), errors.NotHermitian, False),
    (lambda m: GKSForm(2, m, np.eye(3)), errors.NotHermitian, False),
    # -i[m, .] preserves the trace but, m not being Hermitian, not Hermiticity
    (lambda m: gks_project(-1j * (np.kron(m, np.eye(2)) - np.kron(np.eye(2), m.T))),
     errors.NotHermitianKernel, True),
], ids=["model", "herm_eig", "density_matrix", "first_order", "gks", "gks_project"])
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
    # stacks, a given unit as gks_project passes it, entries whose squares
    # overflow (1e154-1e308), and NaN and infinite entries: the verdict is
    # the scaled route's, matrix by matrix, and no warning is raised
    for stack in [()] * 100 + [(1,), (7,), (3, 2)] * 50:
        d = int(rng.integers(1, 6))
        shape = (*stack, d, d)
        tol = float(rng.choice([1e-10, 1e-8]))
        a = random_matrix(rng, d) if not stack else (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        a = a + np.swapaxes(a, -1, -2).conj()
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        size = np.linalg.norm(a, axis=(-2, -1))[..., None, None]
        a = a + tol * rng.uniform(0.5, 2.0, (*stack, 1, 1)) * size * noise / (2 * d)
        # about half the matrices in the range where squares overflow
        log_scale = np.where(rng.random((*stack, 1, 1)) < 0.5,
                             rng.uniform(154, 307), rng.uniform(-5, 150))
        a = a * 10.0 ** log_scale
        if rng.random() < 0.3:  # non-finite entries in some matrices
            bad = (rng.random(shape) < 0.3) & (rng.random((*stack, 1, 1)) < 0.5)
            a[bad] = rng.choice([np.nan, np.inf, -np.inf, complex(0, np.inf),
                                 complex(np.nan, 1.0)])
        for unit in (1.0, 2.0 ** -int(rng.integers(1, 60))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _is_hermitian(a, tol, unit)
            assert np.array_equal(got, hermitian_scaled(a, tol, unit))
            assert got.shape == stack if stack else isinstance(got, bool)
            assert not np.any(np.asarray(got)[~np.isfinite(a).all(axis=(-2, -1))])


def test_unit_scale_is_the_one_of_the_parts_taken_apart(rng, monkeypatch):
    # one reduction over the real view of the entries finds the scale the
    # real and imaginary parts give apart: same scaled copies, same verdicts
    def layouts(a):
        yield a
        yield a[::2, :, ::-1]
        yield np.swapaxes(a, -1, -2)
        yield np.asfortranarray(a[0])
        yield a.real.copy()

    cases = []
    for k in range(1000):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = random_matrix(rng, d) * 10.0 ** rng.uniform(-300, 300, (n, 1, 1))
        if k % 2:  # Hermitian stacks, which the verdict passes
            a = a + np.swapaxes(a, -1, -2).conj()
        else:
            a[rng.random(a.shape) < 0.2] *= 1j
        if k % 10 == 1:  # a NaN or infinite entry in one matrix of the stack
            a[0, 0, -1] = rng.choice([np.nan, np.inf, complex(0, -np.inf)])
        cases.extend(layouts(a))
    cases += [np.zeros((0, 0), complex), np.zeros((3, 0, 0)), np.full((2, 2), np.nan + 0j)]
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 scaling an infinite entry
        for a in cases:
            got, want = matcore._unit_scaled(a), unit_scaled_parts(a)
            assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
            assert np.array_equal(got[1], want[1])
    units = (1.0, 2.0**-40)  # as the matrix of interest, or its scaled copy
    verdicts = [_is_hermitian(a, 1e-10, unit) for a in cases for unit in units]
    assert any(np.any(v) for v in verdicts) and not all(np.all(v) for v in verdicts)
    monkeypatch.setattr(matcore, "_unit_scaled", unit_scaled_parts)
    for a, pair in zip(cases, zip(*[iter(verdicts)] * 2)):
        for unit, verdict in zip(units, pair):
            assert np.array_equal(_is_hermitian(a, 1e-10, unit), verdict)
            assert np.array_equal(hermitian_scaled(a, 1e-10, unit), verdict)


class TestGeneralEig:
    def test_jordan_block(self):
        lam = 2.5 - 0.5j
        a = np.array([[lam, 1], [0, lam]])
        cs = general_eig(a)
        assert len(cs.eigenvalues) == 1
        assert abs(cs.eigenvalues[0] - lam) < 1e-8
        v1, v2 = cs.vectors.T
        b = a - cs.eigenvalues[0] * np.eye(2)
        assert np.linalg.norm(b @ v1) < 1e-8
        assert np.linalg.norm(b @ v2 - v1) < 1e-8
        assert cs.lengths == [[2]]

    def test_diagonal(self):
        cs = general_eig(np.diag([1.0, 2.0, 3.0]))
        assert sorted(np.real(cs.eigenvalues)) == [1.0, 2.0, 3.0]
        assert cs.lengths == [[1]] * 3

    def test_nilpotent_chain_and_exp_polynomial(self):
        n = np.diag([1.0, 1.0], k=1)  # 3x3, ones on the superdiagonal
        cs = general_eig(n)
        assert len(cs.eigenvalues) == 1 and abs(cs.eigenvalues[0]) < 1e-10
        assert cs.lengths == [[3]]
        # exp(tN) must equal the exactly truncated series I + tN + t^2 N^2/2
        for t in (0.3, 1.7):
            poly = np.eye(3) + t * n + t**2 / 2 * (n @ n)
            assert np.linalg.norm(expm(n, t) - poly) < 1e-13

    def test_chain_orthonormality_on_canonical_fixtures(self):
        n = np.diag([1.0, 1.0, 1.0], k=1)
        cs = general_eig(n)
        vecs = cs.vectors
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-10)

    def test_completeness_random(self, rng):
        for d in (3, 6, 10):
            a = random_matrix(rng, d)
            cs = general_eig(a)
            assert np.linalg.matrix_rank(cs.vectors) == d
            assert sum(map(sum, cs.lengths)) == d

    def test_chain_relations_random(self, rng):
        a = random_matrix(rng, 6)
        cs = general_eig(a)
        for lam, per_eig in zip(cs.eigenvalues, chain_views(cs)):
            b = a - lam * np.eye(6)
            for chain in per_eig:
                assert np.linalg.norm(b @ chain[0]) < 1e-6
                for lo, hi in zip(chain, chain[1:]):
                    assert np.linalg.norm(b @ hi - lo) < 1e-6

    @pytest.mark.parametrize("c", [1.0, 1e-9, 1e-12])
    def test_jordan_block_of_any_size_keeps_its_chain(self, c):
        # an exactly degenerate cluster has no spread to forgive, whatever
        # ||A|| is
        assert general_eig(c * np.array([[0.0, 1.0], [0.0, 0.0]])).lengths == [[2]]

    def test_tiny_jordan_block_keeps_its_chain(self):
        # the head V_1 of 1e-100 N's chain has entries of about 1e-200, whose
        # squares underflow: the chain is found for B scaled to unit size
        n = 1e-100 * np.diag([1.0, 1.0], k=1)
        cs = general_eig(n)
        assert cs.lengths == [[3]]
        v1, v2, v3 = cs.vectors.T
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-15
        assert not (n @ v1).any()
        assert np.array_equal(n @ v2, v1) and np.array_equal(n @ v3, v2)

    def test_jordan_ladder_that_no_structure_fits_is_ill_conditioned(self):
        # the cluster {0, +-1e-6}: its spread reads as rounding only up to
        # 1e-8 in the null space of B, but 1e-12 is below B^2's cutoff, so
        # the null spaces of B, B^2 read 1 and 3 dimensions: a growth of 2
        # after a growth of 1, which no Jordan structure makes
        with pytest.raises(errors.IllConditioned, match=re.escape("[0, 1, 3]")):
            general_eig(np.diag([0.0, 1e-6, -1e-6, 1.0]), tol_cluster=1e-3)

    @pytest.mark.parametrize("c", [1e-150, 1e-100, 1.0, 1e100, 1e150])
    def test_jordan_chain_at_any_scale(self, c):
        # c N, N the 3 x 3 shift: the chain e1, e2 / c, e3 / c^2 whenever
        # its vectors are doubles; the rank tests run on B scaled to unit size
        a = c * np.diag([1.0, 1.0], k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = general_eig(a)
        assert cs.eigenvalues == [0.0] and cs.lengths == [[3]]
        v1, v2, v3 = cs.vectors.T
        assert np.array_equal(np.abs(v1), [1.0, 0.0, 0.0])
        for lo, hi, k in ((v1, v2, 1), (v2, v3, 2)):
            # hi is e_k / c^k up to rounding, and a @ hi is lo
            assert abs(abs(hi[k]) * c**k - 1.0) <= 1e-15
            assert np.abs(hi[:k] * c**k).max() <= 1e-15 and not hi[k + 1:].any()
            assert np.abs((a @ hi - lo) * c**(k - 1)).max() <= 1e-15

    @pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e200])
    def test_jordan_chain_beyond_double_precision_is_overflow(self, c):
        # e3 / c^2 overflows (c = 1e-300: about 1e600), or falls below the
        # normal doubles (c = 1e160: about 1e-320, 10 bits) or to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.Overflow, match="cluster at 0"):
                general_eig(c * np.diag([1.0, 1.0], k=1))

    def test_defective_pair_of_huge_coupling_keeps_its_chain(self):
        # ||A - lambda I||^2 = 1e600 leaves double precision, the chain
        # e1, e2 / 1e300 does not
        cs = general_eig(np.array([[0.0, 1e300], [0.0, 0.0]]))
        assert cs.lengths == [[2]]
        assert np.array_equal(np.abs(cs.vectors), [[1.0, 0.0], [0.0, 1e-300]])

    @pytest.mark.parametrize("structure", [[3, 1], [2, 2], [2, 1, 1], [3, 2], [4, 2, 1]])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_mixed_chain_lengths_in_one_cluster(self, structure, kind):
        # a Jordan form with several chains at lambda, and two distinct
        # eigenvalues, under a random unitary similarity; its cluster splits
        # by about (2^-53)^(1/4) ||A||, within the cluster tolerance 1e-2
        rng = np.random.default_rng([len(structure), *structure, kind is complex])
        n = sum(structure) + 2
        draw = rng.standard_normal((2, n + 1, n))
        lam = draw[0, n, 0] + (1j * draw[1, n, 0] if kind is complex else 0.0)
        j = np.diag(np.ones(n - 1, kind), 1)
        j[np.cumsum(structure) - 1, np.cumsum(structure)] = j[n - 2, n - 1] = 0.0
        j += np.diag([lam] * (n - 2) + [lam + 3.0, lam + 5.0])
        q = np.linalg.qr(draw[0, :n] + (1j * draw[1, :n] if kind is complex else 0.0))[0]
        a = q @ j @ q.conj().T
        cs = general_eig(a, tol_cluster=1e-2)
        assert cs.lengths == [structure, [1], [1]]
        assert abs(cs.eigenvalues[0] - lam) < 1e-12
        if kind is float:
            assert cs.eigenvalues[0].imag == 0.0 and not cs.vectors.imag.any()
        assert np.linalg.matrix_rank(cs.vectors, tol=1e-8) == n
        scale = np.linalg.norm(a, 2)
        b = a - cs.eigenvalues[0] * np.eye(n)
        for chain in chain_views(cs)[0]:
            assert abs(np.linalg.norm(chain[0]) - 1.0) < 1e-14
            assert np.linalg.norm(b @ chain[0]) <= 1e-12 * scale
            for lo, hi in zip(chain, chain[1:]):
                assert np.linalg.norm(b @ hi - lo) <= 1e-12 * scale

    def test_neighbour_outside_the_cluster_stays_out(self):
        # 1 + 2.5e-8 lies outside the tolerance 1e-8 of the double 1, and out
        # of the double's null space
        cs = general_eig(np.diag([1.0, 1.0, 1.0 + 2.5e-8, -1.0]))
        assert cs.eigenvalues == [-1.0, 1.0, 1.0 + 2.5e-8]
        assert cs.lengths == [[1], [1, 1], [1]]

    def test_ill_conditioned_cluster_fails_loudly(self):
        # forcing two genuinely distinct eigenvalues into one cluster leaves
        # the generalized null space short of the algebraic multiplicity;
        # that must surface as IllConditioned, not a silently merged answer
        with pytest.raises(errors.IllConditioned) as exc:
            general_eig(np.diag([1.0, 1.5]), tol_cluster=1.0)
        assert exc.value.cluster is not None

    def test_null_space_past_the_multiplicity_is_reported_so(self):
        # a [3, 2, 1] cluster at 0 beside 14 distinct eigenvalues up to 1000:
        # the B^3 rank cutoff 20 * 1e-10 * ||B||^3, about 2, lies above the
        # cubes of 1 and 1.1, so the ladder jumps from 5 to 8 dimensions,
        # past the multiplicity 6; it did not stall short of it
        n = 20
        j = np.diag([1.0, 1.0, 0.0, 1.0] + [0.0] * (n - 5), 1)
        j += np.diag([0.0] * 6 + [1.0, 1.1, *np.linspace(2.0, 14.0, 11), 1000.0])
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
        with pytest.raises(errors.IllConditioned, match=re.escape(
                "(multiplicity 6): generalized null space passed the multiplicity at "
                "dimension 8")):
            general_eig(q @ j @ q.T, tol_cluster=1e-2)

    @pytest.mark.parametrize("a, tol", [
        (np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]]), 1e-12),
        (np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]], dtype=complex), 1e-12),
        (np.array([[0.0, 1.0], [-1e-20, 0.0]]), 1e-14),
    ], ids=["real", "complex", "real-conjugate-pair"])
    def test_nearly_parallel_eigenvectors_fail_the_span_test(self, a, tol):
        # one-member clusters whose unit eigenvectors are about 1e-9 apart
        # (1e-10 for the pair +-1e-10 i): the rank test, not the clustering,
        # must refuse them
        with pytest.raises(errors.IllConditioned, match="do not span"):
            general_eig(a, tol_cluster=tol)

    def test_real_span_test_reads_the_complex_singular_values(self, monkeypatch, rng):
        # a real input's span test runs on a real matrix; with one-member
        # clusters it has the complex eigenvector matrix's singular values,
        # and with a defective conjugate pair of clusters its rank
        seen = []

        def spy(vectors, *args):
            seen.append((vectors, _real_span(vectors, *args)))
            return seen[-1][1]

        monkeypatch.setattr(matcore, "_real_span", spy)
        for n in (5, 12):
            general_eig(rng.standard_normal((n, n)))
        c = np.array([[0.3, -1.2], [1.2, 0.3]])
        j = np.zeros((6, 6))
        j[:4, :4] = np.block([[c, np.eye(2)], [np.zeros((2, 2)), c]])
        j[4:, 4:] = np.diag([2.0, -1.0])
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        # the double pair splits by about sqrt(eps): a cluster tolerance above that
        cs = general_eig(q @ j @ q.T, tol_cluster=1e-6)
        assert list(map(sum, cs.lengths)) == [1, 2, 2, 1]
        assert len(seen) == 3
        for k, (vectors, basis) in enumerate(seen):
            assert np.iscomplexobj(vectors) and not np.iscomplexobj(basis)
            assert basis.shape == vectors.shape
            sv = np.linalg.svd(basis, compute_uv=False)
            if k < 2:
                assert np.allclose(sv, np.linalg.svd(vectors, compute_uv=False),
                                   rtol=1e-12, atol=0)
            assert sv[-1] > 1e-3

    def test_real_span_of_a_self_conjugate_complex_cluster(self, rng):
        # a cluster holding a conjugate pair whose mean came out a hair off
        # the real axis has complex vectors over a conjugate-closed space:
        # their real and imaginary parts add columns but no rank
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        vectors = q * np.exp(1j * np.array([0.3, -1.1, 0.0]))
        basis = _real_span(vectors, np.array([0.5 + 1e-12j, 0.5 - 1e-12j, 2.0]),
                           np.array([0, 2]), np.array([2, 1]))
        assert basis.shape == (3, 5) and not np.iscomplexobj(basis)
        assert np.linalg.matrix_rank(basis, tol=1e-8) == 3

    def test_mixed_jordan_structure(self):
        # blocks: 2-chain at 1, 1-chain at 1, 1-chain at 4 (via similarity)
        j = np.diag([1.0, 1.0, 1.0, 4.0])
        j[0, 1] = 1.0
        rng = np.random.default_rng(5)
        s = rng.standard_normal((4, 4)) + 0.1 * np.eye(4)
        a = s @ j @ np.linalg.inv(s)
        cs = general_eig(a)
        by_val = {round(ev.real, 3): sorted(per) for ev, per in zip(cs.eigenvalues, cs.lengths)}
        assert by_val == {1.0: [1, 2], 4.0: [1]}


    def test_simple_clusters_give_unit_eigenvectors(self, rng):
        a = random_matrix(rng, 36)
        cs = general_eig(a)
        assert cs.lengths == [[1]] * 36
        scale = np.linalg.norm(a, 2)
        for lam, v in zip(cs.eigenvalues, cs.vectors.T):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-13
            assert np.linalg.norm(a @ v - lam * v) <= 1e-10 * scale

    def test_measurement_stationary_cluster_is_orthonormal(self, rng):
        for d in (3, 4, 6):
            cs = general_eig(build_superoperator(random_measurement_model(rng, d)))
            k = int(np.argmin(np.abs(cs.eigenvalues)))
            assert cs.lengths[k] == [1] * d
            vecs = np.column_stack([c[0] for c in chain_views(cs)[k]])
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(d)) < 1e-10

    @pytest.mark.parametrize("seed", [0, 2])
    def test_self_conjugate_cluster_is_real(self, seed):
        # a real matrix with a 15-member cluster near 0: six conjugate pairs
        # and three real eigenvalues, on which np.mean's pairwise sum leaves
        # an imaginary part of about 1e-30
        rng = np.random.default_rng(seed)
        blocks = np.zeros((16, 16))
        for k, (b, c) in enumerate(1e-13 * rng.standard_normal((6, 2))):
            blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, b], [-b, c]]
        blocks[[12, 13, 14, 15], [12, 13, 14, 15]] = [*1e-13 * rng.standard_normal(3), 3.0]
        q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        cs = general_eig(q @ blocks @ q.T)
        assert list(map(sum, cs.lengths)) == [15, 1]
        assert cs.eigenvalues[0].imag == 0.0
        assert not cs.vectors[:, :15].imag.any()
        vecs = cs.vectors[:, :15].real
        assert np.linalg.norm(vecs.T @ vecs - np.eye(15)) < 1e-10


def test_cluster_norm_failure_is_no_convergence():
    # a Hermitian H with entries near 1.7e308: the generator's eigenvalues
    # are infinite, the default cluster tolerance ||A||_2 too, and the
    # cluster's ||A - lambda I||_2 fails in LAPACK
    h = np.array([[0.5, 1.7e308], [1.7e308, -0.5]])
    sop = build_superoperator(LindbladModel(2, h, [np.array([[0.0, 0.3], [0.3, 0.0]])]))
    with pytest.raises(errors.NoConvergence):
        general_eig(sop)


def test_cluster_power_overflow_is_overflow():
    # a defective double eigenvalue 0 whose chain vector e2 / 1e-310 overflows
    with pytest.raises(errors.Overflow):
        general_eig(np.array([[0.0, 1e-310], [0.0, 0.0]]))


def _cluster_groups(vals, tol):
    """The clusters of :func:`_cluster_labels`, each as its indices
    ascending, ordered by smallest index."""
    label = _cluster_labels(np.asarray(vals), tol)
    return [np.flatnonzero(label == k).tolist() for k in np.unique(label).tolist()]


class TestClusterEigenvalues:
    """The real-part sweep must give exactly the groups of the all-pairs
    union-find, in the same order."""

    def test_random_inputs(self, rng):
        for n in (1, 2, 7, 40, 150):
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for tol in (1e-3, 0.1, 0.5):
                assert _cluster_groups(vals, tol) == cluster_pairwise(vals, tol)

    def test_clustered_inputs(self, rng):
        tol = 1e-6
        centres = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        centres[1] = centres[0].real + 1j * (centres[0].imag + 10 * tol)
        vals = centres[rng.integers(0, 6, 80)]
        vals = vals + 0.6 * tol * (rng.standard_normal(80) + 1j * rng.standard_normal(80))
        on_axis = 1j * np.repeat(rng.standard_normal(10), 4)
        on_axis = on_axis + 1j * 0.4 * tol * rng.standard_normal(40)
        for v in (vals, on_axis, np.concatenate([vals, on_axis])):
            assert _cluster_groups(v, tol) == cluster_pairwise(v, tol)

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
        assert _cluster_groups(vals, 1.0) == groups
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

    def test_tells_a_non_finite_entry_from_an_overflow(self, rng):
        # the norm's verdict: a NaN or infinite entry is a ValueError at any
        # t, a finite matrix whose t*m is beyond the bound or overflows is
        # Overflow, neither with a warning, and a finite one within the
        # bound is scipy's expm of t*m
        a = random_matrix(rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
                for m in (a.copy(), a.real.copy()):
                    m[1, 2] = bad if np.iscomplexobj(m) else np.real(bad) or np.nan
                    for t in (0.0, 1e-3, -2.0):
                        with pytest.raises(ValueError, match="finite"):
                            expm(m, t)
            for m, t in ((a, 1e7), (1e300 * a, 1e10), (1e300 * a.real, -1e10)):
                with pytest.raises(errors.Overflow):
                    expm(m, t)
        for m in (a, a.real):
            assert expm(m, 0.3).tobytes() == scipy.linalg.expm(0.3 * m).tobytes()
        # a diagonal t*m is exponentiated entrywise, as scipy does it, with the
        # same bound: real and complex, n = 1, zero and negative entries
        diagonals = (np.diag([-3.0, 0.5, -1e-3]), np.diag([-2.0 + 1j, 0.25 - 3j]),
                     np.zeros((3, 3)), np.zeros((2, 2), dtype=complex), np.array([[-0.7]]),
                     np.array([[0.4 - 1j]]))
        for m in diagonals:
            for t in (0.3, -2.0, 1e-3):
                assert expm(m, t).tobytes() == scipy.linalg.expm(t * m).tobytes()
            eye = expm(m, 0.0)  # exp(0 * (0.25 - 3j)) would be 1 - 0j
            assert eye.dtype == m.dtype and np.array_equal(eye, np.eye(len(m)))
            assert not np.signbit(eye.imag).any()
        bound = "exceeds bound 1.000e+06"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, t, nrm in ((np.diag([1.0, -2e6]), 1.0, "2.000e+06"),
                              (np.array([[1j]]), 2e6, "2.000e+06"),
                              (np.diag([0.5, -1e300]), 1e300, "inf"),
                              (np.zeros((4, 4)), np.inf, "inf")):
                with pytest.raises(errors.Overflow, match=re.escape(f"= {nrm} {bound}")):
                    expm(m, t)
            # the dense path's message
            with pytest.raises(errors.Overflow, match=re.escape(f"= 2.000e+06 {bound}")):
                expm(np.array([[1.0, 1.0], [0.0, -2e6]]), 1.0)

    @pytest.mark.parametrize("m", [np.diag([800.0, 0.0]), [[800.0, 1.0], [0.0, 0.0]]],
                             ids=["diagonal", "dense"])
    def test_an_exponential_beyond_the_double_range_is_overflow(self, m):
        # ||t*m||_1 = 800 is within the norm bound, but e^800 is not a
        # double: both branches raise Overflow, with no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.Overflow, match="leaves double precision"):
                expm(m)
            near = np.array(m) * (700.0 / 800.0)  # e^700 is a double
            assert expm(near).tobytes() == scipy.linalg.expm(near).tobytes()

    def test_keeps_the_kind_of_its_input(self, rng):
        # a real generator is exponentiated in real arithmetic
        a = random_matrix(rng, 4)
        for m, dtype in ((a.real, np.float64), (a, np.complex128),
                         (a.real.tolist(), np.float64), (a.real.astype(complex), np.complex128)):
            for t in (0.0, 0.7):
                assert expm(m, t).dtype == dtype
        assert np.linalg.norm(expm(a.real, 0.7) - expm(a.real.astype(complex), 0.7)) < 1e-14


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


def _exact_action(a, t, v):
    """exp(t*a) @ v by its Taylor series in 40-digit arithmetic, an mpmath
    column; t*||a||_1 is at most a few units here."""
    with mpmath.workdps(40):
        term = total = mpmath.matrix(v.tolist())
        ta = mpmath.matrix(a.tolist()) * mpmath.mpf(t)
        for k in range(1, 200):
            term = ta * term / k
            total += term
            if mpmath.mnorm(term, 1) < mpmath.mpf(10)**-45:
                return total
    raise AssertionError("the series did not converge")


def _relative_error(got, exact):
    """max |got_i - exact_i| / max |exact_i|, the difference taken in 40
    digits."""
    with mpmath.workdps(40):
        return float(max(abs(x - mpmath.mpf(float(g))) for g, x in zip(got, exact))
                     / max(abs(x) for x in exact))


def _lone_step(a, t, v, norm1):
    """exp(t*a) @ v as :func:`_step_actions` takes a grid of one step."""
    actions, _ = _step_actions(a, [t], norm1)
    return actions[t](v)


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
        assert _lone_step(a, t, v, norm1).tobytes() == expm_action_loop(a, t, v, norm1).tobytes()

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
        got = _lone_step(a, 1.0, v, 1.0)
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
        got = _lone_step(a, t, v, norm1)
        assert got.tobytes() == expm_action_loop(a, t, v, norm1).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           log_x=st.floats(-17.0, 1.5), log_norm=st.floats(-3.0, 3.0))
    @example(n=6, cols=3, seed=0, log_x=np.log10(3e-16), log_norm=0.0)  # m = 1, s = 2
    def test_probe_blocks_are_the_reference_loop_bit_for_bit(self, n, cols, seed, log_x,
                                                              log_norm):
        # exp(+-t a) on a block of columns, as evolve_stencil's probe takes
        # it; exp(-t a) is the loop's exp(t (-a)), with the same bits
        a, t, _, norm1 = _series_case(n, seed, log_x, log_norm, False)
        block = random_matrix(np.random.default_rng(seed + 1), max(n, cols))[:n, :cols]
        _, (forward, backward) = _step_actions(a, [], norm1, t)
        assert forward(block).tobytes() == expm_action_loop(a, t, block, norm1).tobytes()
        assert backward(block).tobytes() == expm_action_loop(-a, t, block, norm1).tobytes()

    @pytest.mark.parametrize("cols", [None, 3])
    def test_family_steps_are_the_reference_loop_bit_for_bit(self, cols):
        # a family's step is P_h v corrected by the Taylor polynomial of
        # x = dt - h; at x ||a||_1 = 0, 1e-17 and 1e-9 the loop's own plan of
        # x takes degree 0, 1 and 2 with s = 1.  The steps h and h + x_1,
        # taken 50 times each, form a family
        a, h, _, norm1 = _series_case(12, 3, -3.0, 0.0, False)
        x0 = random_matrix(np.random.default_rng(4), 12)
        v = x0[:, 0] if cols is None else x0[:, :cols]
        dts = np.unique(h + np.array([0.0, 1e-17]) / norm1)
        actions, _ = _step_actions(a, np.repeat(dts, 50), norm1)
        p = expm(a, dts[0])
        for degree, x in enumerate([*(dts - dts[0]).tolist(), 1e-9 / norm1]):
            want = expm_action_loop(a, x, p @ v, norm1).tobytes()
            assert _taylor_series(a, x, degree, 1, p, v).tobytes() == want
            if degree < 2:
                assert actions[dts[degree]](v).tobytes() == want

    def test_a_degree_one_family_correction_is_as_accurate_as_p_h(self, rng):
        # a family corrects P_h v by the Taylor polynomial of degree 1 up to
        # (dt - h) ||R||_1 = theta_2, which truncates by at most theta_2^2/2
        # = 3.3e-16: over (theta_1, theta_2], on generators R of d = 2-4 with
        # h ||R||_1 in [0.1, 3], the step errs, against a 40-digit
        # reference, by at most twice what P_h v alone does, plus 2^-52
        theta_1, theta_2 = matcore._TAYLOR_THETA[:2]
        for _ in range(30):
            d = int(rng.integers(2, 5))
            r = lindblad._hermitian_generator(random_lindblad_model(rng, d))
            norm1 = float(np.linalg.norm(r, 1))
            h = rng.uniform(0.1, 3.0) / norm1
            dt = h + rng.uniform(theta_1, theta_2) / norm1
            v = rng.standard_normal(d * d)
            actions, _ = _step_actions(r, np.repeat([h, dt], 50), norm1)
            p = expm(r, h)
            got = actions[dt](v)
            assert got.tobytes() == _taylor_series(r, dt - h, 1, 1, p, v).tobytes()
            p_error = _relative_error(p @ v, _exact_action(r, h, v))
            assert _relative_error(got, _exact_action(r, dt, v)) <= 2 * p_error + 2.0**-52

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 16), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           log_x=st.floats(-17.0, 0.5), sign=st.sampled_from([1.0, -1.0]))
    @example(n=6, cols=3, seed=0, log_x=np.log10(3e-16), sign=-1.0)  # m = 1, s = 2
    def test_block_series_is_the_dense_exponential(self, n, cols, seed, log_x, sign):
        # a block of columns, with the plan's (m, s) for |t| and norms over
        # the whole block, for t of either sign, up to t ||a||_1 = 10^0.5:
        # beyond it the series' cancellation, in a vector's steps as much as
        # in a block's, can reach 1e-9 of a random matrix's result
        a, t, _, norm1 = _series_case(n, seed, log_x, 0.0, False)
        block = random_matrix(np.random.default_rng(seed + 1), max(n, cols))[:n, :cols]
        k, products, _ = _taylor_plan(t, norm1, n)
        m = int(_TAYLOR_M[k])
        got = _taylor_series(a, sign * t, m, int(products) // m, None, block)
        want = scipy.linalg.expm(sign * t * a) @ block
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestTaylorPlan:
    def test_plan_over_a_vector_of_steps_is_the_scalar_plans(self):
        steps = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 50.0, 60)])
        for norm1, n in ((3.7, 16), (64.0, 64), (1e4, 144)):
            plans = _taylor_plan(steps, norm1, n)
            for j, t in enumerate(steps):
                assert [p[j] for p in plans] == [p[()] for p in _taylor_plan(t, norm1, n)]


class TestKronVec:
    def test_kron_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_mixed_product(self, rng):
        a, b, x, y = (random_matrix(rng, 2) for _ in range(4))
        lhs = np.kron(a, b) @ np.kron(x, y)
        rhs = np.kron(a @ x, b @ y)
        assert np.linalg.norm(lhs - rhs) < 1e-13

    def test_trace_factorization(self, rng):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_vec_of_product_identity(self, rng):
        # the row-major vec is reshape(-1): vec(A X B) = (A (x) B^T) vec(X)
        a, x, b = (random_matrix(rng, 3) for _ in range(3))
        lhs = (a @ x @ b).reshape(-1)
        rhs = np.kron(a, b.T) @ x.reshape(-1)
        assert np.linalg.norm(lhs - rhs) < 1e-13
