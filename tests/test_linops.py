import numpy as np
import pytest

from ris.linops import (
    BranchCutCollisionError,
    Superoperator,
    choi_matrix,
    derivation_superop,
    kron,
    largest_gap_bisector,
    matrix_exp,
    matrix_log_unitary,
    spectral_decompose,
    superop_norm,
)

from conftest import random_density, random_hermitian, random_unitary, u

I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_sum_rule(self):
        s, e = 1.3, 0.4
        total = kron(np.diag([0, s]), I2) + kron(I2, np.diag([0, e]))
        assert np.allclose(total, np.diag([0, e, s, s + e]))

    def test_elementary_indexing(self):
        # u01 (x) u10 has its single 1 at row (0,1), column (1,0)
        m = kron(u(0, 1), u(1, 0))
        expected = np.zeros((4, 4))
        expected[0 * 2 + 1, 1 * 2 + 0] = 1.0
        assert np.array_equal(m, expected)


class TestMatrixExp:
    def test_zero_is_exact_identity(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_phases(self):
        thetas = np.array([0.3, -1.1, 2.0])
        assert np.allclose(matrix_exp(np.diag(1j * thetas)), np.diag(np.exp(1j * thetas)))

    def test_derivation_exponential_eigenvalues(self):
        s = 1.0
        e = matrix_exp(derivation_superop(np.diag([0.0, s])))
        got = np.sort_complex(np.linalg.eigvals(e.matrix))
        expected = np.sort_complex(np.array([1, 1, np.exp(1j * s), np.exp(-1j * s)]))
        assert np.allclose(got, expected, atol=1e-12)

    def test_nonfinite_rejected(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exp(bad)

    def test_inverse_roundtrip(self, rng):
        a = random_hermitian(rng, 5) * 1j
        assert np.allclose(matrix_exp(a) @ matrix_exp(-a), np.eye(5), atol=1e-10)


class TestSuperoperator:
    def test_apply_linearity(self, rng):
        s = Superoperator(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        for _ in range(5):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lhs = s.apply(a * x + b * y)
            rhs = a * s.apply(x) + b * s.apply(y)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_composition_is_matrix_product(self, rng):
        a = Superoperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = Superoperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        x = rng.standard_normal((2, 2))
        assert np.allclose((a @ b).apply(x), a.apply(b.apply(x)))

    def test_left_right(self, rng):
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        x = random_hermitian(rng, 3)
        assert np.allclose(Superoperator.left_right(a, b).apply(x), a @ x @ b)

    def test_trace_dual_pairing(self, rng):
        # Tr(rho T(x)) = Tr(T*(rho) x) on random (not necessarily Hermitian) pairs
        t = Superoperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        dual = t.trace_dual()
        for _ in range(20):
            rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.trace(rho @ t.apply(x))
            rhs = np.trace(dual.apply(rho) @ x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_norms(self, rng):
        assert superop_norm(Superoperator.identity(2)) == pytest.approx(1.0)
        assert superop_norm(2.0 * Superoperator.identity(2)) == pytest.approx(2.0)
        w = random_unitary(rng, 3)
        conj = Superoperator.left_right(w, w.conj().T)
        assert superop_norm(conj) == pytest.approx(1.0, abs=1e-12)

    def test_submultiplicative(self, rng):
        a = Superoperator(rng.standard_normal((9, 9)))
        b = Superoperator(rng.standard_normal((9, 9)))
        assert superop_norm(a @ b) <= superop_norm(a) * superop_norm(b) + 1e-12


class TestDerivation:
    def test_zero_hamiltonian(self):
        assert not derivation_superop(np.zeros((2, 2))).matrix.any()

    def test_kills_identity(self, rng):
        h = random_hermitian(rng, 4)
        assert np.abs(derivation_superop(h).apply(np.eye(4))).max() <= 1e-14

    def test_two_level_phases(self):
        # with delta(x) = i[h, x], u01 is an eigenvector with eigenvalue -iS
        s = 0.7
        d = derivation_superop(np.diag([0.0, s]))
        assert np.allclose(d.apply(u(0, 1)), -1j * s * u(0, 1))
        t = 0.9
        evolved = matrix_exp(t * d).apply(u(0, 1))
        assert np.allclose(evolved, np.exp(-1j * t * s) * u(0, 1))

    def test_anti_hermitian(self, rng):
        d = derivation_superop(random_hermitian(rng, 3)).matrix
        assert np.abs(d + d.conj().T).max() <= 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            derivation_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralDecompose:
    def test_diagonal_clusters(self):
        dec = spectral_decompose(np.diag([1.0, 1.0, 2.0]), tol=1e-8)
        assert len(dec.clusters) == 2
        by_val = {round(c.eigenvalue.real): c for c in dec.clusters}
        assert by_val[1].multiplicity == 2
        assert np.allclose(by_val[1].projection, np.diag([1, 1, 0]))
        assert np.allclose(by_val[2].projection, np.diag([0, 0, 1]))

    def test_derivation_superop_clusters(self):
        dec = spectral_decompose(derivation_superop(np.diag([0.0, 1.0])))
        eigs = sorted(((c.eigenvalue, c.multiplicity) for c in dec.clusters),
                      key=lambda t: t[0].imag)
        assert [(round(e.real, 10), round(e.imag, 10), m) for e, m in eigs] == \
            [(0, -1, 1), (0, 0, 2), (0, 1, 1)]

    def test_hermitian_projections(self, rng):
        a = random_hermitian(rng, 6)
        dec = spectral_decompose(a)
        for c in dec.clusters:
            assert np.abs(c.projection - c.projection.conj().T).max() <= 1e-10

    def test_reconstruction_random_normal(self, rng):
        for n in (2, 5, 16):
            w = random_unitary(rng, n)
            eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = w @ np.diag(eigs) @ w.conj().T
            dec = spectral_decompose(a, tol=1e-10)
            assert np.abs(dec.reconstruction() - a).max() <= 1e-9
            total = sum(dec.projection_matrices())
            assert np.abs(total - np.eye(n)).max() <= 1e-10
            for i, p in enumerate(dec.projection_matrices()):
                assert np.abs(p @ p - p).max() <= 1e-10
                for j, q in enumerate(dec.projection_matrices()):
                    if i != j:
                        assert np.abs(p @ q).max() <= 1e-10

    def test_non_normal_mode(self, rng):
        # the eigenvector pairing of non-normal maps is tested on
        # asymptotic._eigenprojection_near, its one implementation
        a = np.array([[1.0, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="normal"):
            spectral_decompose(a)

    def test_degeneracy_warning(self):
        tol = 1e-8
        clean = spectral_decompose(np.diag([0.0, 1.0]), tol=tol)
        assert not clean.degenerate
        tight = spectral_decompose(np.diag([0.0, 1.5 * tol, 1.0]), tol=tol)
        assert tight.degenerate

    def test_superoperator_input_wraps(self):
        dec = spectral_decompose(Superoperator.identity(2))
        assert isinstance(dec.clusters[0].projection, Superoperator)


class TestLargestGapBisector:
    def test_tied_gaps_take_the_largest_bisector(self):
        # gaps 0.1 -> 3.0 and -3.0 -> -0.1 tie; rounding must not pick
        angles = np.array([0.0, 0.1, -0.1, 3.0, -3.0])
        for order in (angles, angles[::-1], -angles):
            assert largest_gap_bisector(order) == pytest.approx(1.55, abs=1e-12)


class TestMatrixLogUnitary:
    def test_identity(self):
        assert np.abs(matrix_log_unitary(np.eye(4))).max() == 0.0

    def test_two_level_free_evolution(self):
        s = 1.0
        un = matrix_exp(derivation_superop(np.diag([0.0, s])))
        log = matrix_log_unitary(un, branch_cut_angle=np.pi)
        got = np.sort(np.linalg.eigvals(log.matrix).imag)
        assert np.allclose(got, [-1.0, 0.0, 0.0, 1.0], atol=1e-10)

    def test_roundtrip_random(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4)
            h *= 2.5 / max(np.abs(np.linalg.eigvalsh(h)).max(), 1e-9)
            gen = derivation_superop(h)  # spectrum within (-pi, pi) after scaling
            un = matrix_exp(gen)
            cut = largest_gap_bisector(np.angle(np.linalg.eigvals(un.matrix)))
            log = matrix_log_unitary(un, cut)
            assert superop_norm(matrix_exp(log) - un) <= 1e-10
            m = log.matrix
            assert np.abs(m + m.conj().T).max() <= 1e-12

    def test_branch_cut_collision(self):
        un = np.diag([1.0, -1.0, 1j])
        with pytest.raises(BranchCutCollisionError) as err:
            matrix_log_unitary(un, branch_cut_angle=np.pi)
        # largest gap is between i (angle pi/2) and -1 (angle pi)... suggested
        # cut must stay clear of all three eigenvalue angles
        for angle in (0.0, np.pi, np.pi / 2):
            assert abs(err.value.suggested_cut - angle) > 1e-3

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            matrix_log_unitary(np.diag([1.0, 0.5]))

    def test_window_opposite_cut(self):
        un = np.diag(np.exp(1j * np.array([0.1, 2.0, -2.0])))
        log = matrix_log_unitary(un, branch_cut_angle=np.pi)
        assert np.allclose(np.sort(np.linalg.eigvals(log).imag), [-2.0, 0.1, 2.0])
        # cutting at 0.5 instead pushes 2.0 to the branch below
        log2 = matrix_log_unitary(un, branch_cut_angle=0.5)
        assert np.allclose(np.sort(np.linalg.eigvals(log2).imag),
                           sorted([-2.0, 2.0 - 2 * np.pi, 0.1]), atol=1e-12)


def _extend_first_factor(s: Superoperator, rho: np.ndarray) -> np.ndarray:
    """(S (x) id)(rho) for rho on a doubled space, S acting on the first factor."""
    n = s.dim
    m4 = s.matrix.reshape(n, n, n, n)
    r4 = rho.reshape(n, n, n, n)
    return np.einsum("ijkl,kalb->iajb", m4, r4).reshape(n * n, n * n)


class TestChoi:
    def test_identity_map(self):
        c = choi_matrix(Superoperator.identity(2))
        eigs = np.linalg.eigvalsh(c)
        assert eigs.min() >= -1e-12
        assert np.sum(eigs > 1e-12) == 1  # rank one
        assert np.trace(c).real == pytest.approx(2.0)

    def test_unitary_conjugation_is_cp(self, rng):
        w = random_unitary(rng, 3)
        c = choi_matrix(Superoperator.left_right(w, w.conj().T))
        assert np.linalg.eigvalsh(c).min() >= -1e-12

    def test_transpose_map_witness(self):
        sw = Superoperator(np.eye(4)[[0, 2, 1, 3]])  # x -> x^T on 2x2
        eigs = np.linalg.eigvalsh(choi_matrix(sw))
        assert eigs.min() == pytest.approx(-1.0, abs=1e-12)

    def test_matches_brute_force_positivity(self, rng):
        # mix a random CP map with the transpose map; sweep the mixing weight
        kraus = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(2)]
        cp = sum(Superoperator.left_right(k, k.conj().T).matrix for k in kraus)
        cp /= superop_norm(Superoperator(cp))
        transpose = np.eye(4)[[0, 2, 1, 3]]
        for weight in (0.0, 0.2, 0.8, 1.0):
            s = Superoperator((1 - weight) * cp + weight * transpose)
            choi_positive = np.linalg.eigvalsh(choi_matrix(s)).min() >= -1e-10
            brute = all(
                np.linalg.eigvalsh(_extend_first_factor(s, random_density(rng, 4))).min()
                >= -1e-10
                for _ in range(200))
            assert choi_positive == brute, f"disagreement at weight {weight}"
