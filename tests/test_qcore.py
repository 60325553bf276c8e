import numpy as np
import pytest

from gatemem.avgdist import _half_trace_norm_4x4_entries
from gatemem.exceptions import ValidationError
from gatemem.qcore import (
    DensityMatrix,
    _from_spectrum,
    _half_trace_norm,
    _hermitian_part,
    _trace_out_last,
)

from conftest import _haar_vectors, haar_random_unitary, hermitian_entries, random_density

KET0 = DensityMatrix(np.diag([1.0, 0.0]))
KET1 = DensityMatrix(np.diag([0.0, 1.0]))
PLUS = DensityMatrix(np.full((2, 2), 0.5))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan))

    def test_data_is_frozen(self):
        with pytest.raises(ValueError):
            KET0.data[0, 0] = 0.0


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert _half_trace_norm(KET0.data - KET1.data) == pytest.approx(1.0, abs=1e-12)

    def test_identical_arguments(self):
        assert _half_trace_norm(PLUS.data - PLUS.data) == 0.0

    def test_zero_vs_plus_matches_diagonalization_oracle(self):
        # independent oracle: eigenvalues of the explicit difference matrix
        diff = KET0.data - PLUS.data
        oracle = 0.5 * np.sum(np.abs(np.linalg.eigvals(diff)))
        assert oracle == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert _half_trace_norm(diff) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_batched_kernel_matches_per_matrix_distances(self, rng):
        # the 4 x 4 closed form, on the entries of a stack mixing Hermitian
        # and non-Hermitian matrices (they are the entries of the Hermitian
        # part of each), against the half trace norm of each matrix
        stack = rng.standard_normal((12, 4, 4)) + 1j * rng.standard_normal((12, 4, 4))
        stack[::2] = 0.5 * (stack[::2] + np.conj(np.swapaxes(stack[::2], -1, -2)))
        expected = [_half_trace_norm(m) for m in stack]
        got = _half_trace_norm_4x4_entries(*hermitian_entries(stack))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (7, 2, 2), (3, 5, 2, 2), (3, 3), (2, 4, 4)])
    def test_kernel_matches_eigvalsh_on_any_stack_shape(self, rng, shape):
        # independent reference: eigenvalues of the explicit Hermitian part
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        herm = 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2)))
        expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)
        got = _half_trace_norm(mat)
        assert np.shape(got) == shape[:-2]
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    def test_stacked_4x4_of_zeros_is_exactly_zero(self):
        zeros = np.zeros((3, 4, 4), dtype=complex)
        got = _half_trace_norm_4x4_entries(*hermitian_entries(zeros))
        assert got.shape == (3,)
        assert np.all(got == 0.0)
        assert _half_trace_norm(zeros[0]) == 0.0

    def test_one_block_stack_agrees_with_the_lone_matrix(self, rng):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert _half_trace_norm(mat[None]) == pytest.approx([_half_trace_norm(mat)], abs=1e-15)
        pair = _half_trace_norm_4x4_entries(*hermitian_entries(np.array([mat, mat])))
        np.testing.assert_allclose(pair, _half_trace_norm(mat), rtol=1e-13, atol=0)

    def test_degenerate_4x4_blocks_take_the_eigvalsh_fallback(self, rng, monkeypatch):
        u = haar_random_unitary(4, rng)
        spectra = [
            [1.0, 2.0, -3.0, 0.5],  # generic: closed form
            [0.7, 0.0, 0.0, 0.0],  # rank 1
            [0.4, -0.4, 0.0, 0.0],  # rank 2, (a, -a, 0, 0)
        ]
        blocks = [(u * np.array(lam)) @ u.conj().T for lam in spectra]
        # a multiple of the identity; rotated, its traceless part would be
        # rounding noise with a spectrum of its own
        stack = np.array(blocks + [0.3 * np.eye(4, dtype=complex)])
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(mat):
            seen.append(mat.shape)
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        got = _half_trace_norm_4x4_entries(*hermitian_entries(stack))
        assert seen == [(3, 4, 4)]  # the three degenerate blocks, in one call
        np.testing.assert_allclose(got, [3.25, 0.35, 0.4, 0.6], rtol=1e-13, atol=0)

    def test_metric_axioms_on_random_triples(self, rng):
        for _ in range(25):
            a, b, c = (random_density(3, rng) for _ in range(3))
            dab = _half_trace_norm(a - b)
            assert dab >= 0.0
            assert dab == pytest.approx(_half_trace_norm(b - a), abs=1e-12)
            assert dab <= _half_trace_norm(a - c) + _half_trace_norm(c - b) + 1e-10
        assert _half_trace_norm(a - a.copy()) <= 1e-10

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            a, b = random_density(2, rng), random_density(2, rng)
            u = haar_random_unitary(2, rng)
            assert _half_trace_norm(u @ a @ u.conj().T - u @ b @ u.conj().T) == pytest.approx(
                _half_trace_norm(a - b), abs=1e-10
            )


class TestHaarSampling:
    def test_seeded_determinism(self):
        a = _haar_vectors(2, 5, np.random.default_rng(42))
        b = _haar_vectors(2, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-15)

    def test_mean_state_is_maximally_mixed(self):
        # Haar average of |psi><psi| is I/d; Monte-Carlo check
        amps = _haar_vectors(2, 100_000, np.random.default_rng(7))
        mean = np.einsum("ni,nj->ij", amps, amps.conj()) / len(amps)
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 5e-3

    def test_unitary_invariance_of_mean(self):
        u = haar_random_unitary(2, np.random.default_rng(3))
        amps = _haar_vectors(2, 100_000, np.random.default_rng(8)) @ u.T
        mean = np.einsum("ni,nj->ij", amps, amps.conj()) / len(amps)
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 5e-3


class TestHermitianHelpers:
    def test_hermitian_part_of_a_stack(self, rng):
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        herm = _hermitian_part(stack)
        for mat, part in zip(stack, herm):
            np.testing.assert_array_equal(part, 0.5 * (mat + mat.conj().T))
        np.testing.assert_array_equal(_hermitian_part(stack[0]), herm[0])

    @pytest.mark.parametrize("shape", [(3, 3), (5, 4, 4)])
    def test_from_spectrum_rebuilds_the_matrix(self, rng, shape):
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = _hermitian_part(mat)
        np.testing.assert_allclose(_from_spectrum(*np.linalg.eigh(h)), h, rtol=0, atol=1e-13)


class TestPartialTrace:
    @pytest.mark.parametrize("d, d_last", [(3, 2), (2, 4)])
    def test_matches_an_explicit_sum_over_the_last_index(self, rng, d, d_last):
        # non-Hermitian input; entry (i, j) of the result sums (i k, j k) over k
        n = d * d_last
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = sum(mat[k::d_last, k::d_last] for k in range(d_last))
        np.testing.assert_allclose(_trace_out_last(mat, d_last), expected, rtol=0, atol=1e-14)
        stack = np.array([mat, 2.0 * mat])
        np.testing.assert_allclose(_trace_out_last(stack, d_last), [expected, 2.0 * expected],
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d_last", [2, 4])
    def test_product_of_any_matrices(self, rng, d_last):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((d_last, d_last)) + 1j * rng.standard_normal((d_last, d_last))
        np.testing.assert_allclose(_trace_out_last(np.kron(a, b), d_last), np.trace(b) * a,
                                   rtol=0, atol=1e-13)

    def test_product_state(self, rng):
        a, b = random_density(2, rng), random_density(3, rng)
        np.testing.assert_allclose(_trace_out_last(np.kron(a, b), 3), a, atol=1e-12)

    def test_bell_state_marginal(self):
        bell = DensityMatrix(np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2)
        np.testing.assert_allclose(_trace_out_last(bell.data, 2), np.eye(2) / 2, atol=1e-12)

    def test_preserves_positivity(self, rng):
        for _ in range(10):
            reduced = _trace_out_last(random_density(4, rng), 2)
            DensityMatrix(reduced)  # Hermitian with unit trace
            assert np.linalg.eigvalsh(reduced)[0] >= -1e-12
