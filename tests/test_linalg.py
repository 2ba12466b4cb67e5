import numpy as np
import pytest

from qnmlp import linalg


class TestDot:
    def test_hand_value(self):
        assert linalg.dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0

    def test_zero_vector_annihilates(self):
        v = np.array([2.5, -1.0, 7.0])
        assert linalg.dot(v, np.zeros(3)) == 0.0

    def test_single_element(self):
        assert linalg.dot([1.0], [1.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.dot([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(17)
        b = rng.standard_normal(17)
        assert linalg.dot(a, b) == linalg.dot(b, a)


class TestNorm2:
    # optim measures gradients with np.linalg.norm and curvature with
    # linalg.dot; the two must agree on the squared length.
    @pytest.mark.parametrize("seed", range(5))
    def test_squared_matches_dot(self, seed):
        v = np.random.default_rng(seed).standard_normal(23)
        n2 = np.linalg.norm(v) ** 2
        d = linalg.dot(v, v)
        assert abs(n2 - d) <= 1e-12 * max(1.0, abs(d))

class TestIsSpd:
    def test_identity(self):
        assert linalg.is_spd(np.eye(2), 1e-12)

    def test_negative_eigenvalue(self):
        assert not linalg.is_spd([[1.0, 0.0], [0.0, -1.0]], 1e-12)

    def test_hand_spd(self):
        # eigenvalues 1 and 3
        assert linalg.is_spd([[2.0, 1.0], [1.0, 2.0]], 1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            linalg.is_spd(np.ones((2, 3)), 1e-12)

    def test_tolerance_screens_small_pivots(self):
        assert linalg.is_spd(np.diag([1.0, 1e-10]), 1e-12)
        assert not linalg.is_spd(np.diag([1.0, 1e-10]), 1e-8)

    def test_semidefinite_fails(self):
        # rank-one matrix: second pivot is exactly zero
        m = np.outer([1.0, 2.0], [1.0, 2.0])
        assert not linalg.is_spd(m, 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_matrices_pass(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        gram = a @ a.T + 6 * np.eye(6)
        assert linalg.is_spd(gram, 1e-12)


class TestIsSymmetric:
    def test_symmetric(self):
        assert linalg.is_symmetric([[2.0, 1.0], [1.0, 2.0]])

    def test_asymmetric(self):
        assert not linalg.is_symmetric([[2.0, 1.0], [0.0, 2.0]])

    def test_non_square(self):
        assert not linalg.is_symmetric(np.ones((2, 3)))
