import warnings

import numpy as np
import pytest

from conftest import as_banded
from kickedspec.operators import Banded, max_abs, require_hermitian, require_unitary, unitarity_defect


def test_contracts_accept_valid_operators():
    herm = as_banded(np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]]))
    assert require_hermitian(herm) is herm
    assert require_unitary(np.array([[0.0, 1.0j], [1.0j, 0.0]])) is not None


def test_require_hermitian_refuses_a_dense_matrix():
    # a Hermitian ndarray is refused for its type, before any defect is computed
    with pytest.raises(TypeError, match="generator must be a Banded operator, got ndarray"):
        require_hermitian(np.eye(2), name="generator")


def test_require_unitary_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"must be a square matrix, got shape \(2, 3\)"):
        require_unitary(np.eye(2, 3))


def test_require_hermitian_rejects_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(as_banded(np.full((3, 3), np.nan)))


def test_require_unitary_rejects_nan():
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(np.full((3, 3), np.nan))


@pytest.mark.parametrize("mat", [as_banded(np.full((3, 3), np.inf)), Banded.diagonal(np.full(3, np.inf))])
def test_require_hermitian_rejects_inf_without_warning(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(mat)


@pytest.mark.parametrize("dim", [3, 50, 401])
def test_unitarity_defect_equals_dense_formula(dim):
    # U^dag U with 1 subtracted on its diagonal in place, bit for bit the
    # max norm of U^dag U - eye(dim)
    rng = np.random.default_rng(dim)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(mat)
    for candidate in (unitary, 1.5 * unitary, mat):
        assert unitarity_defect(candidate) == max_abs(candidate.conj().T @ candidate - np.eye(dim))
