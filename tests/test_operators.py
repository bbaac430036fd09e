import warnings

import numpy as np
import pytest

from kickedspec.operators import Banded, max_abs, require_hermitian, require_unitary, unitarity_defect


def test_contracts_accept_valid_operators():
    herm = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]])
    assert require_hermitian(herm) is not None
    assert require_unitary(np.array([[0.0, 1.0j], [1.0j, 0.0]])) is not None


def test_require_hermitian_rejects_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.full((3, 3), np.nan))


def test_require_unitary_rejects_nan():
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(np.full((3, 3), np.nan))


@pytest.mark.parametrize("mat", [np.full((3, 3), np.inf), Banded.diagonal(np.full(3, np.inf))])
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
