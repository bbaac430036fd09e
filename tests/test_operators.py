import warnings

import numpy as np
import pytest

from kickedspec.operators import Banded, require_hermitian, require_unitary


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
