"""Contracts for dense operators: Hermiticity and unitarity checks."""

import numpy as np

HERMITICITY_RTOL = 1e-12
UNITARITY_ATOL = 1e-10


def max_abs(mat) -> float:
    """Largest entry magnitude (max norm)."""
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def hermiticity_defect(mat) -> float:
    """max_ij |H - H^dag| / max_ij |H|; zero matrices have defect 0."""
    scale = max_abs(mat)
    if scale == 0.0:
        return 0.0
    return max_abs(mat - np.asarray(mat).conj().T) / scale


def require_square(mat, name: str = "operator") -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    return mat


def require_hermitian(mat, rtol: float = HERMITICITY_RTOL, name: str = "operator") -> np.ndarray:
    """Return mat as an ndarray, raising if it fails the Hermiticity contract."""
    mat = require_square(mat, name)
    defect = hermiticity_defect(mat)
    if not defect <= rtol:
        raise ValueError(f"{name} is not Hermitian (relative defect {defect:.3e})")
    return mat


def unitarity_defect(mat) -> float:
    """max norm of U^dag U - 1."""
    mat = np.asarray(mat)
    dim = mat.shape[0]
    return max_abs(mat.conj().T @ mat - np.eye(dim))


def require_unitary(mat, atol: float = UNITARITY_ATOL, name: str = "operator") -> np.ndarray:
    mat = require_square(mat, name)
    defect = unitarity_defect(mat)
    if not defect <= atol:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    return mat
