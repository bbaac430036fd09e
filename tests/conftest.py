"""Shared oracles: deterministic multifractal reference measures, and dense
test matrices as `Banded` operators."""

import numpy as np
import pytest

from kickedspec.operators import Banded


def as_banded(mat):
    """A dense matrix as a `Banded` operator that stores every diagonal."""
    dim = mat.shape[0]
    return Banded(dim, {k: np.diagonal(mat, k) for k in range(1 - dim, dim)})


def random_hermitian(dim, seed):
    """Dense Hermitian matrix with normal complex entries, halved."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) / 2.0


def binomial_cascade_weights(p: float, depth: int) -> np.ndarray:
    """Masses of the dyadic multiplicative cascade over 2^depth cells."""
    weights = np.array([1.0])
    for _ in range(depth):
        weights = np.outer(weights, [p, 1.0 - p]).ravel()
    return weights


def cascade_tau_analytic(p: float, q) -> np.ndarray:
    """tau_q = log2(p^q + (1-p)^q), i.e. (1-q) * D_q of the binomial cascade."""
    q = np.asarray(q, dtype=float)
    return np.log2(p**q + (1.0 - p) ** q)


def cascade_points(p: float, depth: int, n_points: int) -> np.ndarray:
    """Deterministic sample whose histogram reproduces the cascade measure.

    Inverse-CDF placement of n_points equally spaced quantiles; no randomness.
    """
    masses = binomial_cascade_weights(p, depth)
    edges = np.concatenate([[0.0], np.cumsum(masses)])
    edges[-1] = 1.0
    u = (np.arange(n_points) + 0.5) / n_points
    idx = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, masses.size - 1)
    cell_width = 1.0 / masses.size
    frac = (u - edges[idx]) / masses[idx]
    return np.sort((idx + frac) * cell_width)


def cantor_points(depth: int) -> np.ndarray:
    """Midpoints of the surviving depth-level triadic intervals plus {0, 1}.

    The anchors pin the data range to [0, 1] so that 3^k equal bins align with
    the triadic construction; midpoints keep every sample well inside a cell.
    """
    lefts = np.array([0.0])
    for k in range(1, depth + 1):
        lefts = np.concatenate([lefts, lefts + 2.0 / 3.0**k])
    mids = lefts + 0.5 / 3.0**depth
    return np.sort(np.concatenate([[0.0, 1.0], mids]))


@pytest.fixture(scope="session")
def cascade12():
    """Depth-12 cascade with p=0.3: (weights, analytic tau on q=2..8)."""
    q = np.arange(2.0, 8.5, 0.5)
    return binomial_cascade_weights(0.3, 12), q, cascade_tau_analytic(0.3, q)
