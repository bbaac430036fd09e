"""Banded operators against dense matrices: arithmetic, the builders of every
system against the dense oracle, and the structure-driven eigensolver."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from conftest import as_banded
from kickedspec.floquet import dkt_effective_hamiltonian
from kickedspec.harper import CLOSED_FORM, HarperParams, harper_hamiltonian, kicked_harper_effective
from kickedspec import GOLDEN_RATIO
from kickedspec.operators import Banded, eigensolve, hermitian_eigh, hermiticity_defect
from kickedspec.su2 import general_su2_hamiltonian, spin_operators

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

SYSTEMS = ("dkt",) + tuple(f"su2-{c}" for c in "abcdef") + ("harper-static", "harper-closed-form", "harper-general")


@st.composite
def banded_operators(draw, dim=None):
    """A random complex operator on a random set of diagonals."""
    dim = draw(st.integers(1, 24)) if dim is None else dim
    offsets = draw(st.sets(st.integers(1 - dim, dim - 1), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Banded(dim, {k: rng.normal(size=dim - abs(k)) + 1j * rng.normal(size=dim - abs(k)) for k in offsets})


@PROPERTY
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(banded_operators(n), banded_operators(n))))
def test_banded_arithmetic_matches_dense(pair):
    a, b = pair
    da, db = a.to_dense(), b.to_dense()
    np.testing.assert_allclose((a @ b).to_dense(), da @ db, rtol=0, atol=1e-12)
    np.testing.assert_array_equal((a + b).to_dense(), da + db)
    np.testing.assert_array_equal((a - 2.5j * b).to_dense(), da - 2.5j * db)
    np.testing.assert_array_equal((a.conj().T / 3.0).to_dense(), da.conj().T / 3.0)
    assert hermiticity_defect(a) == hermiticity_defect(da)
    row, col = a.dim // 2, -1
    assert a[row, col] == da[row, col]


def test_banded_mixed_with_dense_is_type_error():
    op = Banded(3, {1: np.ones(2), -1: np.ones(2)})
    eye = np.eye(3)
    for combine in (operator.add, operator.sub, operator.matmul, operator.mul):
        with pytest.raises(TypeError):
            combine(op, eye)
        with pytest.raises(TypeError):
            combine(eye, op)
    with pytest.raises(TypeError):
        np.abs(op)
    for scalar in (np.float64(2.0), np.complex128(2.0 - 1.0j)):
        for result, want in ((scalar * op, scalar * op.to_dense()), (op * scalar, op.to_dense() * scalar),
                             (op / scalar, op.to_dense() / scalar)):
            assert isinstance(result, Banded)
            np.testing.assert_array_equal(result.to_dense(), want)
    np.testing.assert_array_equal(np.asarray(op), op.to_dense())
    with pytest.raises(ValueError, match="entries"):
        Banded(3, {1: np.ones(3)})


def test_banded_to_array_copies_and_refuses_a_view():
    op = Banded(3, {0: np.ones(3), 1: 2.0 * np.ones(2)})
    dense = op.to_dense()
    for got in (np.asarray(op), np.array(op), op.__array__(copy=True)):
        np.testing.assert_array_equal(got, dense)
    cast = np.asarray(op, dtype=complex)
    assert cast.dtype == complex
    np.testing.assert_array_equal(cast, dense)
    # the copy protocol's copy=False; numpy 1.x's asarray takes no copy
    # argument and never asks for it
    with pytest.raises(ValueError, match="no dense buffer"):
        op.__array__(copy=False)
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        with pytest.raises(ValueError, match="no dense buffer"):
            np.asarray(op, copy=False)


@st.composite
def system_operators(draw):
    """(system, banded build, dense oracle) at dimension <= 501."""
    system = draw(st.sampled_from(SYSTEMS))
    alpha = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    period = draw(st.floats(0.25, 2.0))
    if system.startswith("harper"):
        length, sigma = draw(st.integers(2, 501)), draw(st.floats(0.0, 1.0))
        params = HarperParams(length=length, sigma=sigma, alpha=alpha, period=period)
        kind = system.split("-", 1)[1]
        built = harper_hamiltonian(params) if kind == "static" else kicked_harper_effective(params, kind)
        return system, built, dense.harper(length, sigma, alpha, period, kind)
    j, eta = draw(st.integers(1, 500)) / 2.0, draw(st.floats(-50.0, 50.0))
    if system == "dkt":
        return system, dkt_effective_hamiltonian(alpha, eta, j), dense.dkt_heff(alpha, eta, j)
    case = system[-1]
    epsilon = draw(st.floats(-2.0, 2.0)) if case == "e" else None
    built = general_su2_hamiltonian(case, alpha, eta, j, epsilon)
    return system, built, dense.su2_family(case, alpha, eta, j, epsilon)


@PROPERTY
@given(system_operators())
def test_builders_match_dense_oracle(case):
    system, built, oracle = case
    assert built.bandwidth <= (3 if system == "dkt" else 1)
    assert np.max(np.abs(built.to_dense() - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@PROPERTY
@given(system_operators())
def test_eigensolve_matches_dense_eigh(case):
    _, built, oracle = case
    expected_values, expected_vectors = np.linalg.eigh(oracle)
    scale = np.max(np.abs(expected_values))
    assert np.max(np.abs(eigensolve(built) - expected_values)) <= 1e-12 * scale
    values, vectors = eigensolve(built, vectors=True)
    assert np.max(np.abs(values - expected_values)) <= 1e-12 * scale
    # compare weights only where the eigenvector is well defined: a state whose
    # eigenvalue nearly meets a neighbour's may mix with it differently per solver
    gaps = np.diff(expected_values)
    separated = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf]) > 1e-5 * scale
    weights = np.abs(vectors[:, separated]) ** 2
    expected_weights = np.abs(expected_vectors[:, separated]) ** 2
    assert np.max(np.abs(weights - expected_weights), initial=0.0) <= 1e-8


def test_eigensolve_periodic_ring():
    # the ring closure puts entries on diagonals +-(L-1): a wide band
    ring = harper_hamiltonian(HarperParams(12, 0.3)) + Banded(12, {11: [1.0], -11: [1.0]})
    assert ring.bandwidth == 11
    expected = np.linalg.eigvalsh(ring.to_dense())
    np.testing.assert_allclose(eigensolve(ring), expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        eigensolve(Banded(3, {1: np.ones(2)}))


def assert_eigenpairs(op, values, vectors, want):
    """Eigenvalues with vectors, without them and from the banded driver
    against `want` to 1e-12 relative, residual within 1e-12 * ||H|| and
    orthonormal columns to 1e-12."""
    mat = op.to_dense()
    scale = np.linalg.norm(mat, 2)
    for got in (values, hermitian_eigh(op), eigensolve(op)):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(mat @ vectors - vectors * values), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(len(values))), initial=0.0) <= 1e-12


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return mat + mat.conj().T


# j = 11 has dim 23 = 3 (mod 4): an even block of even size, which holds the middle index
@pytest.mark.parametrize("j", [0.5, 1, 1.5, 10, 10.5, 11, 200, 200.5])
def test_eigensolve_dkt_eigenvectors_match_dense_oracle(j):
    eta = GOLDEN_RATIO * j
    want = np.linalg.eigvalsh(dense.dkt_heff(1.0 / j, eta, j))
    op = dkt_effective_hamiltonian(1.0 / j, eta, j)
    values, vectors = eigensolve(op, vectors=True)
    assert_eigenpairs(op, values, vectors, want)


def su2_a(j):
    # real tridiagonal, equal to its index reversal: its mirror pairs are exactly degenerate
    return general_su2_hamiltonian("a", 1.0 / j, GOLDEN_RATIO * j, j)


def dkt(j):
    return dkt_effective_hamiltonian(1.0 / j, GOLDEN_RATIO * j, j)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: dkt(10.5), id="10.5"),
    pytest.param(lambda: dkt(200), id="200"),
    pytest.param(lambda: su2_a(50), id="su2-a-50"),
    pytest.param(lambda: su2_a(200.5), id="su2-a-200.5"),
    pytest.param(lambda: harper_hamiltonian(HarperParams(2001, 0.5)), id="harper-static-2001-half"),
])
def test_dkt_eigenvectors_have_spin_flip_parity(build):
    # each operator commutes with the index reversal R (m -> -m); its mirror
    # pairs are degenerate, to rounding or exactly, so only an R-adapted
    # solve returns states of definite parity
    _, vectors = eigensolve(build(), vectors=True)
    parity = np.sum(vectors.conj() * vectors[::-1], axis=0)
    assert np.max(np.abs(np.abs(parity) - 1.0)) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 5, 6, 7, 9, 10])
@pytest.mark.parametrize("mirrored", [False, True], ids=["chiral", "chiral-and-mirrored"])
def test_chiral_solve_with_zero_modes(dim, mirrored):
    # odd sizes have one more even index than odd ones, so a zero mode
    # (u, 0) beside the pairs +-s; a mirrored odd size puts it in the even
    # parity block
    mat = random_hermitian(dim, dim)
    if mirrored:
        mat = mat + mat[::-1, ::-1]
    mat[0::2, 0::2] = mat[1::2, 1::2] = 0.0
    op = as_banded(mat)
    values, vectors = hermitian_eigh(op, vectors=True)
    assert_eigenpairs(op, values, vectors, np.linalg.eigvalsh(mat))
    zero_modes = np.abs(values) <= 1e-12 * np.linalg.norm(mat, 2)
    assert np.count_nonzero(zero_modes) == dim % 2
    assert not np.any(vectors[1::2][:, zero_modes])


def dkt_plus_jz():
    # Jz breaks both the chirality and the spin-flip symmetry of the H_eff
    return dkt_effective_hamiltonian(0.04, GOLDEN_RATIO * 10, 10) + 0.1 * spin_operators(10).jz


@pytest.mark.parametrize("build", [lambda: as_banded(random_hermitian(1, 11)),
                                   lambda: as_banded(random_hermitian(4, 14)),
                                   lambda: as_banded(random_hermitian(7, 17)), dkt_plus_jz],
                         ids=["random-1", "random-4", "random-7", "dkt-plus-jz"])
def test_hermitian_eigh_without_symmetry_is_plain_eigh(build, monkeypatch):
    op = build()
    mat = op.to_dense()
    want_values, want_vectors = np.linalg.eigh(mat)
    monkeypatch.setattr(np.linalg, "svd", None)
    values, vectors = hermitian_eigh(op, vectors=True)
    np.testing.assert_array_equal(values, want_values)
    np.testing.assert_array_equal(vectors, want_vectors)
    np.testing.assert_array_equal(hermitian_eigh(op), np.linalg.eigvalsh(mat))


def count_banded_solves(monkeypatch, driver="eigvals_banded"):
    """Sizes of the blocks that scipy's `driver`, the banded eigenvalue one or
    "eigh_tridiagonal", is given from now on."""
    import scipy.linalg

    calls, solve = [], getattr(scipy.linalg, driver)
    monkeypatch.setattr(scipy.linalg, driver, lambda band, *args, **kw: calls.append(np.shape(band)[-1])
                        or solve(band, *args, **kw))
    return calls


@pytest.mark.parametrize("j", [10, 10.5])
def test_spin_flip_symmetric_blocks_without_chirality(j, monkeypatch):
    # Jz^2 keeps the spin flip but fills the main diagonal: the parity blocks
    # are neither chiral nor, at half-integer spin, paired by the sublattice
    # parity, so each block gets its own solve
    alpha, eta = 1.0 / j, GOLDEN_RATIO * j
    jz = spin_operators(j).jz
    op = dkt_effective_hamiltonian(alpha, eta, j) + 0.3 * (jz @ jz)
    oracle = dense.dkt_heff(alpha, eta, j) + 0.3 * dense.spin_matrices(j)[2] @ dense.spin_matrices(j)[2]
    want = np.linalg.eigvalsh(oracle)
    calls = count_banded_solves(monkeypatch)
    assert np.max(np.abs(eigensolve(op) - want)) <= 1e-12 * np.max(np.abs(want))
    assert len(calls) == 2
    monkeypatch.setattr(np.linalg, "svd", None)
    values, vectors = eigensolve(op, vectors=True)
    assert_eigenpairs(op, values, vectors, want)


@pytest.mark.parametrize("j, sizes", [(10, [11, 10]), (10.5, [11, 11]), (1.5, [2, 2]), (11, [12, 11])])
def test_spin_flip_symmetric_spectrum_is_solved_by_blocks(j, sizes, monkeypatch):
    calls = count_banded_solves(monkeypatch)
    eigensolve(dkt(j))
    assert calls == sizes


@pytest.mark.parametrize("build, sizes", [(lambda: su2_a(10), [11, 10]), (lambda: su2_a(10.5), [11, 11]),
                                          (lambda: kicked_harper_effective(HarperParams(51, GOLDEN_RATIO), CLOSED_FORM),
                                           [51])],
                         ids=["su2-a-10", "su2-a-10.5", "harper-kicked-51"])
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_real_tridiagonal_blocks_go_to_the_tridiagonal_driver(build, sizes, vectors, monkeypatch):
    # su2-a equals its index reversal and is split; the golden kicked chain
    # does not, and is solved whole
    calls, banded = count_banded_solves(monkeypatch, "eigh_tridiagonal"), count_banded_solves(monkeypatch)
    op = build()
    want = np.linalg.eigvalsh(op.to_dense())
    values = eigensolve(op, vectors=vectors)
    values = values[0] if vectors else values
    assert np.max(np.abs(values - want)) <= 1e-12 * np.max(np.abs(want))
    assert calls == sizes and banded == []


def test_spectrum_without_spin_flip_symmetry_is_one_banded_solve(monkeypatch):
    calls = count_banded_solves(monkeypatch)
    op = dkt_plus_jz()
    want = np.linalg.eigvalsh(op.to_dense())
    assert np.max(np.abs(eigensolve(op) - want)) <= 1e-12 * np.max(np.abs(want))
    assert calls == [op.dim]
