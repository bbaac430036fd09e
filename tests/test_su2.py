import numpy as np
import pytest

from kickedspec.operators import Banded, hermiticity_defect, max_abs
from kickedspec.su2 import (
    SpinLabel,
    dkt_static_part,
    general_su2_hamiltonian,
    hopping_operator,
    phase_operator,
    spin_operators,
)


def test_spin_label_validation():
    assert SpinLabel(0.5).dim == 2
    assert SpinLabel(20).dim == 41
    assert np.allclose(SpinLabel(1.5).m_values, [-1.5, -0.5, 0.5, 1.5])
    with pytest.raises(ValueError):
        SpinLabel(0.3)
    with pytest.raises(ValueError):
        SpinLabel(-1)


def test_spin_half_matrices():
    ops = spin_operators(0.5)
    assert np.allclose(ops.jx, [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(ops.jy, [[0.0, 0.5j], [-0.5j, 0.0]])
    assert np.allclose(np.diag(ops.jz), [-0.5, 0.5])
    assert np.allclose(ops.jplus, (ops.jx + 1j * ops.jy) / 2.0)


def test_spin_one_matrices():
    ops = spin_operators(1)
    assert np.allclose(np.diag(ops.jz), [-1.0, 0.0, 1.0])
    assert ops.jx[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))


@pytest.mark.parametrize("j", [0.5, 1, 2.5, 7, 40])
def test_jx_spectrum_is_m_ladder(j):
    ops = spin_operators(j)
    expected = SpinLabel(j).m_values
    assert np.allclose(np.linalg.eigvalsh(ops.jx), expected, atol=1e-10)


@pytest.mark.parametrize("j", [0.5, 1, 10, 100])
def test_su2_algebra(j):
    ops = spin_operators(j)
    comm = ops.jx @ ops.jy - ops.jy @ ops.jx
    assert max_abs(comm - 1j * ops.jz) <= 1e-12 * max(j, 1)
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    target = j * (j + 1.0)
    assert max_abs(casimir - target * Banded.diagonal(np.ones(SpinLabel(j).dim))) <= 1e-10 * target


def test_su2_algebra_full_resolution():
    # banded products and a banded max norm: no dense 5001-dim matrix
    j = 2500
    ops = spin_operators(j)
    comm = ops.jx @ ops.jy - ops.jy @ ops.jx
    assert max_abs(comm - 1j * ops.jz) <= 1e-12 * j


def test_hopping_matrices():
    assert np.allclose(hopping_operator(0.5), [[0, 1], [1, 0]])
    assert np.allclose(hopping_operator(1), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize("j", [1, 4.5, 12])
def test_hopping_spectrum_toeplitz(j):
    # analytic spectrum of the zero-diagonal unit-hopping tridiagonal matrix
    d = SpinLabel(j).dim
    expected = np.sort(2.0 * np.cos(np.arange(1, d + 1) * np.pi / (d + 1)))
    assert np.allclose(np.linalg.eigvalsh(hopping_operator(j)), expected, atol=1e-10)


def test_phase_operator_values():
    assert np.allclose(np.diag(phase_operator(0.5, np.pi)), [0.0, 2.0 * np.pi])
    assert np.allclose(phase_operator(3, 0.0), np.zeros((7, 7)))
    assert np.allclose(np.diag(phase_operator(1, 1.0)), [-0.5, 0.5, 1.5])
    with pytest.raises(ValueError):
        phase_operator(0, 1.0)


def test_family_zero_couplings_give_zero():
    # alpha only enters through a, b, C; case f has a = 0, b = alpha and
    # C = alpha*1, so the matrix is ~alpha
    ham = general_su2_hamiltonian("f", 1e-300, 0.7, 2)
    assert max_abs(ham) < 1e-290


def test_family_case_f_is_cosine_chain():
    j, alpha, eta = 5, 0.25, 1.3
    ham = general_su2_hamiltonian("f", alpha, eta, j)
    m = SpinLabel(j).m_values
    diag = 2.0 * alpha * np.cos(eta * (2 * m + 1) / (2 * j))
    assert np.allclose(np.diag(ham), diag)
    assert np.allclose(np.diag(ham, k=1), alpha * np.ones(10))
    assert np.allclose(np.diag(ham, k=2), 0.0)


def test_family_eta_parity_and_periodicity():
    j, alpha = 6, 0.5
    eta = 2.31
    for case in "abcdef":
        epsilon = 0.5 if case == "e" else None
        h_plus = general_su2_hamiltonian(case, alpha, eta, j, epsilon)
        h_minus = general_su2_hamiltonian(case, alpha, -eta, j, epsilon)
        assert np.array_equal(h_plus, h_minus)  # cos is even in X
        h_shift = general_su2_hamiltonian(case, alpha, eta + 4.0 * np.pi * j, j, epsilon)
        assert max_abs(h_plus - h_shift) <= 1e-12 * max(max_abs(h_plus), 1e-30)


def test_family_case_e_requires_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        general_su2_hamiltonian("e", 0.1, 1.0, 4)
    ham = general_su2_hamiltonian("e", 0.1, 1.0, 4, epsilon=0.5)
    assert hermiticity_defect(ham) <= 1e-12


def test_family_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown family case"):
        general_su2_hamiltonian("g", 1.0, 1.0, 2)


def test_family_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        general_su2_hamiltonian("b", 0.0, 1.0, 1)


@pytest.mark.parametrize("case", ["a", "b", "c", "d", "f"])
def test_family_hermiticity(case):
    ham = general_su2_hamiltonian(case, 0.05, 11.4, 30)
    assert hermiticity_defect(ham) <= 1e-12


def test_dkt_static_part_eta_zero_is_jx():
    alpha, period, j = 2.0, 0.5, 5
    ham = dkt_static_part(alpha, 0.0, j, period)
    assert np.allclose(ham, (alpha / period) * spin_operators(j).jx)


def test_dkt_static_part_alpha_zero():
    assert np.allclose(dkt_static_part(0.0, 1.7, 3), np.zeros((7, 7)))


def test_dkt_static_part_hand_case():
    # j=1/2, eta=pi*j: X = diag(0, pi), so exp(iX) = diag(1, -1) and the
    # ladder entry is sqrt(1)/2; the (alpha/T) prefactor leaves |entry| = 1/2.
    ham = dkt_static_part(1.0, np.pi / 2.0, 0.5, 1.0)
    assert np.allclose(ham, [[0.0, 0.5], [0.5, 0.0]])
    # generic eta: single off-diagonal with phase exp(i eta (2m+1)/2j) at m=-1/2
    eta = 0.77
    ham = dkt_static_part(1.0, eta, 0.5, 1.0)
    assert ham[1, 0] == pytest.approx(0.5 * np.exp(1j * 0.0))
    assert np.count_nonzero(ham) == 2


def test_dkt_static_part_band_structure():
    ham = dkt_static_part(0.3, 4.1, 8)
    assert np.allclose(np.diag(ham), 0.0)
    assert np.allclose(np.diag(ham, k=2), 0.0)
    assert hermiticity_defect(ham) <= 1e-12


def test_dkt_static_part_rejects_bad_period():
    for period in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="period"):
            dkt_static_part(1.0, 1.0, 2, period)
