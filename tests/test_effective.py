import numpy as np
import pytest

from conftest import as_banded, random_hermitian
from kickedspec import GOLDEN_RATIO
from kickedspec.effective import KickedSystem, commutator, heff_delta_kicked, heff_general, micromotion_kick
from kickedspec.floquet import dkt_kicked_system
from kickedspec.operators import Banded, hermiticity_defect, max_abs
from kickedspec.su2 import spin_operators

SX = as_banded(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SZ = as_banded(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def diagonal(*values):
    return Banded.diagonal(np.array(values))


def zero(dim):
    return Banded(dim, {})


def random_banded(dim, seed):
    return as_banded(random_hermitian(dim, seed))


def test_commutator_su2():
    ops = spin_operators(1.5)
    assert np.allclose(commutator(ops.jx, ops.jy), 1j * ops.jz, atol=1e-14)


def test_commutator_self_is_zero():
    mat = random_banded(5, seed=1)
    assert np.allclose(commutator(mat, mat), 0.0)


def test_commutator_hand_case():
    assert np.allclose(commutator(diagonal(1.0, 2.0), SX), [[0.0, -1.0], [1.0, 0.0]])


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension 2 and 3 do not combine"):
        commutator(diagonal(1.0, 1.0), diagonal(1.0, 1.0, 1.0))


@pytest.mark.parametrize("dense", ["first", "second", "both"])
def test_commutator_refuses_a_dense_operand(dense):
    a = SX.to_dense() if dense in ("first", "both") else SX
    b = SZ.to_dense() if dense in ("second", "both") else SZ
    with pytest.raises(TypeError, match="two Banded operators"):
        commutator(a, b)


@pytest.mark.parametrize("dense", ["h0", "kick"])
def test_kicked_system_refuses_a_dense_operand(dense):
    operands = {"h0": SZ, "kick": SX}
    operands[dense] = operands[dense].to_dense()
    with pytest.raises(TypeError, match="must be a Banded operator, got ndarray"):
        KickedSystem(**operands, period=1.0)


def test_kicked_system_validation():
    for period in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="period"):
            KickedSystem(h0=SZ, kick=SX, period=period)
    with pytest.raises(ValueError, match="dimension"):
        KickedSystem(h0=SZ, kick=diagonal(1.0, 1.0, 1.0), period=1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        KickedSystem(h0=Banded(2, {1: [1.0]}), kick=SX, period=1.0)
    system = KickedSystem(h0=SZ, kick=SX, period=0.5)
    assert system.omega * system.period == pytest.approx(2.0 * np.pi, abs=1e-14)


def test_kick_fourier_coefficients_comb():
    # with h0 = 0 every bracket vanishes and heff_general is the comb coefficient kick/T
    comb = heff_general(KickedSystem(h0=zero(2), kick=diagonal(1.0, 1.0), period=2.0), n_max=8)
    assert np.allclose(comb, np.eye(2) / 2.0)
    assert max_abs(heff_general(KickedSystem(h0=zero(3), kick=zero(3), period=1.0), n_max=4)) == 0.0


def test_heff_delta_commuting_kick():
    # kick commutes with the static part: no correction survives
    system = KickedSystem(h0=diagonal(1.0, 2.0), kick=diagonal(0.3, 0.7), period=0.25)
    assert np.allclose(heff_delta_kicked(system), np.diag([1.0 + 1.2, 2.0 + 2.8]))


def test_heff_delta_zero_kick():
    h0 = random_banded(4, seed=2)
    system = KickedSystem(h0=h0, kick=zero(4), period=1.0)
    assert np.allclose(heff_delta_kicked(system), h0)


def test_heff_delta_tridiagonal_bond_correction():
    # onsite kick v_n against unit hopping: the correction must sit on the
    # bonds with weight -(v_n - v_{n+1})^2 / 24 (brute-force oracle below)
    onsite = np.array([0.9, -0.4, 2.2, 0.1])
    hop = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    kick = np.diag(onsite)
    system = KickedSystem(h0=as_banded(hop.astype(complex)), kick=as_banded(kick.astype(complex)), period=1.0)
    heff = heff_delta_kicked(system)

    brute = kick @ hop - hop @ kick
    brute = (brute @ kick - kick @ brute) / 24.0  # [[V,H0],V]/24 written out
    assert np.allclose(heff, hop + kick + brute)
    expected_bonds = 1.0 - (onsite[:-1] - onsite[1:]) ** 2 / 24.0
    assert np.allclose(np.diag(heff, k=1), expected_bonds)
    assert np.allclose(np.diag(heff), onsite)


def test_heff_delta_affine_in_static_part():
    kick = random_banded(4, seed=3)
    h_a = random_banded(4, seed=4)
    h_b = random_banded(4, seed=5)
    t = 0.7

    def heff(h0):
        return heff_delta_kicked(KickedSystem(h0=h0, kick=kick, period=t))

    lhs = heff(h_a + 2.0 * h_b)
    rhs = heff(h_a) + 2.0 * (heff(h_b) - heff(zero(4)))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_heff_general_commuting_case_is_average():
    h0 = diagonal(1.0, -1.0, 0.5)
    kick = diagonal(0.2, 0.4, -0.1)
    out = heff_general(KickedSystem(h0=h0, kick=kick, period=0.5), n_max=64)
    assert np.allclose(out, h0 + kick / 0.5)


@pytest.mark.parametrize("system", [
    pytest.param(KickedSystem(h0=SZ, kick=SX, period=0.1), id="2x2"),
    # the paper's headline operator: complex bandwidth-3 DKT H_eff, j = 10, eta/j golden
    pytest.param(dkt_kicked_system(0.1, GOLDEN_RATIO * 10, 10), id="dkt-banded"),
])
def test_heff_general_matches_closed_form(system):
    general = heff_general(system, n_max=10**6)
    closed = heff_delta_kicked(system)
    assert max_abs(general - closed) <= 1e-6 * max_abs(closed)
    assert isinstance(general, Banded)


def test_heff_general_hand_evaluated_partial_sum():
    # delta-kick drive: only the [[Vn,H0],V-n] bracket survives, so with
    # V=sx, H0=sz the sum is s2(N) / (2 w^2 T^2) * 2 * [[sx,sz],sx]
    # and [[sx,sz],sx] = -4 sz by direct Pauli algebra.
    period, n_max = 0.1, 200
    omega = 2.0 * np.pi / period
    s2 = np.sum(1.0 / np.arange(1.0, n_max + 1) ** 2)
    expected = SZ + SX / period + (s2 / omega**2 / period**2) * (-4.0) * SZ
    system = KickedSystem(h0=SZ, kick=SX, period=period)
    assert np.allclose(heff_general(system, n_max=n_max), expected, atol=1e-13)


def test_heff_general_first_order_vanishes_for_comb():
    kick = random_banded(3, seed=21)
    h0 = zero(3)
    # with h0 = 0 every second-order bracket vanishes too: result is v0 exactly
    out = heff_general(KickedSystem(h0=h0, kick=kick, period=1.0), n_max=32)
    assert max_abs(out - kick) <= 1e-14 * max_abs(kick)


def test_heff_general_converges_monotonically():
    period = 0.3
    system = KickedSystem(h0=random_banded(3, seed=31), kick=random_banded(3, seed=32), period=period)
    previous = None
    gaps = []
    for n_max in (16, 32, 64, 128, 256):
        current = heff_general(system, n_max)
        if previous is not None:
            gaps.append(max_abs(current - previous))
        previous = current
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_heff_general_validation():
    with pytest.raises(ValueError, match="period"):
        heff_general(KickedSystem(h0=SZ, kick=SX, period=np.inf), 4)  # omega = 0
    with pytest.raises(ValueError, match="dimension"):
        heff_general(KickedSystem(h0=diagonal(1.0, 1.0, 1.0), kick=SX, period=1.0), 4)
    with pytest.raises(ValueError, match="n_max"):
        heff_general(KickedSystem(h0=SZ, kick=SX, period=1.0), 0)


def test_heff_outputs_hermitian():
    system = KickedSystem(h0=random_banded(6, seed=41), kick=random_banded(6, seed=42), period=0.2)
    heff = heff_delta_kicked(system)
    assert hermiticity_defect(heff) <= 1e-12
    general = heff_general(system, 128)
    assert hermiticity_defect(general) <= 1e-10


# ---------------------------------------------------------------------------
# micromotion
# ---------------------------------------------------------------------------

def _dkt_like_system(seed=51, period=0.4, dim=3):
    return KickedSystem(h0=random_banded(dim, seed=seed), kick=random_banded(dim, seed=seed + 1), period=period)


def test_micromotion_zero_kick():
    system = KickedSystem(h0=random_banded(3, seed=61), kick=zero(3), period=1.0)
    assert max_abs(micromotion_kick(system, 0.37)) == 0.0


def test_micromotion_periodicity():
    system = _dkt_like_system()
    t = 0.123
    f0 = micromotion_kick(system, t)
    for shift in (1, 3):
        assert max_abs(micromotion_kick(system, t + shift * system.period) - f0) <= 1e-12 * max(max_abs(f0), 1.0)


def test_micromotion_is_hermitian_with_zero_average():
    # exp(iF) must be unitary, so F is Hermitian; its one-period average vanishes
    system = _dkt_like_system(seed=71)
    samples = 4099  # uniform midpoint rule: the sawtooth cancels by symmetry, the parabola to O(samples^-2)
    ts = (np.arange(samples) + 0.5) * system.period / samples
    mean = zero(system.dim)
    norm = 0.0
    for t in ts:
        f = micromotion_kick(system, float(t))
        assert hermiticity_defect(f) <= 1e-10
        mean = mean + f
        norm = max(norm, max_abs(f))
    assert max_abs(mean / samples) <= 1e-6 * norm


def test_micromotion_first_order_sawtooth_partial_sum():
    # first order, delta kicks: F(t) = (2/w) sum sin(n theta)/n * V/T, whose sum is (pi - theta)/2 on (0, 2 pi)
    system = _dkt_like_system(seed=81, period=1.0)
    v = system.kick / system.period
    for t in (0.25, 0.5, 0.9):
        theta = system.omega * t
        got = micromotion_kick(system, t, order=1)
        expected = (2.0 / system.omega) * (np.pi - theta) / 2.0 * v
        assert max_abs(got - expected) <= 1e-12 * max_abs(expected)
        # the partial sums converge to it within the tail bound |sum_{n>N} sin(n theta)/n| <= 1/((N+1) sin(theta/2))
        for n_max in (64, 512, 4096):
            n = np.arange(1, n_max + 1)
            weight = (2.0 / system.omega) * np.sum(np.sin(n * theta) / n)
            tail = (2.0 / system.omega) / ((n_max + 1) * np.sin(theta / 2.0))
            assert max_abs(got - weight * v) <= tail * max_abs(v)


def test_micromotion_at_the_kick():
    # at t = kT the sine series is 0 and the cosine series is zeta(2) = pi^2/6
    system = _dkt_like_system(seed=91)
    v = system.kick / system.period
    expected = (-2.0j / system.omega**2) * (np.pi**2 / 6.0) * commutator(v, system.h0 + v)
    for k in (0, 1, 2):
        t = k * system.period
        assert max_abs(micromotion_kick(system, t, order=1)) == 0.0
        assert max_abs(micromotion_kick(system, t) - expected) <= 1e-12 * max_abs(expected)


def test_micromotion_rejects_bad_order():
    system = _dkt_like_system()
    with pytest.raises(ValueError, match="order"):
        micromotion_kick(system, 0.1, order=3)
