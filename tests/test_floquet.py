import math
import re

import numpy as np
import pytest

import dense_oracle as dense
from conftest import as_banded, random_hermitian
from kickedspec import GOLDEN_RATIO, floquet
from kickedspec.cli import main
from kickedspec.floquet import (
    _ladder_gauge,
    _ladder_quasienergies,
    _sector_quasienergies,
    _twist_gauge,
    dkt_effective_hamiltonian,
    dkt_floquet,
    dkt_kicked_system,
    effective_vs_floquet_error,
    effective_vs_floquet_errors,
    fold_phases,
    quasienergy_spectrum,
    unitary_from_hermitian,
)
from kickedspec.operators import Banded, hermitian_eigh, max_abs, unitarity_defect
from kickedspec.su2 import SpinLabel, dkt_static_part, spin_operators

MODULATIONS = {"golden": GOLDEN_RATIO, "silver": math.sqrt(2.0) - 1.0, "bronze": (math.sqrt(13.0) - 3.0) / 2.0}
LADDER = (0.04, 0.02, 0.01, 0.005, 0.0025, 0.00125)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_quasienergies(phases, seed):
    """Random unitary with eigenvalues exp(-iE) for the given E."""
    q = random_unitary(len(phases), seed)
    return (q * np.exp(-1j * np.asarray(phases))) @ q.conj().T


def circular_distance(a, b):
    """Largest distance on the circle from a phase in one set to the nearest in the other."""
    gaps = np.abs(np.angle(np.exp(1j * (np.asarray(a)[:, None] - np.asarray(b)[None, :]))))
    return max(gaps.min(axis=1).max(), gaps.min(axis=0).max())


def test_unitary_from_hermitian_identity_at_zero():
    h = as_banded(random_hermitian(4, seed=1))
    assert np.allclose(unitary_from_hermitian(h, 0.0), np.eye(4))


def test_unitary_from_hermitian_diagonal():
    u = unitary_from_hermitian(Banded.diagonal([1.5, -0.5]), 2.0)
    assert np.allclose(u, np.diag([np.exp(-3.0j), np.exp(1.0j)]))


def test_unitary_from_hermitian_spin_half_rotation():
    # exp(-i pi Jy) for j=1/2 rotates by pi: the 2x2 matrix has zero trace
    jy = spin_operators(0.5).jy
    u = unitary_from_hermitian(jy, np.pi)
    assert abs(np.trace(u)) < 1e-12


@pytest.mark.parametrize("dim", [2, 5, 17])
def test_unitary_from_hermitian_is_unitary(dim):
    ham = random_hermitian(dim, seed=dim)
    u = unitary_from_hermitian(as_banded(ham), 0.83)
    assert unitarity_defect(u) <= 1e-10
    # densified before numpy's eigh, so bit for bit the dense oracle's exponential
    np.testing.assert_array_equal(unitary_from_hermitian(as_banded(ham), 1.0), dense.exponential(ham))


def test_unitary_from_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_from_hermitian(Banded(2, {1: [1.0]}), 1.0)


def test_unitary_from_hermitian_refuses_a_dense_generator():
    with pytest.raises(TypeError, match="generator must be a Banded operator, got ndarray"):
        unitary_from_hermitian(random_hermitian(3, seed=3), 1.0)


def test_fold_phases_range_and_boundary():
    x = np.array([0.0, np.pi, -np.pi, 3.5 * np.pi, -2.0 * np.pi])
    folded = fold_phases(x)
    assert np.all(folded > -np.pi) and np.all(folded <= np.pi)
    assert folded[0] == 0.0
    assert folded[1] == pytest.approx(np.pi)
    assert folded[2] == pytest.approx(np.pi)  # -pi maps to the closed end
    assert folded[3] == pytest.approx(-0.5 * np.pi)
    assert folded[4] == pytest.approx(0.0)


def test_dkt_floquet_alpha_zero_is_identity():
    assert np.allclose(dkt_floquet(0.0, 1.3, 4), np.eye(9))


@pytest.mark.parametrize("alpha", [0.0, np.nan, np.inf])
def test_dkt_kicked_system_rejects_zero_or_non_finite_alpha(alpha):
    # every DKT effective-Hamiltonian path builds its kicked system here
    with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
        dkt_kicked_system(alpha, 1.3, 4)


def test_dkt_floquet_eta_zero_merges_kicks():
    # both factors become rotations about Jx: exp(-2 i alpha Jx)
    alpha, j = 0.37, 3
    expected = unitary_from_hermitian(spin_operators(j).jx, 2.0 * alpha)
    assert np.allclose(dkt_floquet(alpha, 0.0, j), expected, atol=1e-12)


def test_dkt_floquet_unitarity_and_eta_periodicity():
    alpha, eta, j = 0.2, 2.7, 6
    op = dkt_floquet(alpha, eta, j)
    assert unitarity_defect(op) <= 1e-10
    shifted = dkt_floquet(alpha, eta + 4.0 * np.pi * j, j)
    a = quasienergy_spectrum(op)
    b = quasienergy_spectrum(shifted)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_dkt_floquet_spin_half_hand_product():
    # j=1/2, eta=pi*j: generator alpha*(Jplus e^{iX} + h.c.) = alpha*Jx since
    # X = diag(0, pi) only phases the (lower, upper) corner pair coherently
    alpha = 1.0
    op = dkt_floquet(alpha, np.pi / 2.0, 0.5)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    first = np.cos(alpha / 2.0) * np.eye(2) - 1j * np.sin(alpha / 2.0) * sx
    second = np.cos(alpha / 2.0) * np.eye(2) - 1j * np.sin(alpha / 2.0) * sx
    assert np.allclose(op, first @ second, atol=1e-12)


def test_quasienergy_spectrum_identity():
    assert np.allclose(quasienergy_spectrum(np.eye(5)), np.zeros(5))


def test_quasienergy_spectrum_diagonal_phases():
    u = np.diag([np.exp(0.5j * np.pi), np.exp(-0.5j * np.pi)])
    assert np.allclose(quasienergy_spectrum(u), [-np.pi / 2.0, np.pi / 2.0])


def test_quasienergy_spectrum_conjugation_invariant():
    op = dkt_floquet(0.3, 1.9, 4)
    w = random_unitary(9, seed=9)
    a = quasienergy_spectrum(op)
    b = quasienergy_spectrum(w @ op @ w.conj().T)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_quasienergy_spectrum_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        quasienergy_spectrum(np.diag([2.0, 0.5]))


def test_quasienergy_roundtrip_through_exponential():
    h = random_hermitian(6, seed=12)
    period = 0.9
    phases = quasienergy_spectrum(unitary_from_hermitian(as_banded(h), period))
    expected = np.sort(fold_phases(np.linalg.eigvalsh(h) * period))
    assert np.max(np.abs(phases - expected)) <= 1e-10


def test_dkt_system_consistency_with_floquet():
    # the Floquet operator factors as exp(-i H0) exp(-i kick) at the kicked
    # system's unit period; rebuilding it from the pieces must agree exactly
    alpha, eta, j = 0.11, 3.3, 5
    system = dkt_kicked_system(alpha, eta, j)
    assert system.period == 1.0
    rebuilt = unitary_from_hermitian(system.h0, 1.0) @ unitary_from_hermitian(system.kick, 1.0)
    assert np.allclose(rebuilt, dkt_floquet(alpha, eta, j), atol=1e-12)


def test_effective_vs_floquet_error_rejects_zero_alpha():
    # the effective side builds its kicked system through dkt_kicked_system
    with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
        effective_vs_floquet_error(0.0, 2.1, 5)


def test_effective_vs_floquet_error_improves_with_smaller_alpha():
    eta_over_j = GOLDEN_RATIO
    j = 10
    errors = [effective_vs_floquet_error(alpha, eta_over_j * j, j) for alpha in (0.04, 0.02, 0.01)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] / errors[2] >= 4.0
    assert errors[2] < 1e-4


def test_effective_hamiltonian_matches_kicked_system():
    alpha, eta, j = 0.05, 1.1, 3
    from kickedspec.effective import heff_delta_kicked
    assert np.allclose(dkt_effective_hamiltonian(alpha, eta, j),
                       heff_delta_kicked(dkt_kicked_system(alpha, eta, j)))


@pytest.mark.parametrize("j, ladder", [(10, LADDER), (200, LADDER[:3])], ids=["j10", "j200-three-rungs"])
@pytest.mark.parametrize("modulation", sorted(MODULATIONS))
def test_ladder_errors_match_dense_oracle(j, ladder, modulation):
    # the benchmark's ladder, cut to its three largest kicks at j = 200, where
    # every rung takes the cosines of its CS angles; the oracle multiplies two
    # dense exponentials and takes quasienergies from the nonsymmetric solver
    eta = MODULATIONS[modulation] * j
    got = effective_vs_floquet_errors(ladder, eta, j)
    want = dense.dkt_floquet_errors(ladder, eta, j)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_single_error_is_one_rung_of_the_ladder():
    eta = GOLDEN_RATIO * 10
    assert effective_vs_floquet_errors(LADDER, eta, 10)[2] == effective_vs_floquet_error(LADDER[2], eta, 10)


@pytest.mark.parametrize("alpha, eta", [(0.7, 1.9), (0.04, 3.3)])
@pytest.mark.parametrize("j", [0.5, 5, 50])
def test_dkt_floquet_matches_dense_oracle(alpha, eta, j):
    assert max_abs(dkt_floquet(alpha, eta, j) - dense.dkt_floquet(alpha, eta, j)) <= 1e-12


@pytest.mark.parametrize("bad", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan)])
def test_dkt_floquet_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        dkt_floquet(*bad, 5)


@pytest.mark.parametrize("eta_over_j", [GOLDEN_RATIO, math.sqrt(2.0) - 1.0, 0.137, 2.7])
@pytest.mark.parametrize("j", [0.5, 1, 10, 200, 1000])
def test_static_part_is_twist_gauge_of_jx(eta_over_j, j):
    # dkt_static_part(1, eta, j) = P Jx P^dag with P the running product of phases
    spin = SpinLabel(j)
    eta = eta_over_j * max(spin.j, 1.0)
    twist = _twist_gauge(spin, eta)
    lower = spin_operators(spin).jx.band(-1) * twist[1:] * twist[:-1].conj()
    static = dkt_static_part(1.0, eta, spin)
    gauged = Banded(spin.dim, {-1: lower, 1: lower.conj()})
    assert max_abs(static - gauged) <= 1e-13 * max_abs(static)


@pytest.mark.parametrize("unitary", [
    with_quasienergies([np.pi, 0.3, -1.2, 2.0, -2.9, 1.1], seed=3),
    with_quasienergies([-(np.pi - 1e-9), 0.3, -1.2, 2.0, -2.9, 1.1], seed=4),
    -np.eye(5),
    np.diag([-1.0, 1.0]),
], ids=["minus-one", "near-minus-one", "minus-identity", "diag-minus-one-one"])
def test_quasienergy_spectrum_moves_a_crowded_cut(unitary):
    # each has an eigenvalue on or within 1e-9 of -1, at the fold E = pi;
    # the spectrum matches eigvals
    got = quasienergy_spectrum(unitary)
    assert np.all(np.diff(got) >= 0) and np.all(got > -np.pi) and np.all(got <= np.pi)
    assert got.size == unitary.shape[0]
    assert circular_distance(got, dense.quasienergies(unitary)) <= 1e-12


def evenly_spread(dim):
    """dim quasienergies 2 pi/dim apart, one at zero; none within pi/dim of pi."""
    return 2.0 * np.pi * np.arange(-(dim // 2), dim - dim // 2) / dim


@pytest.mark.parametrize("basis", ["diagonal", "haar"])
def test_quasienergy_spectrum_resolves_an_even_spread_next_to_pi(basis):
    # every gap is 2 pi/dim wide and one eigenvalue sits pi/dim from the fold
    # at E = pi; the nonsymmetric eigensolve has no branch cut, so only its
    # rounding grows with dim, and the benchmark ladder's dim 401 already
    # spaces the phases 0.016 apart, where the cases above keep 0.24
    phases = evenly_spread(401)
    if basis == "diagonal":
        unitary = np.diag(np.exp(-1j * phases))
        expected = dense.quasienergies(unitary)
    else:
        unitary = with_quasienergies(phases, seed=6)
        expected = phases
    got = quasienergy_spectrum(unitary)
    assert circular_distance(got, expected) <= 1e-12


def test_quasienergy_spectrum_keeps_the_unitarity_tolerance():
    # a matrix unitary only to ~1e-11 passes the contract and still gets its
    # spectrum, to the accuracy its unitarity allows
    unitary = with_quasienergies([np.pi - 1e-4, 0.3, -1.2, 2.0, -2.9, 1.1], seed=5)
    unitary = unitary + 1e-11 * np.random.default_rng(5).normal(size=unitary.shape)
    assert 1e-12 < unitarity_defect(unitary) <= 1e-10
    assert circular_distance(quasienergy_spectrum(unitary), dense.quasienergies(unitary)) <= 1e-10


@pytest.mark.parametrize("j, alpha, modulation", [
    pytest.param(j, alpha, modulation, id=f"{alpha}-{modulation}" if j == 200 else f"j{j}-{alpha}-{modulation}")
    for j in (200, 200.5, 10.5, 2, 1.5, 1, 0.5) for alpha in (0.01, 0.04) for modulation in sorted(MODULATIONS)])
def test_ladder_quasienergies_match_dense_oracle(j, alpha, modulation):
    # j = 200 and 200.5 rungs take the cosines of their CS angles at these
    # kicks, the smaller spins arcsin alone; j = 200.5 and 10.5 have an even
    # dimension, where the two parity blocks make one chiral block, j = 2
    # and 1 a middle index in parity blocks of sizes 3 + 2 and 2 + 1,
    # j = 1.5 blocks 2 + 2 and j = 0.5 two 1x1 blocks
    spin = SpinLabel(j)
    eta = MODULATIONS[modulation] * spin.j
    got = _ladder_quasienergies(_ladder_gauge(spin, eta), spin, alpha)
    assert circular_distance(got, dense.quasienergies(dense.dkt_floquet(alpha, eta, spin.j))) <= 3e-14


def test_ladder_gauge_rejects_a_twist_that_breaks_parity(monkeypatch):
    # random phases do not commute with the flip m -> -m, so A couples the
    # even and odd Jx eigenvectors and the blocks would drop that coupling
    rng = np.random.default_rng(7)
    monkeypatch.setattr(floquet, "_twist_gauge", lambda spin, eta: np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, spin.dim)))
    with pytest.raises(ValueError, match="parity blocks by"):
        effective_vs_floquet_errors([0.04], GOLDEN_RATIO * 10, 10)


@pytest.mark.parametrize("j", [10, 10.5])
def test_ladder_gauge_reports_the_dense_off_block_mixing(monkeypatch, j):
    # the value in the message is max|p_i - p_{n-1-i}|/2, the largest entry
    # of diag(P^dag) coupling the two parity bases; it bounds every entry of
    # A[0::2, 1::2] for the dense A = Vx^T P^dag Vx, which the half-size
    # blocks never build
    spin = SpinLabel(j)
    twist = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, spin.dim))
    monkeypatch.setattr(floquet, "_twist_gauge", lambda spin, eta: twist)
    mixing = max_abs(twist - twist[::-1]) / 2.0
    vecs = np.linalg.eigh(spin_operators(spin).jx.to_dense())[1]
    gauge = vecs.T @ (twist.conj()[:, None] * vecs)
    assert mixing >= max_abs(gauge[0::2, 1::2])
    with pytest.raises(np.linalg.LinAlgError, match=re.escape(f"parity blocks by {mixing:.3g}") + "$"):
        _ladder_gauge(spin, GOLDEN_RATIO * spin.j)


@pytest.mark.parametrize("alpha", [0.04, 0.00125])
@pytest.mark.parametrize("j", [0.5, 1, 1.5, 10, 10.5, 200])
def test_chiral_energies_match_dense_eigvalsh(j, alpha):
    # the ladder's effective spectrum: the H_eff stores odd diagonals only
    heff = dkt_effective_hamiltonian(alpha, GOLDEN_RATIO * j, j)
    assert all(k % 2 for k in heff.bands)
    want = np.linalg.eigvalsh(heff.to_dense())
    assert np.max(np.abs(hermitian_eigh(heff) - want)) <= 1e-13 * np.max(np.abs(want))



def signed_reversal(signs):
    """The matrix of S: e_k -> s_k e_{n-1-k}."""
    dim = len(signs)
    mat = np.zeros((dim, dim))
    mat[dim - 1 - np.arange(dim), np.arange(dim)] = signs
    return mat


def dense_gauge(spin, eta):
    """A = Vx^T P^dag Vx from numpy's eigh of the dense Jx, whose k-th
    eigenvector has R-parity (-1)^(2j-k)."""
    vecs = np.linalg.eigh(spin_operators(spin).jx.to_dense())[1]
    return vecs.T @ (_twist_gauge(spin, eta).conj()[:, None] * vecs)


@pytest.mark.parametrize("j", [1, 2, 10, 200])
def test_ladder_blocks_are_chiral_under_the_pi_rotation(j):
    # S = diag((-1)^(j+m)) anticommutes with Jx and commutes with the twist,
    # so on each parity block's Jx eigenvectors it is a signed reversal S_b
    # with S_b A_b S_b = A_b: in S_b's eigenbasis A_b is the direct sum of
    # its two sectors, each complex symmetric and unitary, whose spectra
    # make up A_b's (R-even is index-even at integer spin)
    spin = SpinLabel(j)
    for modulation in sorted(MODULATIONS):
        eta = MODULATIONS[modulation] * j
        gauge = dense_gauge(spin, eta)
        for parity, sectors in enumerate(_ladder_gauge(spin, eta)):
            block = gauge[parity::2, parity::2]
            assert [len(sector) for sector in sectors] == [len(block) // 2, len(block) - len(block) // 2]
            for sector in sectors:
                assert unitarity_defect(sector) <= 1e-13 and max_abs(sector - sector.T) <= 1e-13
            union = np.concatenate([np.linalg.eigvals(sector) for sector in sectors])
            assert circular_distance(np.angle(union), np.angle(np.linalg.eigvals(block))) <= 1e-12


@pytest.mark.parametrize("j", [1.5, 10.5])
def test_pi_rotation_swaps_the_parity_blocks_at_half_integer_spin(j):
    # S maps the k-th Jx eigenvector onto +-the (n-1-k)-th, which has the
    # other spin-flip parity when n is even, so the two parity blocks make
    # one chiral block: its two sectors are one R-odd gauge block, whose
    # spectrum is that of each parity block of A
    spin = SpinLabel(j)
    vecs = np.linalg.eigh(spin_operators(spin).jx.to_dense())[1]
    rotated = (-1.0) ** np.arange(spin.dim)[:, None] * vecs
    assert np.allclose(np.abs(np.sum(rotated * vecs[:, ::-1], axis=0)), 1.0, rtol=0.0, atol=1e-13)
    flip_parity = np.sum(vecs[::-1] * vecs, axis=0)
    assert np.allclose(flip_parity, -flip_parity[::-1], rtol=0.0, atol=1e-13)
    eta = GOLDEN_RATIO * spin.j
    [(inner, outer)] = _ladder_gauge(spin, eta)
    assert inner is outer and inner.shape == (spin.dim // 2, spin.dim // 2)
    assert unitarity_defect(inner) <= 1e-13 and max_abs(inner - inner.T) <= 1e-13
    gauge = dense_gauge(spin, eta)
    for parity in (0, 1):
        assert circular_distance(np.angle(np.linalg.eigvals(inner)),
                                 np.angle(np.linalg.eigvals(gauge[parity::2, parity::2]))) <= 1e-12


def dense_rung(block, m_values, alpha):
    """E conj(A_b) D_b A_b E of a gauge block, E = D_b^(1/2), by dense products."""
    root = np.exp(-0.5j * alpha * m_values)
    return root[:, None] * (block.conj() @ (np.exp(-1j * alpha * m_values)[:, None] * block)) * root


def rotation_symmetric_gauge(signs, seed, pair_phase=None):
    """Complex symmetric unitary A = exp(iH), H real symmetric with S H S = H
    for the signed reversal S, so S A S = A.  With `pair_phase` theta, A is
    exp(i theta) on e_0 and e_{n-1} and couples them to nothing, so the rung
    E conj(A) D A E has the quasienergies +-2 alpha m_0 there."""
    rotation = signed_reversal(signs)
    ham = np.random.default_rng(seed).normal(size=(len(signs), len(signs)))
    ham = ham + ham.T
    ham = (ham + rotation @ ham @ rotation) / 2.0
    if pair_phase is None:
        return unitary_from_hermitian(as_banded(ham), -1.0)
    gauge = np.zeros(ham.shape, dtype=complex)
    gauge[1:-1, 1:-1] = unitary_from_hermitian(as_banded(ham[1:-1, 1:-1]), -1.0)
    gauge[0, 0] = gauge[-1, -1] = np.exp(1j * pair_phase)
    return gauge


@pytest.mark.parametrize("signs, pair_phase, kick, crowded", [
    ([1.0, -1.0, 1.0, 1.0, -1.0, 1.0], None, 0.3, False),
    ([-1.0, 1.0, -1.0, 1.0, -1.0], None, 0.3, False),
    ([1.0, 1.0, 1.0, 1.0, 1.0], 0.7, np.pi - 1e-9, True),
    ([1.0, -1.0, -1.0, 1.0], 0.7, np.pi, True),
], ids=["even-dim", "odd-dim", "near-minus-one", "minus-one"])
def test_gauge_cut_of_a_rotation_symmetric_block(signs, pair_phase, kick, crowded, monkeypatch):
    # one singular value solve of the coupling block gives the sines of the
    # CS angles; an eigenvalue within 1e-9 of -1, or at -1, has an angle
    # near pi/2, whose sine passes SINE_FLOOR, and the rung takes G_aa's
    # singular values as the cosines from one more, quarter-size, solve.
    # kick = 2 alpha |m_0| is that eigenvalue's quasienergy when the block
    # has a pair phase
    dim = len(signs)
    spin = SpinLabel(dim - 1)  # m_values[0::2] = -(n-1), ..., n-1
    m_values = spin.m_values[0::2]
    alpha = kick / (2.0 * (dim - 1))
    block = rotation_symmetric_gauge(signs, seed=dim, pair_phase=pair_phase)
    sectors = dense.rotation_sectors(block, np.array(signs))
    calls = {"solve": [], "inv": [], "svd": []}
    for name in calls:
        def counted(mat, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name].append(np.shape(mat))
            return _original(mat, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    got = _ladder_quasienergies((sectors,), spin, alpha)
    quarter, outer = (dim // 2, dim // 2), (dim // 2, dim - dim // 2)
    assert calls == {"solve": [], "inv": [], "svd": [outer] + [quarter] * crowded}
    assert np.all(np.diff(got) >= 0) and np.all(got > -np.pi) and np.all(got <= np.pi)
    assert circular_distance(got, dense.quasienergies(dense_rung(block, m_values, alpha))) <= 1e-12
    if kick == np.pi:  # the pair's eigenvalue -1, twice, on no branch cut
        assert list(got[-2:]) == [np.pi, np.pi]


def test_crowded_benchmark_rungs_take_the_cosines(monkeypatch):
    # silver at j = 200 puts an eigenvalue of both blocks of the alpha = 0.02
    # rung close enough to -1 that its sine passes SINE_FLOOR: each block
    # makes the coupling block's singular value solve, then G_aa's
    spin, eta = SpinLabel(200), MODULATIONS["silver"] * 200
    gauge = dense_gauge(spin, eta)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda mat, **kwargs: shapes.append(mat.shape) or svd(mat, **kwargs))
    for parity, sectors in enumerate(_ladder_gauge(spin, eta)):
        shapes.clear()
        m_values = spin.m_values[parity::2]
        got = np.sort(_sector_quasienergies(sectors, m_values, 0.02))
        inner, outer = sectors
        assert shapes == [(len(inner), len(outer)), (len(inner), len(inner))]
        rung = dense_rung(gauge[parity::2, parity::2], m_values, 0.02)
        assert circular_distance(got, dense.quasienergies(rung)) <= 1e-13


def test_ladder_gauge_rejects_eigenvectors_the_pi_rotation_does_not_reverse(monkeypatch, tmp_path, capsys):
    # each sector vector is read off the rows of the Jx eigenvector of one
    # m < 0, so every column of eigh must hold B y_k = m_k y_k: mixing two
    # eigenvectors of one parity block (which keeps the blocks apart) and
    # swapping two (each still exact) both fail that residual check, at both
    # spins, and floquet-compare exits 3
    eigh = np.linalg.eigh

    def mixed(mat):
        values, vecs = eigh(mat)
        turn = np.array([[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]])
        vecs[:, :2] = vecs[:, :2] @ turn
        return values, vecs

    def swapped(mat):
        values, vecs = eigh(mat)
        return values, vecs[:, [1, 0, *range(2, len(vecs))]]

    for fault, residual in ((mixed, r"1\.1\d*e-07"), (swapped, r"0\.11\d*")):
        monkeypatch.setattr(np.linalg, "eigh", fault)
        line = f"Jx eigenvectors leave their m values by {residual} of j"
        for j in (10, 10.5):
            with pytest.raises(np.linalg.LinAlgError, match=f"^{line}$"):
                _ladder_gauge(SpinLabel(j), GOLDEN_RATIO * j)
            out_dir = tmp_path / f"{fault.__name__}-{j}"
            argv = ["floquet-compare", "--j", str(j), "--eta-over-j", "golden", "--alpha-ladder", "0.04,0.02,0.01"]
            assert main([*argv, "--out-dir", str(out_dir)]) == 3 and not out_dir.exists()
            assert re.fullmatch(f"numerical failure: {line}\n", capsys.readouterr().err)
