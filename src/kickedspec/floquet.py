"""Exact one-period evolution operators, quasienergies, and validation
against the effective-Hamiltonian pipeline.

This is the independent check route: the exact side uses numpy alone and
never the effective Hamiltonian, and `effective_vs_floquet_errors` compares
it with the H_eff spectrum that `operators.hermitian_eigh` solves on the
H_eff's spin-flip parity blocks, built from its stored bands: two
quarter-size singular value solves at integer spin, two half-size
Hermitian solves at half-integer spin.  Four
facts make the exact side of a ladder of kick strengths cost one real
eigendecomposition, plus per kick strength two half-size rounds of complex
matrix product, inverse and Hermitian eigenvalue solve.

- Twist gauge.  The double kicked top's static generator is a diagonal phase
  gauge of Jx: ``dkt_static_part(1, eta, j) = P Jx P^dag`` with
  P = diag(p), p_0 = 1 and p_{k+1} = p_k exp(i X_k), where X is the phase
  diagonal (P is the Jz^2 twist).  p is built as a running product of unit
  phases; exp(i cumsum X) would drift by about 1e-8 relative at j = 1000.
- One Jx eigendecomposition.  Jx = Vx diag(m) Vx^T with Vx real and the
  eigenvalues exactly the magnetic numbers m, so the kick factor is
  K = exp(-i alpha Jx) = Vx D Vx^T with D = diag(exp(-i alpha m)), and the
  one-period operator is U = exp(-i alpha P Jx P^dag) K = P K P^dag K.  With
  the complex symmetric unitary A = Vx^T P^dag Vx, built once per ladder,
  M = conj(A) D A D = Vx^T U Vx has the spectrum of U.
- Spin-flip parity.  P = exp(i eta Jz^2/2j) up to a phase, and P and Jx
  both commute with the flip m -> -m, whose parity in the Jx eigenbasis is
  that of the eigenvector index.  So A couples even indices to even and odd
  to odd only (to 1e-15 at j = 10, 1e-13 at j = 1000), and U has the union
  of the spectra of conj(A_b) D_b A_b D_b over the two blocks b.
- Cayley quasienergies.  For W = exp(i theta) U, the Hermitian part of
  H_c = i(1 - W)(1 + W)^-1 has eigenvalues lambda = -tan((E - theta)/2), so
  E = theta - 2 arctan(lambda) comes from a Hermitian solve instead of a
  nonsymmetric one.  The branch cut sits at E = theta + pi.  The first cut
  is theta = 0.  When 1 + W is singular or max|lambda| exceeds CAYLEY_MAX,
  an eigenvalue crowds the cut, and the cut moves once into the middle of
  the widest gap of the spectrum's estimate from the Hermitian part of U,
  whose eigenvalues cos(E) need no cut.  No eigenvalue lies closer to that
  cut than half the gap g, so max|lambda| is about 4/g or less there; that
  cut is accepted up to max(CAYLEY_MAX, 8/g).  The gap shrinks like 2 pi/dim
  on an evenly spread spectrum, so a fixed limit would refuse it at large
  dimension.  numpy.linalg.LinAlgError is raised only when 1 + W is
  singular on the moved cut too, or the estimate misses the gap.
"""

import numpy as np

from .effective import KickedSystem, heff_delta_kicked
from .operators import Banded, hermitian_eigh, max_abs, require_hermitian, require_unitary
from .su2 import SpinLabel, _as_spin, dkt_static_part, phase_diagonal, spin_operators

TWO_PI = 2.0 * np.pi
# Largest Cayley eigenvalue kept on the first cut: the solve's absolute error
# grows with max|lambda|, and a quasienergy's error is about
# 2 * eps * max|lambda|.
CAYLEY_MAX = 1e3
# Largest entry coupling the two parity blocks of a ladder that may be dropped
PARITY_ATOL = 1e-10


def unitary_from_hermitian(ham, scale: float) -> np.ndarray:
    """exp(-i*scale*H) through the eigendecomposition of Hermitian H."""
    ham = np.asarray(require_hermitian(ham, name="generator"))
    evals, vecs = np.linalg.eigh(ham)
    return (vecs * np.exp(-1j * scale * evals)) @ vecs.conj().T


def fold_phases(values) -> np.ndarray:
    """Map reals into (-pi, pi] by shifting multiples of 2*pi."""
    folded = np.mod(np.asarray(values, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(folded <= -np.pi, folded + TWO_PI, folded)


def dkt_kicked_system(alpha: float, eta: float, j, period: float = 1.0) -> KickedSystem:
    """Single-kicked system equivalent to the double kicked top: kick alpha*Jx
    once per period on top of the phase-modulated static part."""
    if not np.isfinite(alpha) or alpha == 0.0:
        raise ValueError("alpha must be finite and nonzero")
    spin = _as_spin(j)
    h0 = dkt_static_part(alpha, eta, spin, period)
    kick = alpha * spin_operators(spin).jx
    return KickedSystem(h0=h0, kick=kick, period=period)


def dkt_effective_hamiltonian(alpha: float, eta: float, j, period: float = 1.0) -> Banded:
    """Closed-form effective Hamiltonian of the double kicked top (bandwidth 3)."""
    return heff_delta_kicked(dkt_kicked_system(alpha, eta, j, period))


def _twist_gauge(spin: SpinLabel, eta: float) -> np.ndarray:
    """Diagonal p of the gauge P with dkt_static_part(1, eta, j) = P Jx P^dag."""
    steps = np.exp(1j * phase_diagonal(spin, eta)[:-1])
    return np.concatenate(([1.0 + 0.0j], np.cumprod(steps)))


def _jx_eigenvectors(spin: SpinLabel) -> np.ndarray:
    """Real orthogonal Vx with Jx = Vx diag(m) Vx^T, m ascending."""
    return np.linalg.eigh(spin_operators(spin).jx.to_dense())[1]


def dkt_floquet(alpha: float, eta: float, j) -> np.ndarray:
    """One-period evolution operator of the double kicked top.

    Product of the free-evolution factor exp(-i*alpha*G), whose generator
    G = dkt_static_part(1, eta, j) = P Jx P^dag is the twisted Jx, and the kick
    factor K = exp(-i*alpha*Jx): U = P K P^dag K.
    """
    if not (np.isfinite(alpha) and np.isfinite(eta)):
        raise ValueError(f"alpha and eta must be finite, got alpha={alpha}, eta={eta}")
    spin = _as_spin(j)
    twist = _twist_gauge(spin, eta)
    vecs = _jx_eigenvectors(spin)
    kick = (vecs * np.exp(-1j * alpha * spin.m_values)) @ vecs.T
    return (twist[:, None] * kick * twist.conj()) @ kick


def _cayley_phases(unitary: np.ndarray, theta: float, limit: float):
    """Quasienergies from the Cayley transform of W = exp(i*theta)*U, or None
    when an eigenvalue sits too close to the branch cut at E = theta + pi:
    1 + W is singular or a Cayley eigenvalue exceeds `limit` in magnitude."""
    dim = unitary.shape[0]
    shifted = unitary * np.exp(1j * theta)
    shifted.flat[::dim + 1] += 1.0
    try:
        inverse = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:  # an eigenvalue exactly on the cut
        return None
    del shifted
    # H_c = 2i(1 + W)^-1 - i, whose Hermitian part is i(X - X^dag) for
    # X = (1 + W)^-1.  That part is taken explicitly: the inverse's rounding
    # grows with max|lambda| mostly in the anti-Hermitian part, which a
    # Hermitian solver reading one triangle would let through (quasienergy
    # errors of 3e-11 instead of 1e-13 at j = 500).
    inverse -= inverse.conj().T
    inverse *= 1j
    lam = np.linalg.eigvalsh(inverse)
    if not np.max(np.abs(lam)) <= limit:
        return None
    return fold_phases(theta - 2.0 * np.arctan(lam))


def _cut_in_widest_gap(unitary: np.ndarray):
    """Quasienergy in [0, pi] midway across the widest gap of the spectrum's
    estimate, and the width of that gap.

    U + U^dag has eigenvalues 2 cos(E), which give |E| without a branch cut;
    the spectrum is estimated as the mirrored set of +-|E|.
    """
    cosines = np.linalg.eigvalsh(unitary + unitary.conj().T) / 2.0
    angles = np.sort(np.arccos(np.clip(cosines, -1.0, 1.0)))
    # gaps between neighbouring angles, across E = 0 and across E = pi
    edges = np.concatenate(([-angles[0]], angles, [TWO_PI - angles[-1]]))
    gaps = np.diff(edges)
    widest = int(np.argmax(gaps))
    return 0.5 * (edges[widest] + edges[widest + 1]), float(gaps[widest])


def quasienergy_spectrum(unitary) -> np.ndarray:
    """Sorted quasienergies of a unitary, each in (-pi, pi].

    A quasienergy E labels the eigenvalue exp(-iE), matching the sign of
    exp(-i*H_eff*T), so folded effective energies compare directly.  Raises
    numpy.linalg.LinAlgError when eigenvalues crowd both branch cuts tried.
    """
    unitary = require_unitary(unitary, name="Floquet operator")
    phases = _cayley_phases(unitary, 0.0, CAYLEY_MAX)
    if phases is None:
        cut, gap = _cut_in_widest_gap(unitary)
        phases = _cayley_phases(unitary, cut - np.pi, max(CAYLEY_MAX, 8.0 / gap))
        if phases is None:
            raise np.linalg.LinAlgError(
                f"quasienergies: eigenvalues crowd the Cayley branch cuts at E = pi and E = {cut:.6g}")
    return np.sort(phases)


def _ladder_gauge(spin: SpinLabel, eta: float) -> tuple:
    """Even and odd parity blocks of A = Vx^T P^dag Vx, complex symmetric and
    unitary; LinAlgError, a numerical failure, when A couples them by more
    than PARITY_ATOL."""
    vecs = _jx_eigenvectors(spin)
    gauge = vecs.T @ (_twist_gauge(spin, eta).conj()[:, None] * vecs)
    mixing = max_abs(gauge[0::2, 1::2])  # A is symmetric: one off-block suffices
    if not mixing <= PARITY_ATOL:
        raise np.linalg.LinAlgError(f"twist gauge mixes the spin-flip parity blocks by {mixing:.3g}")
    return gauge[0::2, 0::2].copy(), gauge[1::2, 1::2].copy()


def _ladder_rung(block: np.ndarray, m_values: np.ndarray, alpha: float) -> np.ndarray:
    """conj(A_b) D_b A_b D_b of one parity block, with that block's m values."""
    phases = np.exp(-1j * alpha * m_values)
    right = block * phases
    right *= phases[:, None]
    return block.conj() @ right


def _ladder_quasienergies(blocks: tuple, spin: SpinLabel, alpha: float) -> np.ndarray:
    """Sorted quasienergies of the one-period operator at alpha, block by block."""
    return np.sort(np.concatenate([quasienergy_spectrum(_ladder_rung(block, spin.m_values[parity::2], alpha))
                                   for parity, block in enumerate(blocks)]))


def effective_vs_floquet_errors(alphas, eta: float, j, period: float = 1.0) -> list:
    """Largest gap between folded effective energies and exact quasienergies,
    one per kick strength.

    Both spectra of a kick strength are sorted after folding E*T into
    (-pi, pi] and compared pairwise.  The exact operator does not depend on
    the period, since T*h0 = alpha * dkt_static_part(1, eta, j).
    """
    alphas = list(alphas)
    spin = _as_spin(j)
    # every H_eff is solved before the Floquet blocks exist, so that its
    # temporaries never add to theirs
    heffs = (heff_delta_kicked(dkt_kicked_system(alpha, eta, spin, period)) for alpha in alphas)
    folded = [np.sort(fold_phases(hermitian_eigh(heff) * period)) for heff in heffs]
    blocks = _ladder_gauge(spin, eta)
    return [float(np.max(np.abs(effective - _ladder_quasienergies(blocks, spin, alpha))))
            for alpha, effective in zip(alphas, folded)]


def effective_vs_floquet_error(alpha: float, eta: float, j, period: float = 1.0) -> float:
    """`effective_vs_floquet_errors` at one kick strength."""
    return effective_vs_floquet_errors([alpha], eta, j, period)[0]
