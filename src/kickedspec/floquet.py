"""Exact one-period evolution operators, quasienergies, and validation
against the effective-Hamiltonian pipeline.

This is the independent check route: the exact side uses numpy alone and
never the effective Hamiltonian, and `effective_vs_floquet_errors` compares
it with the H_eff spectrum that `operators.hermitian_eigh` solves on the
H_eff's spin-flip parity blocks, built from its stored bands: two
quarter-size singular value solves at integer spin, two half-size
Hermitian solves at half-integer spin.  Four facts make the exact side of
a ladder of kick strengths cost a half-size real eigendecomposition per
parity block it uses (two at integer spin, one at half-integer spin) and
a unitarity check per gauge sector (four quarter-size at integer spin,
one half-size at half-integer spin), then per kick strength one singular
value solve of a block formed elementwise: per parity block at quarter
size at integer spin, once at half size at half-integer spin.  A rung with
an angle near pi/2 takes one more singular value solve, of a block of the
same rows.  Nothing of full dimension is built.

- Twist gauge.  The double kicked top's static generator is a diagonal phase
  gauge of Jx: ``dkt_static_part(1, eta, j) = P Jx P^dag`` with
  P = diag(p), p_0 = 1 and p_{k+1} = p_k exp(i X_k), where X is the phase
  diagonal (P is the Jz^2 twist).  p is built as a running product of unit
  phases; exp(i cumsum X) would drift by about 1e-8 relative at j = 1000.
- Jx eigenbasis.  Jx = Vx diag(m) Vx^T with Vx real and the eigenvalues
  exactly the magnetic numbers m, so the kick factor is
  K = exp(-i alpha Jx) = Vx D Vx^T with D = diag(exp(-i alpha m)), and the
  one-period operator is U = exp(-i alpha P Jx P^dag) K = P K P^dag K.  With
  the complex symmetric unitary A = Vx^T P^dag Vx,
  M = conj(A) D A D = Vx^T U Vx has the spectrum of U.
- Spin-flip parity.  P = exp(i eta Jz^2/2j) up to a phase, and P and Jx
  both commute with the flip m -> -m, the index reversal R.  So Jx splits
  into the two parity blocks of `operators._parity_blocks`, in the basis
  (e_i +- e_{n-1-i})/sqrt(2), of sizes n - n//2 and n//2; each block B
  the ladder uses is diagonalized at that size, with eigenvectors Y_b
  checked once per ladder to hold B y_k = m_k y_k to PARITY_ATOL times j.
  In that basis P^dag is diag(q) on each block, those of its symmetric
  part conj(P + RPR)/2: q_i = conj(p_i + p_{n-1-i})/2 on the pairs,
  conj(p_mid) last in the even block when n is odd.  Pair i of the two
  blocks is coupled by conj(p_i - p_{n-1-i})/2, which vanishes with P's
  symmetry, so A couples Jx eigenvectors of equal R-parity only: the
  dropped coupling, that diagonal between orthonormal Jx eigenvectors,
  has no entry above max|p_i - p_{n-1-i}|/2 (1e-15 at j = 1000).  U has
  the union of the spectra of conj(A_b) D_b A_b D_b, unitary with its
  block A_b = Y_b^T diag(q) Y_b, over the two blocks b; the sectors the
  ladder needs (Chirality) are built and checked unitary once per ladder.
  The k-th Jx eigenvector has R-parity (-1)^(2j-k): R-even is index-even
  at integer spin and index-odd at half-integer spin.
- Chirality.  The pi rotation S = diag((-1)^(j+m)) about z anticommutes
  with Jx and commutes with P (Haake, Kus & Scharf, Z. Phys. B 65, 381
  (1987)).  At integer spin it commutes with R too and keeps each parity
  block B, where it is S_b = diag((-1)^i), and B, tridiagonal with a zero
  diagonal, couples even rows to odd ones only.  So S_b y_k is the Jx
  eigenvector of -m_k, and y_k of m_k < 0 is (w_k^+ + w_k^-)/sqrt(2) for
  S_b's unit eigenvectors w_k^+- = sqrt(2) y_k on the rows of sign +-;
  that of m = 0 lies on the even rows.  S_b A_b S_b = A_b, so A_b is the
  direct sum of its sectors A_a and A_b' on those vectors, a without
  m = 0, each a quarter-size congruence on the rows of its sign.  With
  E = diag(exp(i phi)), phi = -alpha m_b/2, the rung
  U' = E conj(A_b) D_b A_b E, similar to conj(A_b) D_b A_b D_b, is
  S_b G^dag S_b G for the complex symmetric unitary G = E A_b E, since
  S_b E S_b = conj(E).  In S_b's eigenbasis E = [[C, iS], [iS, C]]
  (C = cos(phi), S = sin(phi) on the pairs, 1 and 0 at m = 0), so
  G_aa = C A_a C - S A_b' S and G_ab = i(C A_a S + S A_b' C).  The CS
  decomposition of G (Golub & Van Loan, Matrix Computations, 2.5.4) is
  G = diag(U_a, U_b) R diag(V_a, V_b)^dag, where R rotates by each angle
  theta in [0, pi/2], [[cos, -sin], [sin, cos]], and is 1 on the indices
  the outer sector has beyond the inner one; cos theta and sin theta are
  the singular values of G_aa and G_ab.  S_b R^dag S_b = R, so
  U' = V R^2 V^dag: the rung's quasienergies are +-2 theta, and 0 on the
  unpaired indices, with no branch cut.  theta = arcsin of G_ab's singular
  values, one quarter-size solve, has an error growing as 1/cos theta, so
  a rung whose largest sine exceeds SINE_FLOOR takes G_aa's singular
  values as the cosines too, theta = arctan2(sin theta, cos theta) with
  the two paired in opposite orders; a rung fails only when a singular
  value solve does not converge.  At half-integer spin S maps each parity
  block onto the other, the k-th R-odd Jx eigenvector y_k onto +-the
  (n_b-1-k)-th R-even one, so A's R-even block is a signed reversal of the
  R-odd A_o, and only the R-odd block is solved.  The two blocks then make
  one chiral block, with the R-odd m values, on whose S eigenvectors
  (y_k +- S y_k)/sqrt(2) both sectors are A_o: the same angles at half size.
"""

import numpy as np

from .effective import TWO_PI, KickedSystem, check_coupling, heff_delta_kicked
from .operators import (UNITARITY_ATOL, Banded, _first_row, _parity_blocks, hermitian_eigh, max_abs,
                        require_hermitian, require_unitary, unitarity_defect)
from .su2 import SpinLabel, _as_spin, dkt_static_part, phase_diagonal, spin_operators

# Largest sine of a rung's CS angles taken by arcsin alone: arcsin's error
# grows as 1/cos theta, so above it (cos theta < 0.1) the rung also takes
# the cosines, and theta = arctan2(sin, cos) keeps its accuracy up to pi/2.
SINE_FLOOR = 0.995
# Largest entry coupling the two parity blocks of a ladder that may be dropped
PARITY_ATOL = 1e-10


def unitary_from_hermitian(ham: Banded, scale: float) -> np.ndarray:
    """exp(-i*scale*H), dense, through the eigendecomposition of a Hermitian
    `Banded` H."""
    evals, vecs = np.linalg.eigh(require_hermitian(ham, name="generator").to_dense())
    return (vecs * np.exp(-1j * scale * evals)) @ vecs.conj().T


def fold_phases(values) -> np.ndarray:
    """Map reals into (-pi, pi] by shifting multiples of 2*pi."""
    folded = np.mod(np.asarray(values, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(folded <= -np.pi, folded + TWO_PI, folded)


def dkt_kicked_system(alpha: float, eta: float, j) -> KickedSystem:
    """Single-kicked system equivalent to the double kicked top: kick alpha*Jx
    once per unit period on top of the phase-modulated static part.  Its
    H_eff has no period to depend on (`su2.dkt_static_part`)."""
    check_coupling(alpha)
    spin = _as_spin(j)
    h0 = dkt_static_part(alpha, eta, spin)
    kick = alpha * spin_operators(spin).jx
    return KickedSystem(h0=h0, kick=kick, period=1.0)


def dkt_effective_hamiltonian(alpha: float, eta: float, j) -> Banded:
    """Closed-form effective Hamiltonian of the double kicked top (bandwidth 3)."""
    return heff_delta_kicked(dkt_kicked_system(alpha, eta, j))


def _twist_gauge(spin: SpinLabel, eta: float) -> np.ndarray:
    """Diagonal p of the gauge P with dkt_static_part(1, eta, j) = P Jx P^dag."""
    steps = np.exp(1j * phase_diagonal(spin, eta)[:-1])
    return np.concatenate(([1.0 + 0.0j], np.cumprod(steps)))


def dkt_floquet(alpha: float, eta: float, j) -> np.ndarray:
    """One-period evolution operator of the double kicked top.

    Product of the free-evolution factor exp(-i*alpha*G), whose generator
    G = dkt_static_part(1, eta, j) = P Jx P^dag is the twisted Jx, and the kick
    factor K = exp(-i*alpha*Jx): U = P K P^dag K.
    """
    if not np.isfinite(alpha):  # a non-finite eta fails `phase_diagonal`
        raise ValueError(f"alpha must be finite, got alpha={alpha}")
    spin = _as_spin(j)
    twist = _twist_gauge(spin, eta)
    vecs = hermitian_eigh(spin_operators(spin).jx, vectors=True)[1]
    kick = (vecs * np.exp(-1j * alpha * spin.m_values)) @ vecs.T
    return (twist[:, None] * kick * twist.conj()) @ kick


def quasienergy_spectrum(unitary) -> np.ndarray:
    """Sorted quasienergies of a unitary, each in (-pi, pi], from one
    nonsymmetric eigensolve.

    A quasienergy E labels the eigenvalue exp(-iE), matching the sign of
    exp(-i*H_eff*T), so folded effective energies compare directly.  Raises
    ValueError when the matrix is not unitary.
    """
    return np.sort(fold_phases(-np.angle(np.linalg.eigvals(require_unitary(unitary, name="Floquet operator")))))


def _gauge_sector(vecs: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """vecs^T diag(diagonal) vecs for real vecs, by two real products; LinAlgError,
    a numerical failure, when its unitarity defect exceeds UNITARITY_ATOL."""
    sector = vecs.T @ (diagonal.imag[:, None] * vecs) * 1j
    sector += vecs.T @ (diagonal.real[:, None] * vecs)
    defect = unitarity_defect(sector)
    if not defect <= UNITARITY_ATOL:
        raise np.linalg.LinAlgError(f"Floquet operator is not unitary (defect {defect:.3e} of a gauge block)")
    return sector


def _ladder_gauge(spin: SpinLabel, eta: float) -> tuple:
    """Sectors of A = Vx^T P^dag Vx per chiral block, from one `eigh` per
    half-size parity block of Jx it solves: at integer spin each block's
    two, on the odd and the even rows of the block's Jx eigenvectors, and
    at half-integer spin (A_o, A_o) of the R-odd block, the one solved.
    Only Jx is split: the gauge P is diagonal, so on a parity block of size
    n_b the part conj(P + RPR)/2 that A keeps is its first n_b entries.
    Its checks hold for every rung built from the sectors: LinAlgError, a
    numerical failure, when A couples the blocks by more than PARITY_ATOL,
    a Jx eigenvector y_k leaves B y_k = m_k y_k by more than PARITY_ATOL
    times j, or a sector's unitarity defect exceeds UNITARITY_ATOL."""
    adjoint = _twist_gauge(spin, eta).conj()
    # bounds the entries of A's dropped R-even x R-odd block, even[:half]^T diag(adjoint - R adjoint)[:half] odd / 2
    mixing = max_abs(adjoint - adjoint[::-1]) / 2.0
    if not mixing <= PARITY_ATOL:
        raise np.linalg.LinAlgError(f"twist gauge mixes the spin-flip parity blocks by {mixing:.3g}")
    symmetric = (adjoint + adjoint[::-1]) / 2.0
    # the ladder pairs the k-th chiral block with spin.m_values[k::2]: R-even then R-odd at
    # integer spin (odd dimension), the R-odd block alone at half-integer spin
    blocks = _parity_blocks(spin_operators(spin).jx)[1 - spin.dim % 2:]
    # every block is solved before any sector is built, so that no solve's workspace lands among their temporaries
    solved = [np.linalg.eigh(jx_block.to_dense())[1] for jx_block in blocks]
    sectors = []
    for parity, (jx_block, vecs) in enumerate(zip(blocks, solved)):
        residual = vecs * -spin.m_values[parity::2]
        for offset, band in jx_block.bands.items():
            row = _first_row(offset)
            residual[row:row + band.size] += band[:, None] * vecs[row + offset:row + offset + band.size]
        defect = max_abs(residual) / spin.j
        if not defect <= PARITY_ATOL:
            raise np.linalg.LinAlgError(f"Jx eigenvectors leave their m values by {defect:.3g} of j")
        diagonal, pairs = symmetric[:jx_block.dim], jx_block.dim // 2
        if spin.dim % 2:
            # S_b's eigenvectors sqrt(2) y_k, m_k < 0, on the rows of each sign, then the m = 0 one on the even rows
            vecs[:, :pairs] *= 2 ** 0.5
            sectors.append((_gauge_sector(vecs[1::2, :pairs], diagonal[1::2]),
                            _gauge_sector(vecs[0::2, :jx_block.dim - pairs], diagonal[0::2])))
        else:
            sectors.append((_gauge_sector(vecs, diagonal),) * 2)
    return tuple(sectors)


def _sector_quasienergies(sectors: tuple, m_values: np.ndarray, alpha: float) -> np.ndarray:
    """Quasienergies +-2 theta of a rung from the sectors of its chiral block,
    with the m values of the block's Jx eigenvectors y_k, k < the outer
    sector's size, theta the CS angles of G: arcsin of the coupling block's
    singular values, or, when the largest exceeds SINE_FLOOR, arctan2 of
    those and G_aa's.  G_ab drops its factor i."""
    inner, outer = sectors
    half = inner.shape[0]
    if not half:  # one index, where m = 0 and the rung is 1
        return np.zeros(1)
    angles = -0.5 * alpha * m_values[:outer.shape[0]]
    cos, sin = np.cos(angles), np.sin(angles)
    coupling = sin[:half, None] * outer[:half] * cos
    coupling[:, :half] += cos[:half, None] * inner * sin[:half]
    sines = np.linalg.svd(coupling, compute_uv=False)
    if sines[0] <= SINE_FLOOR:
        theta = np.arcsin(sines)
    else:  # G_aa's and G_ab's singular values pair in opposite orders
        gauge = cos[:half, None] * inner * cos[:half]
        gauge -= sin[:half, None] * outer[:half, :half] * sin[:half]
        theta = np.arctan2(sines[::-1], np.linalg.svd(gauge, compute_uv=False))
    # theta = pi/2 gives E = pi twice: -pi is pi in (-pi, pi]
    return 2.0 * np.concatenate((theta, np.zeros(outer.shape[0] - half), np.where(theta < np.pi / 2, -theta, theta)))


def _ladder_quasienergies(gauge: tuple, spin: SpinLabel, alpha: float) -> np.ndarray:
    """Sorted quasienergies of the one-period operator at alpha from the
    `_ladder_gauge` sectors, whose contracts it checked."""
    return np.sort(np.concatenate([_sector_quasienergies(sectors, spin.m_values[parity::2], alpha)
                                   for parity, sectors in enumerate(gauge)]))


def effective_vs_floquet_errors(alphas, eta: float, j) -> list:
    """Largest gap between folded effective energies and exact quasienergies,
    one per kick strength.

    Both spectra of a kick strength are sorted after folding E into
    (-pi, pi] and compared pairwise.  Neither depends on a kick period: the
    one-period operator is exp(-i alpha G) exp(-i alpha Jx) with
    G = dkt_static_part(1, eta, j), and T*H_eff has no T in it.
    """
    alphas = list(alphas)
    spin = _as_spin(j)
    # every H_eff is solved before the Floquet blocks exist, so that its
    # temporaries never add to theirs
    heffs = (dkt_effective_hamiltonian(alpha, eta, spin) for alpha in alphas)
    folded = [np.sort(fold_phases(hermitian_eigh(heff))) for heff in heffs]
    gauge = _ladder_gauge(spin, eta)
    return [float(np.max(np.abs(effective - _ladder_quasienergies(gauge, spin, alpha))))
            for alpha, effective in zip(alphas, folded)]


def effective_vs_floquet_error(alpha: float, eta: float, j) -> float:
    """`effective_vs_floquet_errors` at one kick strength."""
    return effective_vs_floquet_errors([alpha], eta, j)[0]
