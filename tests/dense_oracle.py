"""Dense reference builders for the banded operators.

Each Hamiltonian is assembled here as a dense complex matrix with ordinary
matrix products, straight from its defining formula, so the banded builders
in kickedspec can be checked against an independent route at small sizes.
The Floquet operator of the double kicked top is the product of two dense
exponentials, each from numpy's `eigh`, and its quasienergies come from the
nonsymmetric eigensolver.  The pi-rotation sectors of a whole gauge block
are averaged from its four quadrants.  Nothing here calls kickedspec's
Floquet code.
"""

import numpy as np

from kickedspec.su2 import SpinLabel


def spin_matrices(j):
    """Dense Jx, Jy, Jz and the raising operator Jx + iJy, ascending m."""
    spin = SpinLabel(j)
    m = spin.m_values
    ladder = np.sqrt(spin.j * (spin.j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    raising = np.diag(ladder.astype(complex), k=-1)
    lowering = raising.conj().T
    return (raising + lowering) / 2.0, (raising - lowering) / 2.0j, np.diag(m.astype(complex)), raising


def _phase(j, eta):
    spin = SpinLabel(j)
    return eta * (2.0 * spin.m_values + 1.0) / (2.0 * spin.j)


def commutator(a, b):
    return a @ b - b @ a


def su2_family(case, alpha, eta, j, epsilon=None):
    """a Jx + b A + C cos(X) + h.c. for family case 'a'..'f', each row written out."""
    jx, jy, _, _ = spin_matrices(j)
    dim = SpinLabel(j).dim
    hop = np.diag(np.ones(dim - 1), 1) + np.diag(np.ones(dim - 1), -1)
    if case == "a":
        a, b, coupling = alpha, 0.0, (alpha / 2.0) * (jx + 1j * jy)
    elif case == "b":
        a, b, coupling = alpha, 0.0, alpha * jx
    elif case == "c":
        a, b, coupling = alpha, 0.0, 0.5 * np.eye(dim)
    elif case == "d":
        a, b, coupling = 0.0, alpha, alpha * jx
    elif case == "e":
        a, b, coupling = alpha, epsilon * alpha, alpha * np.eye(dim)
    elif case == "f":
        a, b, coupling = 0.0, alpha, alpha * np.eye(dim)
    else:
        raise ValueError(f"unknown family case {case!r}")
    modulated = coupling @ np.diag(np.cos(_phase(j, eta)))
    return a * jx + b * hop + modulated + modulated.conj().T


def dkt_parts(alpha, eta, j):
    """Static part alpha(Jplus e^{iX} + h.c.) and kick alpha*Jx of the double kicked top, period 1."""
    jx, _, _, raising = spin_matrices(j)
    upper = (raising / 2.0) @ np.diag(np.exp(1j * _phase(j, eta)))
    return alpha * (upper + upper.conj().T), alpha * jx


def dkt_heff(alpha, eta, j):
    """h0 + kick + [[kick, h0], kick]/24 of the double kicked top."""
    h0, kick = dkt_parts(alpha, eta, j)
    return h0 + kick + commutator(commutator(kick, h0), kick) / 24.0


def exponential(ham):
    """exp(-i H) of a dense Hermitian H from its eigendecomposition."""
    values, vectors = np.linalg.eigh(ham)
    return (vectors * np.exp(-1j * values)) @ vectors.conj().T


def dkt_floquet(alpha, eta, j):
    """exp(-i h0) exp(-i kick), each factor from its own dense eigendecomposition."""
    h0, kick = dkt_parts(alpha, eta, j)
    return exponential(h0) @ exponential(kick)


def _phases(eigenvalues):
    """E in (-pi, pi] of unit eigenvalues exp(-iE)."""
    phases = -np.angle(eigenvalues)
    return np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)


def quasienergies(unitary):
    """Sorted -angle of the eigenvalues from the nonsymmetric solver, in (-pi, pi]."""
    return np.sort(_phases(np.linalg.eigvals(unitary)))


def dkt_floquet_errors(alphas, eta, j):
    """Largest gap between the folded dense H_eff spectrum and the quasienergies, per alpha;
    an energy E folds as the phase of exp(-iE)."""
    errors = []
    for alpha in alphas:
        folded = np.sort(_phases(np.exp(-1j * np.linalg.eigvalsh(dkt_heff(alpha, eta, j)))))
        errors.append(float(np.max(np.abs(folded - quasienergies(dkt_floquet(alpha, eta, j))))))
    return errors


def rotation_sectors(block, signs):
    """Sectors of a gauge block A_b on S_b's eigenvectors
    (e_k + t s_k e_{n-1-k})/sqrt(2), k < n // 2, of sign t, for the signed
    reversal S_b: e_k -> s_k e_{n-1-k}: first the sign without e_{n//2},
    then the other, with e_{n//2} last at odd n; each entry averages the two
    of A_b's four quadrants that S_b maps onto each other."""
    dim, half = block.shape[0], block.shape[0] // 2
    side = signs[half] if dim % 2 else -1.0
    pair = signs[:half]
    base = (block[:half, :half] + np.outer(pair, pair) * block[::-1, ::-1][:half, :half]) / 2.0
    cross = block[:half, ::-1][:, :half] * pair
    mix = (cross + cross.T) / 2.0
    outer = np.empty((dim - half, dim - half), dtype=complex)
    outer[:half, :half] = base + side * mix
    if dim % 2:
        outer[:half, half] = outer[half, :half] = (block[:half, half] + side * pair * block[:half:-1, half]) / 2 ** 0.5
        outer[half, half] = block[half, half]
    return base - side * mix, outer


def harper(length, sigma, alpha=1.0, period=1.0, kind="static"):
    """Static chain, or the kicked chain's H_eff by 'closed-form' or 'general'."""
    sites = np.arange(1, length + 1)
    onsite = np.diag(2.0 * np.cos(2.0 * np.pi * sites * sigma)).astype(complex)
    hop = np.diag(np.ones(length - 1), 1) + np.diag(np.ones(length - 1), -1)
    if kind == "static":
        return onsite + hop
    if kind == "closed-form":
        bonds = -np.cos(2.0 * np.pi * sites[:-1] * sigma) ** 2 / 6.0
        return onsite + hop + np.diag(bonds, 1) + np.diag(bonds, -1)
    h0, kick = alpha * hop, alpha * onsite
    return (h0 + kick / period + commutator(commutator(kick, h0), kick) / 24.0) / alpha
