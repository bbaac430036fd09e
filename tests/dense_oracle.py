"""Dense reference builders for the banded operators.

Each Hamiltonian is assembled here as a dense complex matrix with ordinary
matrix products, straight from its defining formula, so the banded builders
in kickedspec can be checked against an independent route at small sizes.
The Floquet operator of the double kicked top is the product of two dense
exponentials, and its quasienergies come from the nonsymmetric eigensolver.
"""

import numpy as np

from kickedspec.floquet import fold_phases, unitary_from_hermitian
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


def dkt_parts(alpha, eta, j, period=1.0):
    """Static part (alpha/T)(Jplus e^{iX} + h.c.) and kick alpha*Jx of the double kicked top."""
    jx, _, _, raising = spin_matrices(j)
    upper = (raising / 2.0) @ np.diag(np.exp(1j * _phase(j, eta)))
    return (alpha / period) * (upper + upper.conj().T), alpha * jx


def dkt_heff(alpha, eta, j, period=1.0):
    """h0 + kick/T + [[kick, h0], kick]/24 of the double kicked top."""
    h0, kick = dkt_parts(alpha, eta, j, period)
    return h0 + kick / period + commutator(commutator(kick, h0), kick) / 24.0


def dkt_floquet(alpha, eta, j, period=1.0):
    """exp(-i T h0) exp(-i kick), each factor from its own dense eigendecomposition."""
    h0, kick = dkt_parts(alpha, eta, j, period)
    return unitary_from_hermitian(h0, period) @ unitary_from_hermitian(kick, 1.0)


def quasienergies(unitary):
    """Sorted -angle of the eigenvalues from the nonsymmetric solver, in (-pi, pi]."""
    phases = -np.angle(np.linalg.eigvals(unitary))
    return np.sort(np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases))


def dkt_floquet_errors(alphas, eta, j, period=1.0):
    """Largest gap between the folded dense H_eff spectrum and the quasienergies, per alpha."""
    errors = []
    for alpha in alphas:
        folded = np.sort(fold_phases(np.linalg.eigvalsh(dkt_heff(alpha, eta, j, period)) * period))
        errors.append(float(np.max(np.abs(folded - quasienergies(dkt_floquet(alpha, eta, j, period))))))
    return errors


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
