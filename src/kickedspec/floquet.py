"""Exact one-period evolution operators, quasienergies, and validation
against the effective-Hamiltonian pipeline.

This is the independent check route: it works on dense matrices with numpy
alone, taking `Banded` operators through their dense form.
"""

import numpy as np

from .effective import KickedSystem, heff_delta_kicked
from .operators import Banded, require_hermitian, require_unitary
from .su2 import _as_spin, dkt_static_part, spin_operators

TWO_PI = 2.0 * np.pi


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
    spin = _as_spin(j)
    h0 = dkt_static_part(alpha, eta, spin, period)
    kick = alpha * spin_operators(spin).jx
    return KickedSystem(h0=h0, kick=kick, period=period)


def dkt_effective_hamiltonian(alpha: float, eta: float, j, period: float = 1.0) -> Banded:
    """Closed-form effective Hamiltonian of the double kicked top (bandwidth 3)."""
    return heff_delta_kicked(dkt_kicked_system(alpha, eta, j, period))


def _floquet_operator(system: KickedSystem) -> np.ndarray:
    """One-period evolution operator exp(-i*T*h0) exp(-i*kick) of a kicked system."""
    return unitary_from_hermitian(system.h0, system.period) @ unitary_from_hermitian(system.kick, 1.0)


def dkt_floquet(alpha: float, eta: float, j) -> np.ndarray:
    """One-period evolution operator of the double kicked top.

    Product of the free-evolution factor exp(-i*T*H0), whose generator is the
    static part with the period absorbed, and the kick factor exp(-i*alpha*Jx).
    """
    return _floquet_operator(dkt_kicked_system(alpha, eta, j))


def quasienergy_spectrum(unitary) -> np.ndarray:
    """Sorted quasienergies of a unitary, each in (-pi, pi].

    A quasienergy E labels the eigenvalue exp(-iE), matching the sign of
    exp(-i*H_eff*T), so folded effective energies compare directly.
    """
    unitary = require_unitary(unitary, name="Floquet operator")
    evals = np.linalg.eigvals(unitary)
    moduli = np.abs(evals)
    if np.max(np.abs(moduli - 1.0)) > 1e-8:
        raise ValueError("eigenvalues stray from the unit circle; input is not unitary enough")
    phases = -np.angle(evals)
    phases = np.where(phases <= -np.pi, phases + TWO_PI, phases)
    return np.sort(phases)


def effective_vs_floquet_error(alpha: float, eta: float, j, period: float = 1.0) -> float:
    """Largest gap between folded effective energies and exact quasienergies.

    Both spectra are sorted after folding E*T into (-pi, pi] and compared
    pairwise; the maximum absolute difference is returned.
    """
    system = dkt_kicked_system(alpha, eta, j, period)
    heff = heff_delta_kicked(system)
    folded = np.sort(fold_phases(np.linalg.eigvalsh(heff.to_dense()) * period))
    exact = quasienergy_spectrum(_floquet_operator(system))
    return float(np.max(np.abs(folded - exact)))
