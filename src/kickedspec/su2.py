"""Angular-momentum operators and quasiperiodically modulated SU(2) Hamiltonians.

All operators are `Banded` matrices in the Jz eigenbasis, ordered by
ascending magnetic quantum number m = -j..+j: Jx, Jy and every Hamiltonian
here are tridiagonal, Jz and the phase operator diagonal.  Energies are
dimensionless (hbar = 1).
"""

from dataclasses import dataclass

import numpy as np

from .effective import check_period
from .operators import Banded


@dataclass(frozen=True)
class SpinLabel:
    """Spin quantum number j; 2j must be a non-negative integer."""

    j: float

    def __post_init__(self):
        two_j = 2.0 * float(self.j)
        if not np.isfinite(two_j) or two_j < 0 or abs(two_j - round(two_j)) > 1e-9:
            raise ValueError(f"spin must be a non-negative half-integer, got j={self.j}")
        object.__setattr__(self, "j", round(two_j) / 2.0)

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in ascending order."""
        return np.arange(self.dim) - self.j


def _as_spin(j) -> SpinLabel:
    return j if isinstance(j, SpinLabel) else SpinLabel(j)


@dataclass(frozen=True)
class SpinOperators:
    jx: Banded
    jy: Banded
    jz: Banded
    jplus: Banded  # (jx + i jy)/2, half the conventional raising operator


def spin_operators(j) -> SpinOperators:
    """Jx, Jy, Jz and the half-ladder operator (Jx + iJy)/2 for spin j."""
    spin = _as_spin(j)
    m = spin.m_values
    # <m+1| raising |m> = sqrt(j(j+1) - m(m+1)), placed on the subdiagonal
    # because rows are ordered by ascending m.
    ladder = np.sqrt(spin.j * (spin.j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    raising = Banded.diagonal(ladder, -1)
    lowering = raising.T
    jx = (raising + lowering) / 2.0
    jy = (raising - lowering) / 2.0j
    jz = Banded.diagonal(m)
    return SpinOperators(jx=jx, jy=jy, jz=jz, jplus=raising / 2.0)


def hopping_operator(j) -> Banded:
    """Tridiagonal matrix with zero diagonal and unit nearest-neighbor entries."""
    spin = _as_spin(j)
    ones = np.ones(spin.dim - 1)
    return Banded(spin.dim, {1: ones, -1: ones})


def phase_diagonal(j, eta: float) -> np.ndarray:
    """Diagonal entries eta*(2m+1)/(2j) of the phase operator, ascending in m."""
    spin = _as_spin(j)
    if spin.j == 0:
        raise ValueError("phase operator requires j > 0")
    return eta * (2.0 * spin.m_values + 1.0) / (2.0 * spin.j)


def phase_operator(j, eta: float) -> Banded:
    """Diagonal operator eta*(2 Jz + 1)/(2j)."""
    return Banded.diagonal(phase_diagonal(j, eta))


# Rows of the six-case family H = a Jx + b A + [C cos(X) + h.c.]: case ->
# (a/alpha, b/alpha, C from the spin operators and alpha).  Case "e" has
# b/alpha = epsilon, which has no default.
FAMILY_CASES = {
    "a": (1.0, 0.0, lambda ops, alpha: alpha * ops.jplus),  # (alpha/2)(Jx + iJy), real
    "b": (1.0, 0.0, lambda ops, alpha: alpha * ops.jx),
    "c": (1.0, 0.0, lambda ops, alpha: Banded.diagonal(np.full(ops.jz.dim, 0.5))),
    "d": (0.0, 1.0, lambda ops, alpha: alpha * ops.jx),
    "e": (1.0, None, lambda ops, alpha: Banded.diagonal(np.full(ops.jz.dim, alpha))),
    "f": (0.0, 1.0, lambda ops, alpha: Banded.diagonal(np.full(ops.jz.dim, alpha))),
}


def general_su2_hamiltonian(case: str, alpha: float, eta: float, j, epsilon: float | None = None) -> Banded:
    """a*Jx + b*A + C cos(X) + (C cos(X))^dag of family case 'a'..'f', with
    X = eta(2Jz+1)/2j; Hermitian by construction."""
    if case not in FAMILY_CASES:
        raise ValueError(f"unknown family case {case!r}; expected one of {sorted(FAMILY_CASES)}")
    a_rel, b_rel, coupling = FAMILY_CASES[case]
    if b_rel is None:
        if epsilon is None:
            raise ValueError("family case 'e' requires an explicit epsilon (b = epsilon*alpha)")
        b_rel = epsilon
    spin = _as_spin(j)
    if not np.isfinite(alpha) or alpha == 0.0:
        raise ValueError("alpha must be finite and nonzero")
    if not np.isfinite(eta):
        raise ValueError("eta must be finite")
    ops = spin_operators(spin)
    modulated = coupling(ops, alpha) @ Banded.diagonal(np.cos(phase_diagonal(spin, eta)))
    ham = (a_rel * alpha) * ops.jx + (b_rel * alpha) * hopping_operator(spin)
    return ham + modulated + modulated.conj().T


def dkt_static_part(alpha: float, eta: float, j, period: float = 1.0) -> Banded:
    """Static part of the kicked system equivalent to the double kicked top.

    Returns (alpha/T) Jplus exp(iX) + h.c. with X = eta(2Jz+1)/2j; nonzero
    entries sit only on the first off-diagonals.  T times this generator is
    the first exponent of the exact one-period evolution operator, so the
    kicked system (this static part, kick alpha*Jx, period T) reproduces the
    double kicked top stroboscopically.
    """
    check_period(period)
    spin = _as_spin(j)
    phase = Banded.diagonal(np.exp(1j * phase_diagonal(spin, eta)))
    upper = spin_operators(spin).jplus @ phase
    return (alpha / period) * (upper + upper.conj().T)
