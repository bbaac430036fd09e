"""Angular-momentum operators and quasiperiodically modulated SU(2) Hamiltonians.

All operators are `Banded` matrices in the Jz eigenbasis, ordered by
ascending magnetic quantum number m = -j..+j: Jx, Jy and every Hamiltonian
here are tridiagonal, Jz and the phase operator diagonal.  Energies are
dimensionless (hbar = 1).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import Banded, require_hermitian


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


class CosineCoupling(Enum):
    """Operator multiplying cos of the phase operator in the SU(2) family."""

    JPLUS_HALF = "jplus-half"    # (alpha/2)(Jx + i Jy)
    JX = "jx"                    # alpha * Jx
    HALF_IDENTITY = "half-identity"  # identity / 2
    IDENTITY_ALPHA = "identity-alpha"  # alpha * identity


@dataclass(frozen=True)
class Su2FamilyParams:
    """Couplings of H = a Jx + b A + [C cos(X) + h.c.] with X = eta(2Jz+1)/2j."""

    a: float
    b: float
    c_kind: CosineCoupling
    alpha: float
    eta: float
    j: SpinLabel
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "j", _as_spin(self.j))
        if not np.isfinite(self.alpha) or self.alpha == 0.0:
            raise ValueError("alpha must be finite and nonzero")
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")


# Rows of the six-case family: (label, a/alpha, b/alpha, coupling).  Case "e"
# additionally needs epsilon (b = epsilon*alpha), which has no default.
FAMILY_CASES = {
    "a": (1.0, 0.0, CosineCoupling.JPLUS_HALF),
    "b": (1.0, 0.0, CosineCoupling.JX),
    "c": (1.0, 0.0, CosineCoupling.HALF_IDENTITY),
    "d": (0.0, 1.0, CosineCoupling.JX),
    "e": (1.0, None, CosineCoupling.IDENTITY_ALPHA),
    "f": (0.0, 1.0, CosineCoupling.IDENTITY_ALPHA),
}


def family_params(case: str, alpha: float, eta: float, j, epsilon: float | None = None) -> Su2FamilyParams:
    """Parameters for one of the documented family cases 'a'..'f'."""
    if case not in FAMILY_CASES:
        raise ValueError(f"unknown family case {case!r}; expected one of {sorted(FAMILY_CASES)}")
    a_rel, b_rel, kind = FAMILY_CASES[case]
    if b_rel is None:
        if epsilon is None:
            raise ValueError("family case 'e' requires an explicit epsilon (b = epsilon*alpha)")
        b_rel = epsilon
    return Su2FamilyParams(a=a_rel * alpha, b=b_rel * alpha, c_kind=kind,
                           alpha=alpha, eta=eta, j=_as_spin(j), epsilon=epsilon)


def _cosine_coupling_matrix(params: Su2FamilyParams) -> Banded:
    ops = spin_operators(params.j)
    if params.c_kind is CosineCoupling.JPLUS_HALF:
        return params.alpha * ops.jplus  # (alpha/2)(Jx + iJy), real
    if params.c_kind is CosineCoupling.JX:
        return params.alpha * ops.jx
    if params.c_kind is CosineCoupling.HALF_IDENTITY:
        return Banded.diagonal(np.full(params.j.dim, 0.5))
    if params.c_kind is CosineCoupling.IDENTITY_ALPHA:
        return Banded.diagonal(np.full(params.j.dim, params.alpha))
    raise ValueError(f"unknown cosine coupling {params.c_kind!r}")


def general_su2_hamiltonian(params: Su2FamilyParams) -> Banded:
    """a*Jx + b*A + C cos(X) + (C cos(X))^dag, Hermitian by construction."""
    ops = spin_operators(params.j)
    cos_x = Banded.diagonal(np.cos(phase_diagonal(params.j, params.eta)))
    modulated = _cosine_coupling_matrix(params) @ cos_x
    ham = params.a * ops.jx + params.b * hopping_operator(params.j)
    ham = ham + modulated + modulated.conj().T
    return require_hermitian(ham, name="SU(2) family Hamiltonian")


def dkt_static_part(alpha: float, eta: float, j, period: float = 1.0) -> Banded:
    """Static part of the kicked system equivalent to the double kicked top.

    Returns (alpha/T) Jplus exp(iX) + h.c. with X = eta(2Jz+1)/2j; nonzero
    entries sit only on the first off-diagonals.  T times this generator is
    the first exponent of the exact one-period evolution operator, so the
    kicked system (this static part, kick alpha*Jx, period T) reproduces the
    double kicked top stroboscopically.
    """
    if period <= 0:
        raise ValueError(f"kick period must be positive, got {period}")
    spin = _as_spin(j)
    phase = Banded.diagonal(np.exp(1j * phase_diagonal(spin, eta)))
    upper = spin_operators(spin).jplus @ phase
    ham = (alpha / period) * (upper + upper.conj().T)
    return require_hermitian(ham, name="kicked-top static part")
