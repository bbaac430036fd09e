"""High-frequency effective Hamiltonians of delta-kicked systems.

A `KickedSystem` is a static part H0 plus a kick applied once per period T,
that is the drive kick * sum_n delta(t - nT), whose every Fourier
coefficient is V = kick/T.  `heff_delta_kicked` gives the closed form of the
second-order kick-operator expansion (Rahav, Gilary & Fishman, PRA 68,
013820 (2003)): H0 + V plus a 1/24 double-commutator correction.
`heff_general` evaluates the same expansion with its Fourier sums truncated
after N terms, an independent cross-check of the closed form, and
`micromotion_kick` gives the periodic micromotion generator F(t), with
exp(iF) the initial/final kick transformation, from its sums' closed forms.

Every operand is a `Banded` operator, and every formula here is written with
its products, sums and adjoints, so every result stays banded.
"""

from dataclasses import dataclass

import numpy as np

from .operators import Banded, require_hermitian

TWO_PI = 2.0 * np.pi


def commutator(a: Banded, b: Banded) -> Banded:
    """AB - BA of two `Banded` operators of one dimension."""
    if not (isinstance(a, Banded) and isinstance(b, Banded)):
        raise TypeError(f"commutator takes two Banded operators, got {type(a).__name__} and {type(b).__name__}")
    return a @ b - b @ a


def check_period(period: float) -> None:
    """The kick period's rule: finite and positive."""
    if not (np.isfinite(period) and period > 0):
        raise ValueError(f"kick period must be finite and positive, got {period}")


def check_coupling(alpha: float) -> None:
    """The coupling's rule: finite and nonzero."""
    if not np.isfinite(alpha) or alpha == 0.0:
        raise ValueError("alpha must be finite and nonzero")


def _dagger(a):
    return a.conj().T


@dataclass(frozen=True)
class KickedSystem:
    """Static part h0, kick operator applied once per period, and the period.

    Both operators are Hermitian `Banded` operators of one dimension, and the
    period is finite and positive.
    """

    h0: Banded
    kick: Banded
    period: float

    def __post_init__(self):
        require_hermitian(self.h0, name="static part")
        require_hermitian(self.kick, name="kick operator")
        if self.h0.dim != self.kick.dim:
            raise ValueError(f"static part {self.h0.shape} and kick {self.kick.shape} differ in dimension")
        check_period(self.period)

    @property
    def dim(self) -> int:
        return self.h0.dim

    @property
    def omega(self) -> float:
        return TWO_PI / self.period


def heff_general(system: KickedSystem, n_max: int):
    """Second-order effective Hamiltonian with its Fourier sums truncated at n_max.

    With V = kick/T, w = 2 pi/T and s_p = sum_{n<=N} n^-p:

    H0 + V + (s1/w) [V, V^dag]
       + (s2/2w^2) ([[V, H0], V^dag] + h.c.)
       + (s1^2/3w^2) ([V,[V,V^dag]] - 2[V,[V^dag,V]] + h.c.)

    Only scalar sums depend on N, so truncations as large as 10^6 stay cheap;
    s2 -> zeta(2) recovers `heff_delta_kicked`.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, int(n_max) + 1, dtype=float)
    omega = system.omega
    h0 = system.h0
    v = system.kick / system.period
    s1 = float(np.sum(1.0 / n))
    s2 = float(np.sum(1.0 / n**2))
    result = h0 + v
    result = result + (s1 / omega) * commutator(v, _dagger(v))
    bracket = commutator(commutator(v, h0), _dagger(v))
    result = result + (s2 / (2.0 * omega**2)) * (bracket + _dagger(bracket))
    # Both nested brackets pair identical coefficients, so they vanish
    # identically; keep the evaluation explicit all the same.
    nested = commutator(v, commutator(v, _dagger(v))) - 2.0 * commutator(v, commutator(_dagger(v), v))
    return result + (s1 * s1 / (3.0 * omega**2)) * (nested + _dagger(nested))


def heff_delta_kicked(system: KickedSystem):
    """Closed-form effective Hamiltonian of a delta-kicked system.

    h0 + kick/T + (1/24) [[kick, h0], kick]; the 1/24 is zeta(2)/(w T)^2 and is
    independent of the period.
    """
    correction = commutator(commutator(system.kick, system.h0), system.kick)
    heff = system.h0 + system.kick / system.period + correction / 24.0
    return require_hermitian(heff, name="effective Hamiltonian")


def micromotion_kick(system: KickedSystem, t: float, order: int = 2):
    """Periodic micromotion generator F(t) at first or second order in 1/omega.

    With V = kick/T and theta = w (t mod T) in [0, 2 pi):

    F = (2/w) sum sin(n theta)/n V  -  (2i/w^2) sum cos(n theta)/n^2 [V, H0 + V]

    the second term at order 2 only, the sums over n >= 1 in closed form:
    (pi - theta)/2 (0 at the kick, theta = 0) and pi^2/6 - pi theta/2 + theta^2/4.
    F is Hermitian (exp(iF) is the unitary kick transformation), is
    T-periodic and averages to zero over one period.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    omega = system.omega
    theta = omega * (t % system.period)
    v = system.kick / system.period
    result = (2.0 / omega) * ((np.pi - theta) / 2.0 if theta > 0 else 0.0) * v
    if order == 2:
        bracket = commutator(v, system.h0 + v)  # anti-Hermitian
        weight = np.pi**2 / 6.0 - np.pi * theta / 2.0 + theta**2 / 4.0
        result = result + (weight / omega**2) * (-2.0j) * bracket
        # Nested commutators of equal coefficients vanish; nothing to add
        # from the double sums for a delta-kick drive.
    return result
