"""High-frequency effective Hamiltonians for time-periodic drives.

Covers the closed-form result for a delta-kick train (static part plus
averaged kick plus a 1/24 double-commutator correction) and the general
second-order series in the drive's Fourier coefficients, which doubles as an
independent cross-check of the closed form.  The periodic micromotion
generator F(t), with exp(iF) the initial/final kick transformation, is
evaluated from the same coefficients.

Every formula here is written with matrix products, sums and adjoints, so it
runs on `Banded` operators as well as on dense arrays; the delta-kick
results of banded inputs stay banded.
"""

from dataclasses import dataclass

import numpy as np

from .operators import Banded, as_operator, require_hermitian, require_square

TWO_PI = 2.0 * np.pi


def commutator(a, b):
    """AB - BA; banded when both operands are `Banded`, else an ndarray."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"commutator needs equal shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def _dagger(a):
    return a.conj().T


@dataclass(frozen=True)
class KickedSystem:
    """Static part h0, kick operator applied once per period, and the period.

    The operators are kept as given: `Banded` stays banded, anything else
    becomes an ndarray.
    """

    h0: Banded | np.ndarray
    kick: Banded | np.ndarray
    period: float

    def __post_init__(self):
        h0 = require_hermitian(self.h0, name="static part")
        kick = require_hermitian(self.kick, name="kick operator")
        if h0.shape != kick.shape:
            raise ValueError(f"static part {h0.shape} and kick {kick.shape} differ in dimension")
        if not self.period > 0:
            raise ValueError(f"kick period must be positive, got {self.period}")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "kick", kick)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def omega(self) -> float:
        return TWO_PI / self.period


@dataclass(frozen=True)
class FourierSeries:
    """Fourier data of a Hermitian periodic drive: V(t) = V0 + sum_n Vn e^{in w t} + h.c.

    Only n >= 1 is stored; V_{-n} = Vn^dag.  ``harmonics`` may be None, meaning
    every coefficient up to n_max equals v0 (the delta-kick comb); that keeps
    large truncations cheap since no per-n matrices are materialized.
    """

    v0: Banded | np.ndarray
    harmonics: tuple | None
    n_max: int

    def __post_init__(self):
        v0 = require_hermitian(self.v0, name="zeroth Fourier coefficient")
        object.__setattr__(self, "v0", v0)
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.harmonics is not None:
            harmonics = tuple(np.asarray(h) for h in self.harmonics)
            if len(harmonics) != self.n_max:
                raise ValueError(f"expected {self.n_max} harmonics, got {len(harmonics)}")
            for h in harmonics:
                if require_square(h, name="Fourier coefficient").shape != v0.shape:
                    raise ValueError("all Fourier coefficients must share the v0 dimension")
            object.__setattr__(self, "harmonics", harmonics)

    @property
    def constant(self) -> bool:
        return self.harmonics is None

    def coefficient(self, n: int):
        """V_n for any integer n; zero once |n| exceeds the truncation."""
        if n == 0:
            return self.v0
        if self.constant:
            return self.v0 if abs(n) <= self.n_max else np.zeros_like(self.v0)
        if abs(n) > self.n_max:
            return np.zeros_like(self.v0)
        vn = self.harmonics[abs(n) - 1]
        return vn if n > 0 else _dagger(vn)


def kick_fourier_coefficients(kick, period: float, n_max: int) -> FourierSeries:
    """Fourier series of kick * sum_n delta(t - n*period): every coefficient is kick/period."""
    if period <= 0:
        raise ValueError(f"kick period must be positive, got {period}")
    kick = require_hermitian(kick, name="kick operator")
    return FourierSeries(v0=kick / period, harmonics=None, n_max=int(n_max))


def _inverse_power_sum(n_max: int, power: int) -> float:
    """Partial sum of 1/n^power up to n_max, evaluated term by term."""
    n = np.arange(1, n_max + 1, dtype=float)
    return float(np.sum(1.0 / n**power))


def heff_general(h0, series: FourierSeries, omega: float):
    """Second-order effective Hamiltonian from truncated Fourier sums.

    H0 + V0 + (1/w) sum_n [Vn, V-n]/n
       + (1/2w^2) sum_n ([[Vn, H0], V-n] + h.c.)/n^2
       + (1/3w^2) sum_{n,m} ([Vn,[Vm,V-n-m]] - 2[Vn,[V-m,Vm-n]] + h.c.)/(nm)

    Coefficients beyond the truncation are treated as zero.  When the series
    has the delta-kick structure (all coefficients equal) the matrix parts of
    each sum are common factors and only the scalar 1/n tails are accumulated,
    so truncations as large as 10^6 stay cheap.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    h0 = require_hermitian(h0, name="static part")
    if h0.shape != series.v0.shape:
        raise ValueError(f"static part {h0.shape} and drive {series.v0.shape} differ in dimension")

    result = h0 + series.v0
    if series.constant:
        v = series.v0
        s1 = _inverse_power_sum(series.n_max, 1)
        s2 = _inverse_power_sum(series.n_max, 2)
        result = result + (s1 / omega) * commutator(v, _dagger(v))
        bracket = commutator(commutator(v, h0), _dagger(v))
        result = result + (s2 / (2.0 * omega**2)) * (bracket + _dagger(bracket))
        # Both nested double-sum brackets pair identical coefficients, so they
        # vanish identically; keep the evaluation explicit all the same.
        nested = commutator(v, commutator(v, _dagger(v))) - 2.0 * commutator(v, commutator(_dagger(v), v))
        result = result + (s1 * s1 / (3.0 * omega**2)) * (nested + _dagger(nested))
        return result

    for n in range(1, series.n_max + 1):
        vn = series.coefficient(n)
        vmn = series.coefficient(-n)
        result = result + commutator(vn, vmn) / (omega * n)
        bracket = commutator(commutator(vn, h0), vmn)
        result = result + (bracket + _dagger(bracket)) / (2.0 * omega**2 * n**2)
    for n in range(1, series.n_max + 1):
        vn = series.coefficient(n)
        for m in range(1, series.n_max + 1):
            nested = commutator(vn, commutator(series.coefficient(m), series.coefficient(-n - m)))
            nested = nested - 2.0 * commutator(vn, commutator(series.coefficient(-m), series.coefficient(m - n)))
            result = result + (nested + _dagger(nested)) / (3.0 * omega**2 * n * m)
    return result


# zeta(2): closed-form value of the delta-kick 1/n^2 sum.
_ZETA2 = np.pi**2 / 6.0


def heff_delta_kicked(system: KickedSystem):
    """Closed-form effective Hamiltonian of a delta-kicked system.

    h0 + kick/T + (1/24) [[kick, h0], kick]; the 1/24 is zeta(2)/(w T)^2 and is
    independent of the period.
    """
    correction = commutator(commutator(system.kick, system.h0), system.kick)
    heff = system.h0 + system.kick / system.period + correction / 24.0
    return require_hermitian(heff, name="effective Hamiltonian")


def micromotion_kick(system: KickedSystem, series: FourierSeries, t: float, order: int = 2):
    """Periodic micromotion generator F(t) at first or second order in 1/omega.

    F is Hermitian (exp(iF) is the unitary kick transformation), is T-periodic
    and averages to zero over one period.  The time argument is reduced modulo
    the period.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if system.dim != series.v0.shape[0]:
        raise ValueError("system and Fourier series differ in dimension")
    omega = system.omega
    theta = omega * (t % system.period)
    n = np.arange(1, series.n_max + 1, dtype=float)

    if series.constant:
        v = series.v0
        result = (2.0 / omega) * float(np.sum(np.sin(n * theta) / n)) * v
        if order == 2:
            bracket = commutator(v, system.h0 + series.v0)  # anti-Hermitian
            weight = float(np.sum(np.cos(n * theta) / n**2))
            result = result + (weight / omega**2) * (-2.0j) * bracket
            # Nested commutators of equal coefficients vanish; nothing to add
            # from the double sums for a delta-kick drive.
        return result

    result = np.zeros_like(series.v0)
    for k in range(1, series.n_max + 1):
        vk = series.coefficient(k)
        result = result + (-1j / (omega * k)) * (vk * np.exp(1j * k * theta) - _dagger(vk) * np.exp(-1j * k * theta))
    if order == 1:
        return result
    static = system.h0 + series.v0
    for k in range(1, series.n_max + 1):
        bracket = commutator(series.coefficient(k), static)
        phase = np.exp(1j * k * theta)
        result = result + (-1j / (omega**2 * k**2)) * (bracket * phase - _dagger(bracket) * phase.conjugate())
    for k in range(1, series.n_max + 1):
        vk = series.coefficient(k)
        for m in range(1, series.n_max + 1):
            pair = commutator(vk, series.coefficient(m))
            phase = np.exp(1j * (k + m) * theta)
            result = result + (-1j / (2.0 * omega**2 * k * (k + m))) * (pair * phase - _dagger(pair) * phase.conjugate())
            if m != k:
                pair = commutator(vk, series.coefficient(-m))
                phase = np.exp(1j * (k - m) * theta)
                result = result + (-1j / (2.0 * omega**2 * k * (k - m))) * (pair * phase - _dagger(pair) * phase.conjugate())
    return result
