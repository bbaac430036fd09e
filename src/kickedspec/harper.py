"""Harper chain and its kicked-drive effective Hamiltonian.

The static chain has uniform nearest-neighbor hopping and a cosine onsite
potential.  When the onsite term is pulsed once per period, the effective
static Hamiltonian acquires a hopping correction; both the closed-form
correction and the one produced by the generic delta-kick machinery are
provided, together with a bond-by-bond comparison of the two.
"""

from dataclasses import dataclass

import numpy as np

from .effective import KickedSystem, check_coupling, check_period, heff_delta_kicked
from .operators import Banded, max_abs

CLOSED_FORM = "closed-form"
GENERAL = "general"
_MODES = (CLOSED_FORM, GENERAL)


def check_length(length: int) -> None:
    """Raise unless a chain of `length` sites has a bond."""
    if length < 2:
        raise ValueError(f"chain length must be >= 2, got {length}")


@dataclass(frozen=True)
class HarperParams:
    """Chain length, flux/modulation parameter, overall coupling, kick period."""

    length: int
    sigma: float
    alpha: float = 1.0
    period: float = 1.0

    def __post_init__(self):
        check_length(self.length)
        if not np.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        check_coupling(self.alpha)
        check_period(self.period)


def onsite_potential(params: HarperParams) -> np.ndarray:
    """2 cos(2 pi n sigma) for sites n = 1..L."""
    sites = np.arange(1, params.length + 1)
    return 2.0 * np.cos(2.0 * np.pi * sites * params.sigma)


def _bond_matrix(params: HarperParams, bonds) -> Banded:
    """Symmetric hopping with `bonds` on the open-chain bonds."""
    return Banded(params.length, {1: bonds, -1: bonds})


def _hopping_matrix(params: HarperParams) -> Banded:
    """Unit hopping on open-chain bonds."""
    return _bond_matrix(params, np.ones(params.length - 1))


def harper_hamiltonian(params: HarperParams) -> Banded:
    """Static chain: onsite 2 cos(2 pi n sigma) plus unit hopping on open bonds."""
    return Banded.diagonal(onsite_potential(params)) + _hopping_matrix(params)


def closed_form_correction(params: HarperParams) -> Banded:
    """Hopping correction -(1/6) cos^2(2 pi n sigma) on bond (n, n+1)."""
    bonds = -(onsite_potential(params)[:-1] / 2.0) ** 2 / 6.0
    return _bond_matrix(params, bonds)


def kicked_harper_system(params: HarperParams) -> KickedSystem:
    """Kicked chain: static hopping alpha*A, onsite kick 2 alpha cos(2 pi n sigma)."""
    h0 = params.alpha * _hopping_matrix(params)
    kick = params.alpha * Banded.diagonal(onsite_potential(params))
    return KickedSystem(h0=h0, kick=kick, period=params.period)


def kicked_harper_effective(params: HarperParams, mode: str) -> Banded:
    """Effective Hamiltonian of the kicked Harper chain.

    CLOSED_FORM adds the cos^2 hopping correction to the static chain.
    GENERAL runs the delta-kick machinery on (h0, kick, T) and rescales
    by 1/alpha so the leading hopping part matches the static chain (the
    onsite part additionally matches when period = 1).
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if mode == CLOSED_FORM:
        return harper_hamiltonian(params) + closed_form_correction(params)
    heff = heff_delta_kicked(kicked_harper_system(params))
    return heff / params.alpha


def _upper_bonds(mat: Banded) -> np.ndarray:
    return np.real(mat.band(1))


@dataclass(frozen=True)
class HarperEffectiveDiff:
    """Bond-by-bond comparison of the two effective-Hamiltonian routes."""

    bonds_closed_form: np.ndarray
    bonds_general: np.ndarray
    bond_difference: np.ndarray
    diagonal_difference: np.ndarray
    max_norm: float


def heff_discrepancy_report(params: HarperParams) -> HarperEffectiveDiff:
    """Quantify how the closed-form correction differs from the generic route."""
    closed = kicked_harper_effective(params, CLOSED_FORM)
    general = kicked_harper_effective(params, GENERAL)
    diff = closed - general
    return HarperEffectiveDiff(
        bonds_closed_form=_upper_bonds(closed),
        bonds_general=_upper_bonds(general),
        bond_difference=_upper_bonds(diff),
        diagonal_difference=np.real(diff.band(0)).copy(),
        max_norm=max_abs(diff),
    )
