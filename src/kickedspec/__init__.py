"""Effective static Hamiltonians for delta-kicked quantum systems and
multifractal analysis of their spectra and eigenstates."""

from .effective import (
    KickedSystem,
    commutator,
    heff_delta_kicked,
    heff_general,
    micromotion_kick,
)
from .floquet import (
    dkt_effective_hamiltonian,
    dkt_floquet,
    dkt_kicked_system,
    effective_vs_floquet_error,
    effective_vs_floquet_errors,
    fold_phases,
    quasienergy_spectrum,
    unitary_from_hermitian,
)
from .harper import (
    CLOSED_FORM,
    GENERAL,
    HarperParams,
    harper_hamiltonian,
    heff_discrepancy_report,
    kicked_harper_effective,
)
from .multifractal import (
    BoxMeasure,
    EigenvectorProfile,
    EigenvectorTable,
    ScalingSpectrum,
    analyze_eigenvectors,
    box_probabilities,
    eigenvector_tau,
    ensemble_statistics,
    participation_ratio,
    tau_spectrum,
)
from .operators import Banded, eigensolve
from .su2 import (
    CosineCoupling,
    SpinLabel,
    Su2FamilyParams,
    dkt_static_part,
    family_params,
    general_su2_hamiltonian,
    hopping_operator,
    phase_operator,
    spin_operators,
)

GOLDEN_RATIO = 0.5 * (5.0**0.5 - 1.0)

__version__ = "0.1.0"

__all__ = [
    "Banded",
    "BoxMeasure",
    "CLOSED_FORM",
    "CosineCoupling",
    "EigenvectorProfile",
    "EigenvectorTable",
    "GENERAL",
    "GOLDEN_RATIO",
    "HarperParams",
    "KickedSystem",
    "ScalingSpectrum",
    "SpinLabel",
    "Su2FamilyParams",
    "analyze_eigenvectors",
    "box_probabilities",
    "commutator",
    "dkt_effective_hamiltonian",
    "dkt_floquet",
    "dkt_kicked_system",
    "dkt_static_part",
    "effective_vs_floquet_error",
    "effective_vs_floquet_errors",
    "eigensolve",
    "eigenvector_tau",
    "ensemble_statistics",
    "family_params",
    "fold_phases",
    "general_su2_hamiltonian",
    "harper_hamiltonian",
    "heff_delta_kicked",
    "heff_discrepancy_report",
    "heff_general",
    "hopping_operator",
    "kicked_harper_effective",
    "micromotion_kick",
    "participation_ratio",
    "phase_operator",
    "quasienergy_spectrum",
    "spin_operators",
    "tau_spectrum",
    "unitary_from_hermitian",
]
