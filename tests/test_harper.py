import numpy as np
import pytest

from kickedspec.effective import KickedSystem, heff_delta_kicked
from kickedspec.harper import (
    CLOSED_FORM,
    GENERAL,
    HarperParams,
    closed_form_correction,
    harper_hamiltonian,
    heff_discrepancy_report,
    kicked_harper_effective,
    kicked_harper_system,
    onsite_potential,
)
from kickedspec.operators import Banded, hermiticity_defect


def test_params_validation():
    with pytest.raises(ValueError, match="length"):
        HarperParams(length=1, sigma=0.5)
    with pytest.raises(ValueError, match="sigma"):
        HarperParams(length=4, sigma=float("inf"))
    for period in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="period"):
            HarperParams(length=4, sigma=0.5, period=period)
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
            HarperParams(length=4, sigma=0.5, alpha=alpha)


def test_static_chain_simple_cases():
    assert np.allclose(harper_hamiltonian(HarperParams(2, 0.0)), [[2.0, 1.0], [1.0, 2.0]])
    ham = harper_hamiltonian(HarperParams(6, 0.5))
    assert np.allclose(np.diag(ham), 2.0 * (-1.0) ** np.arange(1, 7))
    assert np.allclose(np.diag(ham, k=1), np.ones(5))


def test_static_chain_gershgorin_bound():
    ham = np.real(harper_hamiltonian(HarperParams(40, 0.3177)))
    radii = np.sum(np.abs(ham), axis=1) - np.abs(np.diag(ham))
    bound = np.max(np.abs(np.diag(ham)) + radii)
    evals = np.linalg.eigvalsh(ham)
    assert np.all(np.abs(evals) <= bound + 1e-12)


@pytest.mark.parametrize("p, q", [(1, 3), (2, 5)])
def test_static_chain_band_count_for_rational_flux(p, q):
    # rational flux p/q: at most q bands, so at most q-1 gaps above threshold;
    # the ring closure keeps open-chain edge modes out of the gaps
    length = 60 * q
    ring = harper_hamiltonian(HarperParams(length, p / q)) + Banded(length, {length - 1: [1.0], 1 - length: [1.0]})
    evals = np.linalg.eigvalsh(ring)
    gaps = np.diff(np.sort(evals))
    assert np.count_nonzero(gaps > 0.1) <= q - 1


def test_closed_form_correction_quarter_flux():
    # sigma=1/4: cos^2(pi n / 2) alternates 0, 1,... so alternate bonds vanish
    params = HarperParams(6, 0.25)
    corr = np.real(closed_form_correction(params))
    bonds = np.diag(corr, k=1)
    assert np.allclose(bonds, [0.0, -1.0 / 6.0, 0.0, -1.0 / 6.0, 0.0], atol=1e-15)
    assert np.allclose(np.diag(corr), 0.0)


def test_closed_form_differs_only_on_bonds():
    params = HarperParams(30, 0.7234)
    static = harper_hamiltonian(params)
    effective = kicked_harper_effective(params, CLOSED_FORM)
    diff = effective - static
    assert np.allclose(np.diag(diff), 0.0)
    assert np.allclose(np.diag(diff, k=2), 0.0)
    assert np.max(np.abs(np.diag(diff, k=1))) > 0.0


def test_zero_kick_limit_returns_hopping_only():
    params = HarperParams(8, 0.3)
    hop = kicked_harper_system(params).h0
    system = KickedSystem(h0=hop, kick=Banded(hop.dim, {}), period=1.0)
    assert np.allclose(heff_delta_kicked(system), hop)


def test_general_mode_bond_correction_brute_force():
    # bond (n, n+1) correction must equal -(v_n - v_{n+1})^2/24 * alpha after
    # the 1/alpha rescaling, with v_n the kicked onsite potential
    params = HarperParams(4, 0.5 * (np.sqrt(5.0) - 1.0), alpha=1.0, period=1.0)
    general = kicked_harper_effective(params, GENERAL)
    onsite = params.alpha * onsite_potential(params)
    expected_bonds = params.alpha + -(onsite[:-1] - onsite[1:]) ** 2 / 24.0 * params.alpha
    assert np.allclose(np.real(np.diag(general, k=1)), expected_bonds / params.alpha)

    # brute-force double commutator on the raw kicked system
    system = kicked_harper_system(params)
    w = system.kick @ system.h0 - system.h0 @ system.kick
    brute = system.h0 + system.kick / params.period + (w @ system.kick - system.kick @ w) / 24.0
    assert np.allclose(general * params.alpha, brute)


def test_general_mode_alpha_scaling():
    params_small = HarperParams(12, 0.41, alpha=0.3)
    params_unit = HarperParams(12, 0.41, alpha=1.0)
    general_small = kicked_harper_effective(params_small, GENERAL)
    general_unit = kicked_harper_effective(params_unit, GENERAL)
    # leading part is alpha-independent after rescaling; the double-commutator
    # correction keeps an alpha^2 footprint
    assert np.allclose(np.diag(general_small), np.diag(general_unit))
    corr_small = np.diag(general_small, k=1) - 1.0
    corr_unit = np.diag(general_unit, k=1) - 1.0
    assert np.allclose(corr_small, 0.09 * corr_unit)


def test_modes_are_hermitian_and_validated():
    params = HarperParams(10, 0.123)
    for mode in (CLOSED_FORM, GENERAL):
        assert hermiticity_defect(kicked_harper_effective(params, mode)) <= 1e-12
    with pytest.raises(ValueError, match="mode"):
        kicked_harper_effective(params, "fancy")


def test_discrepancy_report_structure():
    params = HarperParams(5, 0.9, alpha=1.0)
    report = heff_discrepancy_report(params)
    assert report.bonds_closed_form.shape == (4,)
    assert report.bond_difference.shape == (4,)
    assert np.allclose(report.diagonal_difference, 0.0, atol=1e-14)
    assert report.max_norm == pytest.approx(np.max(np.abs(report.bond_difference)))
    # closed form: 1 - cos^2/6; general: 1 - (v_n - v_{n+1})^2/24
    sites = np.arange(1, 5)
    closed_bonds = 1.0 - np.cos(2.0 * np.pi * sites * 0.9) ** 2 / 6.0
    assert np.allclose(report.bonds_closed_form, closed_bonds)


def test_discrepancy_vanishes_for_flat_potential():
    # sigma=0 gives a constant onsite potential: the general-route correction
    # vanishes ([V, H0] has equal neighbors), the closed form keeps -1/6
    params = HarperParams(6, 0.0)
    report = heff_discrepancy_report(params)
    assert np.allclose(report.bonds_general, 1.0)
    assert np.allclose(report.bonds_closed_form, 1.0 - 1.0 / 6.0)


def test_discrepancy_two_site_hand_case():
    # L=2: single bond; v = 2a(cos 2ps, cos 4ps)
    sigma, alpha = 0.2, 1.0
    params = HarperParams(2, sigma, alpha=alpha)
    report = heff_discrepancy_report(params)
    v = 2.0 * alpha * np.cos(2.0 * np.pi * sigma * np.arange(1, 3))
    general_bond = alpha - alpha * (v[0] - v[1]) ** 2 / 24.0
    closed_bond = alpha - np.cos(2.0 * np.pi * sigma) ** 2 / 6.0
    assert report.bonds_general[0] == pytest.approx(general_bond / alpha)
    assert report.bonds_closed_form[0] == pytest.approx(closed_bond)
    assert report.bond_difference[0] == pytest.approx(closed_bond - general_bond / alpha)
