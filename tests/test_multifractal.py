import numpy as np
import pytest

from conftest import cantor_points, cascade_points
from kickedspec.multifractal import (
    analyze_eigenvectors,
    box_probabilities,
    default_partition_grid,
    default_scale_grid,
    eigenvector_tau,
    ensemble_statistics,
    generalized_dimensions,
    information_dimension,
    participation_ratio,
    partition_moment,
    spectral_histogram,
    tau_spectrum,
)
from kickedspec.multifractal import _shared_window_fit


def dq_at(spectrum, q):
    idx = np.nonzero(np.abs(spectrum.q_grid - q) <= 1e-9)[0][0]
    return spectrum.dq[idx]


# ---------------------------------------------------------------------------
# box probabilities and moments
# ---------------------------------------------------------------------------

def test_box_probabilities_two_values():
    measure = box_probabilities([0.0, 1.0], 2)
    assert np.allclose(measure.probabilities, [0.5, 0.5])
    assert measure.bin_width == pytest.approx(0.5)


def test_box_probabilities_uniform_grid():
    values = np.linspace(0.0, 1.0, 1000)
    measure = box_probabilities(values, 10)
    assert np.allclose(measure.probabilities, 0.1)


def test_box_probabilities_rightmost_bin_closed():
    measure = box_probabilities([0.0, 0.5, 1.0], 2)
    assert np.allclose(measure.probabilities, [1.0 / 3.0, 2.0 / 3.0])


def test_box_probabilities_validation():
    with pytest.raises(ValueError, match="degenerate"):
        box_probabilities([1.0, 1.0, 1.0], 4)
    with pytest.raises(ValueError, match="bins"):
        box_probabilities([0.0, 1.0], 1)


def test_cantor_occupied_bins_follow_construction():
    values = cantor_points(depth=8)
    for k in (1, 2, 3, 4, 5):
        probs = box_probabilities(values, 3**k).probabilities
        assert np.count_nonzero(probs) == 2**k


def test_partition_moment_properties():
    probs = np.array([0.5, 0.25, 0.25, 0.0])
    assert partition_moment(probs, 0.0) == 3.0
    assert partition_moment(probs, 1.0) == pytest.approx(1.0)
    moments = [partition_moment(probs, q) for q in (0.0, 0.5, 2.0, 3.0, 8.0)]
    assert all(a > b for a, b in zip(moments, moments[1:]))
    with pytest.raises(ValueError, match="negative"):
        partition_moment(probs, -1.0)


# ---------------------------------------------------------------------------
# tau spectra of synthetic measures
# ---------------------------------------------------------------------------

def test_tau_uniform_measure_dimension_one():
    values = np.linspace(0.0, 1.0, 2**17)
    spectrum = tau_spectrum(values)
    dq = spectrum.dq[~np.isnan(spectrum.dq)]
    assert np.all(np.abs(dq - 1.0) <= 0.01)
    assert spectrum.mu == pytest.approx(-1.0, abs=0.01)


def test_tau_point_mass_dimension_zero():
    cluster = np.concatenate([np.linspace(0.0, 1e-9, 1000), [1.0]])
    spectrum = tau_spectrum(cluster, scale_grid=[16, 32, 64, 128, 256])
    dq = spectrum.dq[~np.isnan(spectrum.dq)]
    assert np.all(np.abs(dq) <= 0.01)


def test_tau_affine_invariance():
    rng = np.random.default_rng(5)
    values = np.sort(rng.beta(0.4, 0.9, size=4000))
    base = tau_spectrum(values)
    shifted = tau_spectrum(-3.2 * values + 11.0)
    assert np.max(np.abs(base.tau - shifted.tau)) <= 1e-10


def test_tau_binomial_cascade_matches_analytic(cascade12):
    _, q28, analytic = cascade12
    points = cascade_points(p=0.3, depth=12, n_points=2**21)
    spectrum = tau_spectrum(points, q_grid=q28, scale_grid=[16, 32, 64, 128, 256, 512, 1024])
    rel = np.abs(spectrum.tau - analytic) / np.abs(analytic)
    assert np.max(rel) <= 0.02


def test_tau_cantor_box_dimension():
    spectrum = tau_spectrum(cantor_points(depth=8), scale_grid=[3, 9, 27, 81, 243, 729])
    d0 = spectrum.tau[np.nonzero(np.abs(spectrum.q_grid) <= 1e-9)[0][0]]
    assert d0 == pytest.approx(np.log(2.0) / np.log(3.0), abs=0.02)


def test_tau_requires_enough_scales():
    with pytest.raises(ValueError, match="scales"):
        tau_spectrum(np.linspace(0, 1, 50), scale_grid=[4, 8, 16])
    with pytest.raises(ValueError, match="degenerate"):
        tau_spectrum(np.full(100, 2.0), scale_grid=[4, 8, 16, 32])


def test_tau_rejects_negative_q():
    with pytest.raises(ValueError, match="negative"):
        tau_spectrum(np.linspace(0, 1, 100), q_grid=[-2.0, 2.0], scale_grid=[4, 8, 16, 32])


@pytest.mark.parametrize("q_grid", [[np.nan, 2.0], [np.inf, 2.0], [-np.inf, 2.0], [], [[2.0]]])
def test_non_finite_or_empty_q_grid_rejected(q_grid):
    values = np.linspace(0, 1, 100)
    weights = np.full(64, 1.0 / 64)
    with pytest.raises(ValueError, match="moment orders"):
        tau_spectrum(values, q_grid=q_grid, scale_grid=[4, 8, 16, 32])
    with pytest.raises(ValueError, match="moment orders"):
        analyze_eigenvectors(weights, q_grid=q_grid, partition_grid=[2, 4])
    if len(q_grid) == 2:
        with pytest.raises(ValueError, match="finite"):
            partition_moment([0.5, 0.5], q_grid[0])


@pytest.mark.parametrize("scale_grid, message", [
    ([16, 16, 16, 16], "increasing"),
    ([16, 8, 32, 64], "increasing"),
    ([1, 2, 4, 8], "integers >= 2"),
    ([16.5, 32, 64, 128], "integers >= 2"),
    ([16, 32, np.nan, 128], "integers >= 2"),
    ([16, 32, 64, np.inf], "integers >= 2"),
    ([16, 32, 64, 10**30], "integers >= 2"),
])
def test_degenerate_scale_grid_rejected(scale_grid, message):
    values = np.linspace(0, 1, 4096)
    with pytest.raises(ValueError, match=message):
        tau_spectrum(values, scale_grid=scale_grid)
    with pytest.raises(ValueError, match=message):
        information_dimension(values, scale_grid=scale_grid)


@pytest.mark.parametrize("partition_grid, message", [
    ([2, 4, 100, 200], "exceed the dimension 64"),
    ([2, 2], "increasing"),
    ([4, 2], "increasing"),
    ([1, 2], "integers >= 2"),
    ([2.5, 4], "integers >= 2"),
    ([], "at least 1 scales"),
])
def test_degenerate_partition_grid_rejected(partition_grid, message):
    with pytest.raises(ValueError, match=message):
        analyze_eigenvectors(np.full(64, 1.0 / 64), partition_grid=partition_grid)


def test_partition_count_equal_to_dimension_accepted():
    profile = eigenvector_tau(np.full(8, 1.0 / 8), partition_grid=[2, 4, 8])
    np.testing.assert_allclose(profile.tau_bar, 1.0 - profile.q_grid, atol=1e-12)


def test_default_scale_grid_dense_and_capped():
    grid = default_scale_grid(2001)
    assert grid.min() == 16
    assert grid.max() == 500  # about count/4
    assert grid.size >= 20  # densely sampled in log scale
    assert np.all(np.diff(grid) > 0)
    assert default_scale_grid(5001).max() == 1250


def test_generalized_dimensions_skips_q_one():
    values = np.linspace(0.0, 1.0, 4096)
    spectrum = tau_spectrum(values, q_grid=[0.0, 1.0, 2.0], scale_grid=[16, 32, 64, 128])
    assert np.isnan(dq_at(spectrum, 1.0))
    assert spectrum.skipped_q == (1.0,)
    refilled = generalized_dimensions(spectrum)
    assert dq_at(refilled, 2.0) == pytest.approx(1.0, abs=0.01)


def test_spectrum_d2_uses_the_q_lookup():
    values = np.linspace(0.0, 1.0, 4096)
    spectrum = tau_spectrum(values, q_grid=[0.0, 2.0, 3.0], scale_grid=[16, 32, 64, 128])
    assert spectrum.d2 == dq_at(spectrum, 2.0)
    assert np.isnan(tau_spectrum(values, q_grid=[0.0, 3.0], scale_grid=[16, 32, 64, 128]).d2)


def test_zq_monotonicity_invariants():
    rng = np.random.default_rng(11)
    values = np.sort(rng.normal(size=3000))
    probs = box_probabilities(values, 64).probabilities
    assert partition_moment(probs, 0.0) == np.count_nonzero(probs)
    assert partition_moment(probs, 1.0) == pytest.approx(1.0, abs=1e-12)
    qs = np.linspace(0.0, 9.0, 19)
    moments = [partition_moment(probs, q) for q in qs]
    assert all(a > b for a, b in zip(moments, moments[1:]))


def test_dq_ordering_on_cascade():
    points = cascade_points(p=0.3, depth=12, n_points=2**20)
    spectrum = tau_spectrum(points, q_grid=[2.0, 5.0], scale_grid=[16, 32, 64, 128, 256, 512])
    assert dq_at(spectrum, 2.0) >= dq_at(spectrum, 5.0) - 0.02


def test_information_dimension_uniform():
    assert information_dimension(np.linspace(0, 1, 2**16)) == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# the shared scaling-window search
# ---------------------------------------------------------------------------

def reference_window_fit(x, y, steer):
    """Scalar loop over states, windows and q: the rule of the module docstring."""
    n, n_q, n_states = y.shape
    slope, r2, windows = np.empty((n_q, n_states)), np.empty((n_q, n_states)), []
    for s in range(n_states):
        best = None
        for length in range(min(max(5, -(-n // 2)), n), n + 1):
            for start in range(n - length + 1):
                xw, yw = x[start:start + length], y[start:start + length, :, s]
                fits = [np.polyfit(xw, yw[:, k], 1)[0] for k in range(n_q)]
                r2s = [np.corrcoef(xw, yw[:, k])[0, 1] ** 2 for k in range(n_q)]
                mean_r2 = np.mean(np.asarray(r2s)[steer])
                if best is None or mean_r2 > best[0] + 1e-12 or (
                        abs(mean_r2 - best[0]) <= 1e-12 and length > best[2] - best[1]):
                    best = (mean_r2, start, start + length, fits, r2s)
        _, start, stop, slope[:, s], r2[:, s] = best
        windows.append((start, stop))
    return slope, r2, windows


def test_shared_window_matches_scalar_reference_per_state():
    rng = np.random.default_rng(23)
    x = np.log(np.arange(2.0, 14.0))
    y = np.cumsum(rng.normal(size=(x.size, 4, 6)), axis=0) - 2.0 * x[:, None, None]
    steer = np.array([False, True, True, True])
    slope, r2, start, stop = _shared_window_fit(x, y, steer)
    ref_slope, ref_r2, ref_windows = reference_window_fit(x, y, steer)
    assert list(zip(start.tolist(), stop.tolist())) == ref_windows
    assert len(set(ref_windows)) > 1  # states pick their own windows
    np.testing.assert_allclose(slope, ref_slope, rtol=0, atol=1e-10)
    np.testing.assert_allclose(r2, ref_r2, rtol=0, atol=1e-10)


def test_shared_window_stops_at_kink():
    x = np.arange(9.0)
    y = np.where(x <= 5, -x, -5.0 - 3.0 * (x - 5))  # slope -1, kink at index 5
    slope, r2, start, stop = _shared_window_fit(x, np.stack([y, 2 * y], axis=1)[:, :, None], [True, True])
    assert (start[0], stop[0]) == (0, 6)
    np.testing.assert_allclose(slope[:, 0], [-1.0, -2.0])
    np.testing.assert_allclose(r2[:, 0], 1.0)


def test_shared_window_exact_tie_goes_to_longer_window():
    x = np.arange(10.0)
    # every window fits exactly (R^2 = 1), so each longer window ties and wins
    _, _, start, stop = _shared_window_fit(x, (3.0 * x + 1.0)[:, None, None], [True])
    assert (start[0], stop[0]) == (0, 10)


def test_shared_window_constant_column_fits_flat():
    x = np.log(np.arange(2.0, 12.0))
    y = np.stack([np.full(x.size, 3.7), 3.7 + 1e-14 * np.sin(x), -x], axis=1)[:, None, :]
    slope, r2, _, _ = _shared_window_fit(x, y, [True])
    np.testing.assert_array_equal(slope[0, :2], 0.0)
    np.testing.assert_array_equal(r2[0, :2], 1.0)
    assert slope[0, 2] == pytest.approx(-1.0)


def kinked_cascade():
    """Depth-6 binomial cascade (p = 1/4) spread evenly over 16 sites per cell.

    As weights over 1024 sites and as integer-valued points, its partition and
    box tables coincide: cascade scaling up to 64 cells, uniform beyond.
    """
    cells = 3 ** np.array([bin(k).count("1") for k in range(64)])
    counts = np.repeat(cells, 16)
    return counts / counts.sum(), np.repeat(np.arange(counts.size), counts).astype(float)


def test_tau_spectrum_reports_window_before_kink():
    _, values = kinked_cascade()
    q = np.array([0.0, 2.0, 3.0, 5.0, 8.0])
    spectrum = tau_spectrum(values, q_grid=q, scale_grid=[2, 4, 8, 16, 32, 64, 128, 256, 512])
    assert spectrum.fit_windows == ((0, 6),) * q.size
    np.testing.assert_allclose(spectrum.tau, np.log2(0.25**q + 0.75**q), atol=1e-12)


def test_spectrum_and_eigenvector_fits_agree_on_same_table():
    weights, values = kinked_cascade()
    q = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
    grid = [2, 4, 8, 16, 32, 64, 128, 256, 512]
    spectrum = tau_spectrum(values, q_grid=q, scale_grid=grid)
    profile = eigenvector_tau(weights, q_grid=q, partition_grid=grid)
    np.testing.assert_allclose(profile.tau_bar, spectrum.tau, rtol=0, atol=1e-12)
    np.testing.assert_allclose(profile.fit_r2, spectrum.fit_r2, rtol=0, atol=1e-12)
    assert profile.mu_bar == pytest.approx(spectrum.mu, abs=1e-12)


# ---------------------------------------------------------------------------
# participation ratio and eigenvector profiles
# ---------------------------------------------------------------------------

def test_participation_ratio_limits():
    basis = np.zeros(50)
    basis[7] = 1.0
    assert participation_ratio(basis) == pytest.approx(1.0)
    assert participation_ratio(np.full(64, 1.0 / 64.0)) == pytest.approx(64.0)
    two = np.zeros(10)
    two[2] = two[9] = 0.5
    assert participation_ratio(two) == pytest.approx(2.0)


def test_participation_ratio_permutation_invariant():
    rng = np.random.default_rng(3)
    w = rng.random(40)
    w /= w.sum()
    assert participation_ratio(w) == pytest.approx(participation_ratio(w[::-1]))


def test_participation_ratio_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        participation_ratio(np.full(10, 0.2))


def test_eigenvector_tau_uniform_weights():
    d = 1024
    profile = eigenvector_tau(np.full(d, 1.0 / d))
    assert np.all(np.abs(profile.d_bar[~np.isnan(profile.d_bar)] - 1.0) <= 0.02)
    assert profile.pr == pytest.approx(d)


def test_eigenvector_tau_localized_weights():
    d = 1024
    w = np.zeros(d)
    w[100] = 1.0
    profile = eigenvector_tau(w)
    assert np.all(np.abs(profile.d_bar[~np.isnan(profile.d_bar)]) <= 0.02)
    assert abs(profile.mu_bar) <= 0.02
    assert profile.pr == pytest.approx(1.0)


def test_eigenvector_tau_cascade_matches_analytic(cascade12):
    weights, q28, analytic = cascade12
    profile = eigenvector_tau(weights, q_grid=q28,
                              partition_grid=[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    rel = np.abs(profile.tau_bar - analytic) / np.abs(analytic)
    assert np.max(rel) <= 0.02
    # anchors: D2 = -tau2, D5 = -tau5/4
    assert profile.d2 == pytest.approx(-profile.tau_bar[0])
    i5 = np.nonzero(np.abs(q28 - 5.0) <= 1e-9)[0][0]
    assert profile.d5 == pytest.approx(-profile.tau_bar[i5] / 4.0)


def test_eigenvector_tau_positional_not_permutation_invariant():
    # one contiguous block versus the same weights spread evenly: identical PR,
    # very different positional partition scaling
    d = 1024
    clustered = np.zeros(d)
    clustered[:32] = 1.0 / 32.0
    spread = np.zeros(d)
    spread[::32] = 1.0 / 32.0
    a = eigenvector_tau(clustered)
    b = eigenvector_tau(spread)
    assert participation_ratio(clustered) == pytest.approx(participation_ratio(spread))
    i2 = np.nonzero(np.abs(a.q_grid - 2.0) <= 1e-9)[0][0]
    assert abs(a.tau_bar[i2] - b.tau_bar[i2]) > 0.05


def test_eigenvector_tau_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        eigenvector_tau(np.full(16, 0.9 / 16.0))


def test_analyze_eigenvectors_matches_single():
    rng = np.random.default_rng(17)
    weights = rng.random((200, 3))
    weights /= weights.sum(axis=0)
    profiles = analyze_eigenvectors(weights)
    for col in range(3):
        single = eigenvector_tau(weights[:, col])
        assert np.allclose(single.tau_bar, profiles[col].tau_bar)
        assert single.pr == pytest.approx(profiles[col].pr)


def test_analyze_eigenvectors_layout_independent_without_copies():
    rng = np.random.default_rng(23)
    weights = rng.random((300, 40))
    weights /= weights.sum(axis=0)
    by_rows = analyze_eigenvectors(np.ascontiguousarray(weights))
    columns = np.asfortranarray(weights)
    by_columns = analyze_eigenvectors(columns)
    for a, b in zip(by_rows, by_columns):
        np.testing.assert_array_equal(a.tau_bar, b.tau_bar)
        assert a.pr == b.pr and a.mu_bar == b.mu_bar
    # a column-major input is analyzed in place: profiles hold views of it
    assert all(np.shares_memory(p.weights, columns) for p in by_columns)


def test_default_partition_grid_powers_of_two():
    # capped so that cells keep at least ~8 components
    assert default_partition_grid(2001).tolist() == [2, 4, 8, 16, 32, 64, 128]
    assert default_partition_grid(256).tolist() == [2, 4, 8, 16, 32]


def test_default_partition_grid_never_exceeds_dimension():
    assert default_partition_grid(2).tolist() == [2]
    assert default_partition_grid(3).tolist() == [2]
    assert default_partition_grid(4).tolist() == [2, 4]
    assert default_partition_grid(1).tolist() == []
    with pytest.raises(ValueError, match="scales"):
        analyze_eigenvectors(np.ones((1, 1)))


def test_uneven_partitions_cover_all_components():
    from kickedspec.multifractal import _partition_starts
    starts = _partition_starts(10, 4)
    assert starts.tolist() == [0, 3, 6, 8]  # sizes 3,3,2,2


# ---------------------------------------------------------------------------
# ensembles and histograms
# ---------------------------------------------------------------------------

def test_ensemble_statistics_delta_peaked():
    w = np.zeros(128)
    w[5] = 1.0
    profiles = analyze_eigenvectors(np.tile(w[:, None], (1, 7)))
    stats = ensemble_statistics(profiles, n_bins=10)
    assert stats["count"] == 7
    assert stats["pr"]["mean"] == pytest.approx(1.0)
    assert stats["pr"]["variance"] == pytest.approx(0.0)
    assert sum(1 for v in stats["d2"]["histogram"] if v > 0) == 1
    assert stats["pr"]["fraction_below"]["20.0"] == 1.0
    assert stats["d2"]["fraction_below"]["0.05"] == 1.0


def test_ensemble_statistics_requires_profiles():
    with pytest.raises(ValueError, match="at least one"):
        ensemble_statistics([])


def test_spectral_histogram_flat_and_windowed():
    values = np.linspace(0.0, 1.0, 10001)
    table = spectral_histogram(values, 20)
    assert np.allclose(table["density"], 1.0, atol=0.05)
    zoom = spectral_histogram(values, 10, window=(0.25, 0.5))
    assert np.allclose(zoom["density"], 4.0, atol=0.2)
    with pytest.raises(ValueError, match="window"):
        spectral_histogram(values, 10, window=(2.0, 3.0))


def test_spectral_histogram_zero_in_gap():
    values = np.concatenate([np.linspace(0, 1, 500), np.linspace(3, 4, 500)])
    table = spectral_histogram(values, 40)
    edges = np.asarray(table["bin_edges"])
    centers = (edges[:-1] + edges[1:]) / 2.0
    in_gap = (centers > 1.2) & (centers < 2.8)
    assert np.allclose(np.asarray(table["density"])[in_gap], 0.0)


def test_spectral_histogram_deterministic():
    values = np.linalg.eigvalsh(np.diag(2.0 * np.cos(2 * np.pi * 0.618 * np.arange(1, 201)))
                                + np.diag(np.ones(199), 1) + np.diag(np.ones(199), -1))
    a = spectral_histogram(values, 64)
    b = spectral_histogram(values, 64)
    assert a == b
