import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import cantor_points, cascade_points
from kickedspec.multifractal import (
    analyze_eigenvectors,
    box_probabilities,
    default_partition_grid,
    default_scale_grid,
    ensemble_statistics,
    tau_spectrum,
)
from kickedspec.multifractal import DEFAULT_Q_GRID, _moments, _q_values, _shared_window_fit


def dq_at(spectrum, q):
    idx = np.nonzero(np.abs(spectrum.q_grid - q) <= 1e-9)[0][0]
    return spectrum.dq[idx]


def dirichlet_weights(dim, n_states, concentration, seed):
    """Column-major dim x n_states weights, each column a Dirichlet sample."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(dim, concentration), size=n_states).T


# ---------------------------------------------------------------------------
# box probabilities and moments
# ---------------------------------------------------------------------------

def test_box_probabilities_two_values():
    assert np.allclose(box_probabilities([0.0, 1.0], 2), [0.5, 0.5])


def test_box_probabilities_uniform_grid():
    values = np.linspace(0.0, 1.0, 1000)
    assert np.allclose(box_probabilities(values, 10), 0.1)


def test_box_probabilities_rightmost_bin_closed():
    assert np.allclose(box_probabilities([0.0, 0.5, 1.0], 2), [1.0 / 3.0, 2.0 / 3.0])


def test_box_probabilities_range_too_narrow_for_the_bins():
    # numpy cannot split a range of two subnormals into 16 finite-sized bins
    with pytest.raises(FloatingPointError, match="cannot split"):
        box_probabilities([0.0, 5e-324], 16)


def test_box_probabilities_validation():
    with pytest.raises(ValueError, match="degenerate"):
        box_probabilities([1.0, 1.0, 1.0], 4)
    with pytest.raises(ValueError, match="bins"):
        box_probabilities([0.0, 1.0], 1)
    with pytest.raises(ValueError, match="two values"):
        box_probabilities([1.0], 4)


def test_cantor_occupied_bins_follow_construction():
    values = cantor_points(depth=8)
    for k in (1, 2, 3, 4, 5):
        probs = box_probabilities(values, 3**k)
        assert np.count_nonzero(probs) == 2**k


def partition_moments(probs, q_grid) -> np.ndarray:
    """Z_q of one probability vector for each q of the grid."""
    return _moments(np.asarray(probs, dtype=float).reshape(-1, 1), _q_values(q_grid))[:, 0]


def test_partition_moment_properties():
    probs = np.array([0.5, 0.25, 0.25, 0.0])
    assert partition_moments(probs, [0.0]) == 3.0
    assert partition_moments(probs, [1.0]) == pytest.approx(1.0)
    moments = partition_moments(probs, [0.0, 0.5, 2.0, 3.0, 8.0])
    assert all(a > b for a, b in zip(moments, moments[1:]))
    with pytest.raises(ValueError, match="negative"):
        partition_moments(probs, [-1.0])


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


def test_underflowing_moment_sum_is_a_floating_point_error():
    # every p^q underflows at q = 1e300, so log Z_q is -inf; spectra and
    # eigenvectors share the fit, and neither warns on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^Z_q underflows to 0 at q = 1e\+300$"):
            tau_spectrum(np.linspace(0.0, 1.0, 200) ** 2, q_grid=[0, 2, 1e300])
        with pytest.raises(FloatingPointError, match=r"^Z_q underflows to 0 at q = 900.0, 1e\+300$"):
            analyze_eigenvectors(np.full((64, 2), 1.0 / 64), q_grid=[0, 2, 900, 1e300])


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
            partition_moments([0.5, 0.5], q_grid[:1])


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
    table = analyze_eigenvectors(np.full(8, 1.0 / 8), partition_grid=[2, 4, 8])
    np.testing.assert_allclose(table.tau_bar[:, 0], 1.0 - table.q_grid, atol=1e-12)


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
    assert dq_at(spectrum, 2.0) == pytest.approx(1.0, abs=0.01)


def test_spectrum_d2_uses_the_q_lookup():
    values = np.linspace(0.0, 1.0, 4096)
    spectrum = tau_spectrum(values, q_grid=[0.0, 2.0, 3.0], scale_grid=[16, 32, 64, 128])
    assert spectrum.d2 == dq_at(spectrum, 2.0)
    assert np.isnan(tau_spectrum(values, q_grid=[0.0, 3.0], scale_grid=[16, 32, 64, 128]).d2)


def test_zq_monotonicity_invariants():
    rng = np.random.default_rng(11)
    values = np.sort(rng.normal(size=3000))
    probs = box_probabilities(values, 64)
    assert partition_moments(probs, [0.0]) == np.count_nonzero(probs)
    assert partition_moments(probs, [1.0]) == pytest.approx(1.0, abs=1e-12)
    qs = np.linspace(0.0, 9.0, 19)
    moments = partition_moments(probs, qs)
    assert all(a > b for a, b in zip(moments, moments[1:]))


def reference_moments(parts, q_grid):
    """Z_q by one `**` per q: the plain definition."""
    cells = np.where(parts > 0.0, parts, 0.0)
    return np.array([np.count_nonzero(cells, axis=0) if q == 0 else np.sum(cells**q, axis=0)
                     for q in q_grid], dtype=float)


def moment_tables(cascade_weights):
    """cells x states tables: a cascade, Dirichlet weights, and weights with
    empty (zero or slightly negative) cells and one empty state."""
    dirichlet = dirichlet_weights(300, 40, 0.3, seed=7)
    sparse = dirichlet.copy()
    sparse[::3] = 0.0
    sparse[1::7] = -1e-13
    sparse[:, 5] = 0.0
    return [cascade_weights.reshape(-1, 1), cascade_weights.reshape(64, 64), dirichlet, sparse]


def test_incremental_moments_match_powers(cascade12):
    q_grid = np.asarray(DEFAULT_Q_GRID + (0.5, 4.0))  # unsorted and repeated entries too
    for parts in moment_tables(cascade12[0]):
        got, want = _moments(parts, q_grid), reference_moments(parts, q_grid)
        np.testing.assert_array_equal(got[q_grid == 0], want[q_grid == 0])  # Z_0 counts exactly
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("q_grid", [(0.3, 2.0, 2.25), (2.0, 10.5)])
def test_moments_off_the_half_step_grid_use_powers(cascade12, q_grid):
    # not all multiples of 1/2, or beyond q = 10: one `**` per q, bitwise
    for parts in moment_tables(cascade12[0]):
        np.testing.assert_array_equal(_moments(parts, q_grid), reference_moments(parts, q_grid))


def test_dq_ordering_on_cascade():
    points = cascade_points(p=0.3, depth=12, n_points=2**20)
    spectrum = tau_spectrum(points, q_grid=[2.0, 5.0], scale_grid=[16, 32, 64, 128, 256, 512])
    assert dq_at(spectrum, 2.0) >= dq_at(spectrum, 5.0) - 0.02


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
    table = analyze_eigenvectors(weights, q_grid=q, partition_grid=grid)
    np.testing.assert_allclose(table.tau_bar[:, 0], spectrum.tau, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.fit_r2[:, 0], spectrum.fit_r2, rtol=0, atol=1e-12)
    assert table.mu_bar[0] == pytest.approx(spectrum.mu, abs=1e-12)


# ---------------------------------------------------------------------------
# participation ratio and single eigenvectors
# ---------------------------------------------------------------------------

def test_participation_ratio_limits():
    basis = np.zeros(50)
    basis[7] = 1.0
    assert analyze_eigenvectors(basis).pr[0] == pytest.approx(1.0)
    assert analyze_eigenvectors(np.full(64, 1.0 / 64.0)).pr[0] == pytest.approx(64.0)
    two = np.zeros(10)
    two[2] = two[9] = 0.5
    assert analyze_eigenvectors(two).pr[0] == pytest.approx(2.0)


def test_participation_ratio_permutation_invariant():
    rng = np.random.default_rng(3)
    w = rng.random(40)
    w /= w.sum()
    assert analyze_eigenvectors(w).pr[0] == pytest.approx(analyze_eigenvectors(w[::-1]).pr[0])


def test_participation_ratio_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        analyze_eigenvectors(np.full(10, 0.2))


@pytest.mark.parametrize("weights", [np.full((8, 1), np.nan), np.array([[0.5], [np.nan], [0.25], [0.25]])])
def test_nan_weights_are_rejected_without_warning(weights):
    # NaN fails both weight checks instead of slipping through as PR nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weights must"):
            analyze_eigenvectors(weights, partition_grid=[2, 4])
        with pytest.raises(ValueError, match="weights must"):
            analyze_eigenvectors(weights[:, 0], partition_grid=[2, 4])


def test_eigenvector_tau_uniform_weights():
    d = 1024
    table = analyze_eigenvectors(np.full(d, 1.0 / d))
    assert np.all(np.abs(table.d_bar[~np.isnan(table.d_bar)] - 1.0) <= 0.02)
    assert table.pr[0] == pytest.approx(d)


def test_eigenvector_tau_localized_weights():
    d = 1024
    w = np.zeros(d)
    w[100] = 1.0
    table = analyze_eigenvectors(w)
    assert np.all(np.abs(table.d_bar[~np.isnan(table.d_bar)]) <= 0.02)
    assert abs(table.mu_bar[0]) <= 0.02
    assert table.pr[0] == pytest.approx(1.0)


def test_eigenvector_tau_cascade_matches_analytic(cascade12):
    weights, q28, analytic = cascade12
    table = analyze_eigenvectors(weights, q_grid=q28,
                                 partition_grid=[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    tau_bar = table.tau_bar[:, 0]
    rel = np.abs(tau_bar - analytic) / np.abs(analytic)
    assert np.max(rel) <= 0.02
    # anchors: D2 = -tau2, D5 = -tau5/4
    assert table.d2[0] == pytest.approx(-tau_bar[0])
    i5 = np.nonzero(np.abs(q28 - 5.0) <= 1e-9)[0][0]
    assert table.d5[0] == pytest.approx(-tau_bar[i5] / 4.0)


def test_eigenvector_tau_positional_not_permutation_invariant():
    # one contiguous block versus the same weights spread evenly: identical PR,
    # very different positional partition scaling
    d = 1024
    clustered = np.zeros(d)
    clustered[:32] = 1.0 / 32.0
    spread = np.zeros(d)
    spread[::32] = 1.0 / 32.0
    a = analyze_eigenvectors(clustered)
    b = analyze_eigenvectors(spread)
    assert a.pr[0] == pytest.approx(b.pr[0])
    i2 = np.nonzero(np.abs(a.q_grid - 2.0) <= 1e-9)[0][0]
    assert abs(a.tau_bar[i2, 0] - b.tau_bar[i2, 0]) > 0.05


def test_eigenvector_tau_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        analyze_eigenvectors(np.full(16, 0.9 / 16.0))


def test_analyze_eigenvectors_matches_single():
    rng = np.random.default_rng(17)
    weights = rng.random((200, 3))
    weights /= weights.sum(axis=0)
    table = analyze_eigenvectors(weights)
    assert len(table) == 3
    for col in range(3):
        single, state = analyze_eigenvectors(weights[:, col]), table[col]
        assert len(state) == 1
        assert state.q_grid is table.q_grid
        assert state.partition_grid is table.partition_grid
        np.testing.assert_array_equal(state.pr, single.pr)
        for name in ("tau_bar", "d_bar", "fit_r2", "mu_bar"):
            np.testing.assert_allclose(getattr(state, name), getattr(single, name), rtol=1e-12, atol=1e-12)
    # the d2 / d5 columns are the per-state values
    assert table.d2.tolist() == [table[col].d2[0] for col in range(3)]
    assert table.d5.tolist() == [table[col].d5[0] for col in range(3)]
    for name in ("pr", "tau_bar", "d_bar", "mu_bar", "fit_r2"):
        np.testing.assert_array_equal(getattr(table[-1], name), getattr(table[2], name))
    with pytest.raises(IndexError):
        table[len(table)]


def test_analyze_eigenvectors_layout_independent_without_copies():
    rng = np.random.default_rng(23)
    weights = rng.random((300, 40))
    weights /= weights.sum(axis=0)
    by_rows = analyze_eigenvectors(np.ascontiguousarray(weights))
    columns = np.asfortranarray(weights)
    by_columns = analyze_eigenvectors(columns)
    for name in ("pr", "tau_bar", "d_bar", "mu_bar", "fit_r2"):
        np.testing.assert_array_equal(getattr(by_rows, name), getattr(by_columns, name))


def peak_allocation(func, *args) -> int:
    """Peak bytes allocated (as traced by tracemalloc) while func(*args) runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_eigenvectors_allocates_no_weight_sized_temporary():
    # a column-major input is analyzed in place: no copy of the weights and
    # no squared or clipped dim x n_states table
    weights = dirichlet_weights(1024, 1024, 0.5, seed=31)
    assert weights.flags.f_contiguous
    assert peak_allocation(analyze_eigenvectors, weights) < 0.75 * weights.nbytes


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
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_statistics_delta_peaked():
    w = np.zeros(128)
    w[5] = 1.0
    table = analyze_eigenvectors(np.tile(w[:, None], (1, 7)))
    stats = ensemble_statistics(table, n_bins=10)
    assert stats["count"] == 7
    assert stats["pr"]["mean"] == pytest.approx(1.0)
    assert stats["pr"]["variance"] == pytest.approx(0.0)
    assert sum(1 for v in stats["d2"]["histogram"] if v > 0) == 1
    assert stats["pr"]["fraction_below"]["20.0"] == 1.0
    assert stats["d2"]["fraction_below"]["0.05"] == 1.0


def test_ensemble_statistics_requires_profiles():
    with pytest.raises(ValueError, match="at least one"):
        ensemble_statistics([])

