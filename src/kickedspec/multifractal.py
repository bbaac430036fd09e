"""Box-counting multifractal analysis of spectra and eigenvector profiles.

Conventions: the q-th moment partition function Z_q(N) over N equal-width
bins is regressed against log N, so a space-filling (uniform) measure gives
tau_q = 1 - q and generalized dimension D_q = tau_q/(1-q) = 1, while a point
mass gives tau_q = 0 and D_q = 0.  Slopes mu of tau_q versus q are fitted
over q in [2, 8].  Negative q is unsupported (empty bins would dominate).

Spectra and eigenvectors take one path from measure to exponents.  A caller
partitions its data at each count N (equal-width bins of one spectrum, or
contiguous positional cells of many eigenvectors) into a cells x states
table; `_moments` turns each table into Z_q for every q and state;
`_scaling_fit` fits log Z_q against log N and derives D_q (`_dimensions`,
NaN at q = 1) and mu.  `_q_values` and `_counts` validate the q grid and the
count grid on the way in.

Quasiperiodic spectra produce log-periodically wobbling Z_q(N); the scaling
fits therefore sample scales densely in log N and use one shared window of at
least half the scale points (never fewer than five), picked by the mean R^2
of the per-q fits over the q in [2, 8].  Short windows latched onto a lucky
stretch of the wobble otherwise make tau_q estimates irreproducible between
nearly identical spectra.

One window search serves spectra, eigenvector tables and the mu slopes.
Windows are scanned shortest first; a window replaces the best so far only
if its mean R^2 is higher by more than 1e-12, or within 1e-12 and longer.
A column whose centred sum of squares is at most 1e-24 (absolute) is a
constant fit: slope 0, R^2 1.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_Q_GRID = tuple(0.5 * k for k in range(21) if k != 2)  # 0, 0.5, 1.5, ..., 10
MU_FIT_RANGE = (2.0, 8.0)
MIN_FIT_POINTS = 5
_Q_ONE_TOL = 1e-9
_MAX_HALF_STEPS = 20  # p^q by repeated multiplication up to q = 10: at most ~20 roundings
_PR_BLOCK = 256  # states per block of squared weights in the participation ratio
# ensemble_statistics: fraction of states below each threshold
PR_THRESHOLDS = (20.0,)
D_THRESHOLDS = (0.05,)
MU_THRESHOLDS = ()


def box_probabilities(values, n_bins: int) -> np.ndarray:
    """Histogram values into n_bins equal-width bins and normalize to probabilities.

    Bins cover [min, max]; the rightmost bin is closed on both sides.
    """
    values = np.asarray(values, dtype=float).ravel()
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    if values.size < 2:
        raise ValueError("need at least two values")
    lo, hi = float(values.min()), float(values.max())
    if not hi > lo:
        raise ValueError("degenerate range: all values identical")
    try:
        counts, _ = np.histogram(values, bins=int(n_bins), range=(lo, hi))
    except ValueError as exc:  # a range too narrow, or too wide, for n_bins finite-sized bins
        raise FloatingPointError(f"cannot split the values' range [{lo!r}, {hi!r}] into {n_bins} bins") from exc
    return counts.astype(float) / values.size


def _q_values(q_grid) -> np.ndarray:
    """The q grid as floats (DEFAULT_Q_GRID if None): finite and non-negative."""
    q = np.asarray(DEFAULT_Q_GRID if q_grid is None else q_grid, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("need a non-empty list of moment orders")
    if not np.all(np.isfinite(q)):
        raise ValueError("moment orders must be finite")
    if np.any(q < 0):
        raise ValueError("negative moments are not supported")
    return q


def _counts(grid, min_scales: int, max_count=None) -> np.ndarray:
    """Bin or partition counts: at least min_scales integers >= 2 (and at most
    max_count), strictly increasing."""
    counts = np.asarray(grid, dtype=float)
    if counts.ndim != 1 or counts.size < min_scales:
        raise ValueError(f"need at least {min_scales} scales, got {counts.size}")
    if not np.all((counts == np.round(counts)) & (counts >= 2) & (counts < 2.0**63)):
        raise ValueError(f"scale counts must be 64-bit integers >= 2, got {np.asarray(grid).tolist()}")
    if np.any(np.diff(counts) <= 0):
        raise ValueError(f"scale counts must be strictly increasing, got {np.asarray(grid).tolist()}")
    if max_count is not None and counts[-1] > max_count:
        raise ValueError(f"partition counts must not exceed the dimension {max_count}, got {counts[-1]:.0f}")
    return counts.astype(int)


def _moments(parts, q_grid) -> np.ndarray:
    """Z_q of a cells x states table, shape (n_q, n_states): the sum of p^q
    over occupied cells (p > 0); Z_0 is the number of occupied cells.

    When every q is a multiple of 1/2 up to 10 (DEFAULT_Q_GRID is), p^q is
    sqrt(p)^(2q), built by one multiplication per half step while q is
    visited in ascending order; any other grid takes one `**` per q.
    """
    cells = np.where(parts > 0.0, parts, 0.0)
    z = np.empty((len(q_grid), cells.shape[1]))
    half_steps = 2.0 * np.asarray(q_grid, dtype=float)
    if np.all(half_steps == np.round(half_steps)) and half_steps.max() <= _MAX_HALF_STEPS:
        root = np.sqrt(cells, out=cells)
        power, done = np.ones_like(root), 0
        for i in np.argsort(half_steps, kind="stable"):
            for _ in range(done, int(half_steps[i])):
                np.multiply(power, root, out=power)
            done = int(half_steps[i])
            z[i] = np.count_nonzero(root, axis=0) if done == 0 else np.sum(power, axis=0)
        return z
    for i, q in enumerate(q_grid):
        z[i] = np.count_nonzero(cells, axis=0) if q == 0 else np.sum(cells**q, axis=0)
    return z


def _min_window(n_scales: int) -> int:
    return min(max(MIN_FIT_POINTS, -(-n_scales // 2)), n_scales)


def _q_range_mask(q_grid) -> np.ndarray:
    q = np.asarray(q_grid, dtype=float)
    return (q >= MU_FIT_RANGE[0] - 1e-12) & (q <= MU_FIT_RANGE[1] + 1e-12)


def _window_q_mask(q_grid) -> np.ndarray:
    """q entries steering the window choice: those in the mu-fit range if any."""
    mask = _q_range_mask(q_grid)
    return mask if np.any(mask) else np.ones_like(mask, dtype=bool)


def _shared_window_fit(x, y, q_mask, min_len=None):
    """Least-squares slopes of y against x inside each state's best window.

    y has shape (n_scales, n_q, n_states).  Every contiguous window of at
    least min_len points (default: half the scales, >= 5) is scanned; each
    state keeps the window maximizing its mean R^2 over the q_mask columns,
    ties going to the longer window.  Returns (slope, r2, start, stop): the
    first two of shape (n_q, n_states), the window bounds (stop exclusive)
    of shape (n_states,).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, n_q, n_states = y.shape
    slope = np.zeros((n_q, n_states))
    r2 = np.ones((n_q, n_states))
    best_r2m = np.full(n_states, -1.0)
    best_start = np.zeros(n_states, dtype=int)
    best_len = np.zeros(n_states, dtype=int)
    for length in range(_min_window(n) if min_len is None else min_len, n + 1):
        for start in range(0, n - length + 1):
            xw, yw = x[start:start + length], y[start:start + length]
            xc = xw - xw.mean()
            yc = yw - yw.mean(axis=0)
            sxx = float(np.dot(xc, xc))
            syy = np.einsum("iqs,iqs->qs", yc, yc)
            sxy = np.einsum("i,iqs->qs", xc, yc)
            flat = syy <= 1e-24
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = np.where(flat, 0.0, sxy / sxx)
                r2s = np.where(flat, 1.0, np.clip(sxy**2 / (sxx * syy), 0.0, 1.0))
            mean_r2 = r2s[q_mask].mean(axis=0)
            better = (mean_r2 > best_r2m + 1e-12) | ((np.abs(mean_r2 - best_r2m) <= 1e-12) & (length > best_len))
            slope[:, better] = slopes[:, better]
            r2[:, better] = r2s[:, better]
            best_r2m = np.where(better, mean_r2, best_r2m)
            best_start = np.where(better, start, best_start)
            best_len = np.where(better, length, best_len)
    return slope, r2, best_start, best_start + best_len


def _slopes_over_q(q_grid, tau):
    """mu: slope of tau_q (shape (n_q, n_states)) versus q over MU_FIT_RANGE."""
    mask = _q_range_mask(q_grid)
    n_mu = int(np.count_nonzero(mask))
    if n_mu < 2:
        return np.full(tau.shape[1], np.nan)
    q = np.asarray(q_grid, dtype=float)[mask]
    return _shared_window_fit(q, tau[mask][:, np.newaxis, :], [True], min_len=n_mu)[0][0]


def _skipped_q(q_grid) -> tuple:
    return tuple(float(v) for v in q_grid if abs(v - 1.0) <= _Q_ONE_TOL)


def _dimensions(q_grid, tau) -> np.ndarray:
    """D_q = tau_q / (1 - q) for tau of shape (n_q,) or (n_q, n_states); NaN at q = 1."""
    q = np.asarray(q_grid, dtype=float)
    denominator = np.where(np.abs(q - 1.0) <= _Q_ONE_TOL, np.nan, 1.0 - q)
    return tau / denominator.reshape(q.shape + (1,) * (np.ndim(tau) - 1))


def _scaling_fit(counts, measures, q_grid):
    """Fit log Z_q against log N for cells x states tables, one per count N.

    Returns tau and R^2 (shape (n_q, n_states)), each state's window bounds
    (start, stop), D_q and mu.  FloatingPointError names every q at which
    some Z_q underflows to 0 (p^q of every cell does), so log Z_q is -inf.
    """
    with np.errstate(divide="ignore"):
        log_z = np.stack([np.log(_moments(parts, q_grid)) for parts in measures])
    underflow = np.asarray(q_grid)[~np.all(np.isfinite(log_z), axis=(0, 2))]
    if underflow.size:
        raise FloatingPointError(f"Z_q underflows to 0 at q = {', '.join(map(repr, underflow.tolist()))}")
    tau, r2, start, stop = _shared_window_fit(np.log(counts.astype(float)), log_z, _window_q_mask(q_grid))
    return tau, r2, start, stop, _dimensions(q_grid, tau), _slopes_over_q(q_grid, tau)


@dataclass(frozen=True)
class ScalingSpectrum:
    """tau_q and D_q with per-q fit diagnostics.

    dq is NaN where q = 1 (flagged in skipped_q); mu is the slope of tau_q
    versus q over [2, 8]; fit_windows holds the (start, stop) scale-index
    window used for each q.
    """

    q_grid: np.ndarray
    tau: np.ndarray
    dq: np.ndarray
    fit_r2: np.ndarray
    scale_grid: np.ndarray
    fit_windows: tuple
    mu: float
    skipped_q: tuple = ()

    @property
    def d2(self) -> float:
        """D_2, NaN if q = 2 is not on the grid."""
        return float(_at_q(self.q_grid, self.dq, 2.0))


def default_scale_grid(n_values: int) -> np.ndarray:
    """Up to 32 bin counts, evenly spaced in log scale from 16 up to ~n_values/4.

    Box counts of quasiperiodic spectra oscillate around their scaling law;
    dense sampling lets the least-squares fit average the oscillation.
    """
    cap = max(n_values // 4, 64)
    grid = np.unique(np.round(np.geomspace(16, cap, 32)).astype(int))
    return grid


def tau_spectrum(values, q_grid=None, scale_grid=None) -> ScalingSpectrum:
    """Box-counting scaling exponents tau_q of a set of real values.

    For each bin count N in scale_grid, Z_q(N) comes from the box
    probabilities; tau_q is the slope of log Z_q against log N inside the
    shared detected linear region.
    """
    values = np.asarray(values, dtype=float).ravel()
    q_grid = _q_values(q_grid)
    scale_grid = _counts(default_scale_grid(values.size) if scale_grid is None else scale_grid, 4)
    boxes = (box_probabilities(values, int(n_bins)) for n_bins in scale_grid)
    measures = (probs[probs > 0.0, np.newaxis] for probs in boxes)  # occupied boxes, summed in bin order
    tau, r2, start, stop, dq, mu = _scaling_fit(scale_grid, measures, q_grid)
    return ScalingSpectrum(
        q_grid=q_grid,
        tau=tau[:, 0],
        dq=dq[:, 0],
        fit_r2=r2[:, 0],
        scale_grid=scale_grid,
        fit_windows=((int(start[0]), int(stop[0])),) * q_grid.size,
        mu=float(mu[0]),
        skipped_q=_skipped_q(q_grid),
    )


# ---------------------------------------------------------------------------
# Eigenvector tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvectorTable:
    """Localization and scaling diagnostics of many eigenvectors, as arrays.

    pr and mu_bar have shape (n_states,); tau_bar, d_bar and fit_r2 have
    shape (n_q, n_states), one row per entry of q_grid.  `len(table)` is the
    number of states, and `table[s]` is the one-state table of state s
    (column s of every array, the same q_grid and partition_grid).
    """

    pr: np.ndarray
    q_grid: np.ndarray
    tau_bar: np.ndarray
    d_bar: np.ndarray
    mu_bar: np.ndarray
    fit_r2: np.ndarray
    partition_grid: np.ndarray

    def __len__(self) -> int:
        return self.pr.size

    def __getitem__(self, s: int) -> "EigenvectorTable":
        s = range(len(self))[s]  # negative indices count from the end; IndexError past it
        column = slice(s, s + 1)
        return EigenvectorTable(pr=self.pr[column], q_grid=self.q_grid, tau_bar=self.tau_bar[:, column],
                                d_bar=self.d_bar[:, column], mu_bar=self.mu_bar[column],
                                fit_r2=self.fit_r2[:, column], partition_grid=self.partition_grid)

    @property
    def d2(self) -> np.ndarray:
        """D_bar_2 of every state, NaN if q = 2 is not on the grid."""
        return _at_q(self.q_grid, self.d_bar, 2.0)

    @property
    def d5(self) -> np.ndarray:
        """D_bar_5 of every state, NaN if q = 5 is not on the grid."""
        return _at_q(self.q_grid, self.d_bar, 5.0)


def _at_q(q_grid, values, q: float):
    """The row of values (shape (n_q, ...)) at q on the grid, NaN where q is absent."""
    idx = np.nonzero(np.abs(np.asarray(q_grid) - q) <= 1e-9)[0]
    return values[idx[0]] if idx.size else np.full(values.shape[1:], np.nan)


def default_partition_grid(dim: int) -> np.ndarray:
    """Partition counts 2, 4, ... capped so cells keep at least ~8 components
    (and never more partitions than components).

    Cells wider than typical localization lengths keep strongly localized
    states at flat scaling (D_bar ~ 0) instead of probing their interior.
    """
    cap = min(max(dim // 8, 4), dim)
    grid = []
    m = 2
    while m <= cap:
        grid.append(m)
        m *= 2
    return np.asarray(grid, dtype=int)


def _partition_starts(dim: int, n_parts: int) -> np.ndarray:
    """Start indices of n_parts contiguous near-equal blocks covering dim slots."""
    sizes = np.full(n_parts, dim // n_parts, dtype=int)
    sizes[: dim % n_parts] += 1
    starts = np.zeros(n_parts, dtype=int)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


def analyze_eigenvectors(weight_columns, q_grid=None, partition_grid=None) -> EigenvectorTable:
    """EigenvectorTable of the columns of a (dim x n_states) weight matrix; a
    single weight vector of shape (dim,) gives a one-state table.

    Each column must be non-negative and sum to 1; its PR is 1 / sum(w^2),
    the effective number of supporting basis states.  Weights are grouped
    into M contiguous positional partitions for each M in partition_grid,
    and sum(p~^q) is regressed against log M inside each state's shared
    linear region, giving tau_bar_q = (1-q) D_bar_q, so D_bar_2 = -tau_bar_2
    and D_bar_5 = -tau_bar_5/4.
    """
    weights = np.asarray(weight_columns, dtype=float)
    if weights.ndim == 1:
        weights = weights[:, np.newaxis]
    dim, n_states = weights.shape
    q_grid = _q_values(q_grid)
    partition_grid = _counts(default_partition_grid(dim) if partition_grid is None else partition_grid, 1, dim)
    # written so that NaN fails: every comparison with NaN is False
    if not np.all(weights >= -1e-12):
        raise ValueError("weights must be non-negative")
    if not np.all(np.abs(weights.sum(axis=0) - 1.0) <= 1e-8):
        raise ValueError("weights must sum to 1 per state")

    # Column-major, whatever layout came in: reduceat along axis 0 is several
    # times faster on it, and every sum below then runs in one order.
    columns = np.asfortranarray(weights)
    # squared weights a block of states at a time, never a dim x n_states copy;
    # each column still sums in one pass, so PR does not depend on the block
    pr = np.empty(n_states)
    for s in range(0, n_states, _PR_BLOCK):
        pr[s:s + _PR_BLOCK] = 1.0 / np.sum(np.square(columns[:, s:s + _PR_BLOCK]), axis=0)
    measures = (np.add.reduceat(columns, _partition_starts(dim, int(m)), axis=0) for m in partition_grid)
    tau_bar, fit_r2, _, _, d_bar, mu_bar = _scaling_fit(partition_grid, measures, q_grid)
    return EigenvectorTable(pr=pr, q_grid=q_grid, tau_bar=tau_bar, d_bar=d_bar, mu_bar=mu_bar,
                            fit_r2=fit_r2, partition_grid=partition_grid)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def _histogram_summary(values, n_bins: int, thresholds):
    """Summary of one column, None if the column is undefined (all NaN: its q
    is not on the grid, or too few q lie in the mu-fit range)."""
    values = np.asarray(values, dtype=float)
    if np.all(np.isnan(values)):
        return None
    try:
        counts, edges = np.histogram(values, bins=n_bins)
    except ValueError as exc:  # values a few ulps apart (every state alike), or not all finite
        raise FloatingPointError(f"cannot split the values' range into {n_bins} finite-sized bins") from exc
    return {
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "histogram": (counts / values.size).tolist(),
        "bin_edges": edges.tolist(),
        "fraction_below": {str(t): float(np.mean(values < t)) for t in thresholds},
    }


def ensemble_statistics(table: EigenvectorTable, n_bins: int = 50) -> dict:
    """Normalized histograms and summary statistics of D_bar_2, D_bar_5, mu_bar, PR.

    A column that is undefined on the table's q grid is reported as None.
    """
    if len(table) == 0:
        raise ValueError("need at least one eigenvector")
    return {
        "count": len(table),
        "pr": _histogram_summary(table.pr, n_bins, PR_THRESHOLDS),
        "d2": _histogram_summary(table.d2, n_bins, D_THRESHOLDS),
        "d5": _histogram_summary(table.d5, n_bins, D_THRESHOLDS),
        "mu": _histogram_summary(table.mu_bar, n_bins, MU_THRESHOLDS),
    }
