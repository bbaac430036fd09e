"""Banded operators, their Hermiticity and unitarity contracts, and the one
eigensolver dispatch chosen from an operator's band structure.

An operator equal to its index reversal R (the kicked-top H_eff, whose
spin flip m -> -m is R) is solved on its two half-size parity blocks,
built from its stored bands by `_parity_solve` for `eigensolve`'s banded
eigenvalue driver, `hermitian_eigh` and the Floquet ladder's Jx: two block
solves in place of one of the whole operator.

Contracts are checked where an operator enters, not where it is built.  The
public entry points that accept a caller's matrix check it: `eigensolve`,
`effective.KickedSystem` (the one input of the delta-kick layer),
`floquet.unitary_from_hermitian` and `floquet.quasienergy_spectrum`.  The
builders in `su2` and `harper` assemble their operators Hermitian by
construction from validated scalars and check nothing; every path from them
to a solver or an exponential passes one of those entry points.  The one
check on a built result is `effective.heff_delta_kicked`'s, because its
products can overflow even when its inputs passed.  `hermitian_eigh` checks
nothing: `eigensolve` and the Floquet comparison hand it checked operators.
"""

import numbers

import numpy as np

HERMITICITY_RTOL = 1e-12
UNITARITY_ATOL = 1e-10
_SQRT_HALF = np.sqrt(0.5)


def _first_row(offset: int) -> int:
    """Row of the first entry on diagonal `offset`."""
    return max(0, -offset)


class Banded:
    """Square matrix stored by its diagonals, keyed by offset.

    ``bands[k]`` holds diagonal k in ``np.diagonal`` order: M[i, i+k] for
    k >= 0 and M[i-k, i] for k < 0, so it has dim - |k| entries.  Sums,
    scalar multiples, adjoints and products stay banded; a product of
    operators with b1 and b2 stored diagonals costs O(dim * b1 * b2).  They
    combine with `Banded` operands and scalars only: a dense operand or a
    numpy ufunc raises TypeError.  ``op.to_dense()`` or ``np.asarray(op)``
    is the one way to the dense matrix the operator stands for.
    """

    # no numpy ufunc (arithmetic with an ndarray, np.abs, ...) takes a
    # `Banded`; ndarray operators return NotImplemented to it in turn
    __array_ufunc__ = None
    ndim = 2

    def __init__(self, dim: int, bands: dict):
        self.dim = int(dim)
        self.bands = {}
        for offset, band in bands.items():
            band = np.asarray(band)
            if band.shape != (max(self.dim - abs(offset), 0),):
                raise ValueError(f"diagonal {offset} of a {self.dim}x{self.dim} operator "
                                 f"needs {max(self.dim - abs(offset), 0)} entries, got shape {band.shape}")
            if band.size:
                self.bands[int(offset)] = band

    @classmethod
    def diagonal(cls, values, offset: int = 0) -> "Banded":
        """Operator with `values` on one diagonal, sized to fit them."""
        values = np.asarray(values)
        return cls(values.size + abs(offset), {offset: values})

    @property
    def shape(self) -> tuple:
        return (self.dim, self.dim)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(*self.bands.values()) if self.bands else np.dtype(float)

    @property
    def nbytes(self) -> int:
        return sum(band.nbytes for band in self.bands.values())

    @property
    def bandwidth(self) -> int:
        """Largest |offset| of a stored diagonal."""
        return max((abs(k) for k in self.bands), default=0)

    @property
    def is_real(self) -> bool:
        return not any(np.iscomplexobj(band) and np.any(band.imag) for band in self.bands.values())

    def band(self, offset: int) -> np.ndarray:
        """Diagonal `offset`, zeros when it is not stored."""
        stored = self.bands.get(offset)
        return stored if stored is not None else np.zeros(max(self.dim - abs(offset), 0), dtype=self.dtype)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        flat = out.reshape(-1)
        for offset, band in self.bands.items():
            start = offset if offset >= 0 else -offset * self.dim
            flat[start::self.dim + 1][:band.size] = band
        return out

    def __array__(self, dtype=None, copy=None):
        # numpy >= 2 passes copy; False asks for a view, which no band storage gives
        if copy is False:
            raise ValueError("a Banded operator has no dense buffer to share; np.asarray(op) copies it")
        dense = self.to_dense()
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"Banded(dim={self.dim}, offsets={sorted(self.bands)}, dtype={self.dtype})"

    def __getitem__(self, key):
        """Entry (i, j); negative indices count from the end."""
        row, col = (range(self.dim)[v] for v in key)
        stored = self.bands.get(col - row)
        return stored[min(row, col)] if stored is not None else self.dtype.type(0)

    def conj(self) -> "Banded":
        return Banded(self.dim, {k: band.conj() for k, band in self.bands.items()})

    @property
    def T(self) -> "Banded":
        return Banded(self.dim, {-k: band for k, band in self.bands.items()})

    def _same_dim(self, other: "Banded") -> None:
        if other.dim != self.dim:
            raise ValueError(f"operators of dimension {self.dim} and {other.dim} do not combine")

    def __add__(self, other):
        if not isinstance(other, Banded):
            return NotImplemented
        self._same_dim(other)
        bands = dict(self.bands)
        for k, band in other.bands.items():
            bands[k] = bands[k] + band if k in bands else band
        return Banded(self.dim, bands)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, Banded) else NotImplemented

    def __neg__(self) -> "Banded":
        return Banded(self.dim, {k: -band for k, band in self.bands.items()})

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return Banded(self.dim, {k: band * other for k, band in self.bands.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            return Banded(self.dim, {k: band / other for k, band in self.bands.items()})
        return NotImplemented

    def __matmul__(self, other):
        if not isinstance(other, Banded):
            return NotImplemented
        self._same_dim(other)
        n = self.dim
        bands = {}
        for ka, a in self.bands.items():
            for kb, b in other.bands.items():
                k = ka + kb
                # rows r with entries A[r, r+ka] and B[r+ka, r+k] inside the matrix
                lo, hi = max(0, -ka, -k), min(n, n - ka, n - k)
                if lo >= hi:
                    continue
                term = a[lo - _first_row(ka):hi - _first_row(ka)] * b[lo + ka - _first_row(kb):hi + ka - _first_row(kb)]
                if k not in bands:
                    bands[k] = np.zeros(n - abs(k), dtype=term.dtype)
                elif bands[k].dtype != term.dtype:
                    bands[k] = bands[k].astype(np.result_type(bands[k], term))
                bands[k][lo - _first_row(k):hi - _first_row(k)] += term
        return Banded(n, bands)


def as_operator(mat):
    """A `Banded` operator as it is, anything else as an ndarray."""
    return mat if isinstance(mat, Banded) else np.asarray(mat)


def max_abs(mat) -> float:
    """Largest entry magnitude (max norm)."""
    mat = as_operator(mat)
    if isinstance(mat, Banded):
        return max((max_abs(band) for band in mat.bands.values()), default=0.0)
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def hermiticity_defect(mat) -> float:
    """max_ij |H - H^dag| / max_ij |H|; zero matrices have defect 0.

    Runs on the stored diagonals of a `Banded` operator.  Non-finite entries
    give a NaN or infinite defect without a floating-point warning.
    """
    mat = as_operator(mat)
    with np.errstate(invalid="ignore"):
        scale = max_abs(mat)
        if scale == 0.0:
            return 0.0
        return max_abs(mat - mat.conj().T) / scale


def require_square(mat, name: str = "operator"):
    mat = as_operator(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    return mat


def require_hermitian(mat, name: str = "operator"):
    """Return mat (`Banded` or ndarray), raising if it fails the Hermiticity contract."""
    mat = require_square(mat, name)
    defect = hermiticity_defect(mat)
    if not defect <= HERMITICITY_RTOL:
        raise ValueError(f"{name} is not Hermitian (relative defect {defect:.3e})")
    return mat


def unitarity_defect(mat) -> float:
    """max norm of U^dag U - 1."""
    mat = np.asarray(mat)
    gram = mat.conj().T @ mat
    gram.flat[::gram.shape[0] + 1] -= 1
    return max_abs(gram)


def require_unitary(mat, name: str = "operator") -> np.ndarray:
    mat = np.asarray(require_square(mat, name))
    defect = unitarity_defect(mat)
    if not defect <= UNITARITY_ATOL:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    return mat


def _reversal_symmetric(op: Banded) -> bool:
    """Whether `op` commutes exactly with the index reversal R: e_i -> e_{n-1-i}.
    R maps diagonal k onto diagonal -k reversed, so RHR = H when
    ``band(k) == band(-k)[::-1]`` for every stored k."""
    return op.dim > 1 and all(np.array_equal(band, op.band(-k)[::-1]) for k, band in op.bands.items())


def _lower_band(op: Banded, size: int) -> np.ndarray:
    """LAPACK lower band storage of the leading size x size block of `op`:
    row d holds its diagonal -d."""
    width = min(op.bandwidth, max(size - 1, 0))
    lower = np.zeros((width + 1, size), dtype=np.result_type(op.dtype, float))
    for d in range(width + 1):
        lower[d, :size - d] = op.band(-d)[:size - d]
    return lower


def _dense_hermitian(lower: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose lower band storage is `lower`."""
    size = lower.shape[1]
    bands = {d: band[:size - d].conj() for d, band in enumerate(lower)}
    bands.update({-d: band[:size - d] for d, band in enumerate(lower)})
    return Banded(size, bands).to_dense()


def _parity_solve(op: Banded, solve) -> list:
    """`solve` applied to `op` in lower band storage, or, when `op` equals
    its index reversal R, to its even and odd parity blocks in that order.

    The blocks are taken in the basis (e_i +- e_{n-1-i})/sqrt(2), i < n // 2,
    with the middle index e_{n//2} last in the even block when n is odd.
    Block entry (r, c) is H[r, c] +- H[r, n-1-c]: H's own bands cut to the
    block size, plus the fold of the mirror images, which is nonzero only in
    the corner r, c >= n // 2 - bandwidth next to the middle, so each block
    keeps H's bandwidth.  The middle index couples to each pair by sqrt(2).
    """
    if not _reversal_symmetric(op):
        return [solve(_lower_band(op, op.dim))]
    dim, half = op.dim, op.dim // 2
    even, odd = _lower_band(op, dim - half), _lower_band(op, half)
    for c in range(max(0, half - op.bandwidth), half):
        for r in range(c, min(half, c + odd.shape[0])):
            mirror = op[r, dim - 1 - c]
            even[r - c, c] += mirror
            odd[r - c, c] -= mirror
    if dim % 2:
        rows = np.arange(1, even.shape[0])
        even[rows, half - rows] *= np.sqrt(2.0)
    return [solve(even), solve(odd)]


def _chiral_or_eigh(block: np.ndarray, vectors: bool):
    """`hermitian_eigh` of one block.  A block with no even-even and no odd-odd
    entries is [[0, C], [C^dag, 0]] on its even and odd indices, so the SVD
    C = U diag(s) V^dag gives the eigenpairs +-s with eigenvectors
    (u, +-v)/sqrt(2), and the columns of U past s are zero modes (u, 0)."""
    if block[0::2, 0::2].any() or block[1::2, 1::2].any():
        return np.linalg.eigh(block) if vectors else np.linalg.eigvalsh(block)
    coupling, dim = block[0::2, 1::2], block.shape[0]
    if vectors:
        u, sigma, vh = np.linalg.svd(coupling)
    else:
        sigma = np.linalg.svd(coupling, compute_uv=False)
    pairs = sigma.size
    # singular values come descending, so -s is ascending and +s reversed
    values = np.concatenate((-sigma, np.zeros(dim - 2 * pairs), sigma[::-1]))
    if not vectors:
        return values
    left, right = u[:, :pairs] * _SQRT_HALF, vh.conj().T * _SQRT_HALF
    vecs = np.zeros((dim, dim), dtype=left.dtype)
    vecs[0::2, :pairs], vecs[1::2, :pairs] = left, -right
    vecs[0::2, pairs:dim - pairs] = u[:, pairs:]
    vecs[0::2, dim - pairs:], vecs[1::2, dim - pairs:] = left[:, ::-1], right[:, ::-1]
    return values, vecs


def hermitian_eigh(op: Banded, vectors: bool = False):
    """Ascending eigenvalues of a Hermitian `Banded` operator, and with
    `vectors` its eigenvectors as columns in the same order, by its exact
    symmetries, with numpy alone.

    An operator equal to its index reversal R splits into the two parity
    blocks of `_parity_solve`, each densified at half size, so each
    eigenvector has R-parity +-1.  The kicked-top H_eff commutes with R, its
    spin flip m -> -m (Haake, Kus & Scharf, Z. Phys. B 65, 381 (1987)), and
    its mirror pairs are degenerate to rounding: a solve of the whole matrix
    would return rounding-dependent mixtures of them.  It stores odd
    diagonals only, so at integer spin both blocks are chiral.  Other
    blocks, and operators without the symmetry, go to numpy's ``eigh`` or
    ``eigvalsh``, which read the lower triangle only.
    """
    blocks = _parity_solve(op, lambda lower: _chiral_or_eigh(_dense_hermitian(lower), vectors))
    if not vectors:
        return np.sort(np.concatenate(blocks))
    if len(blocks) == 1:
        return blocks[0]
    (even_values, even), (odd_values, odd) = blocks
    dim, half = op.dim, op.dim // 2
    values = np.concatenate((even_values, odd_values))
    order = np.argsort(values, kind="stable")
    column = np.argsort(order)  # output column of each block eigenvector
    out = np.zeros((dim, dim), dtype=np.result_type(even, odd))
    if dim % 2:
        out[half, column[:dim - half]] = even[half]
    for cols, vecs, mirror in ((column[:dim - half], even, 1.0), (column[dim - half:], odd, -1.0)):
        top = vecs[:half]
        top *= _SQRT_HALF
        out[:half, cols] = top
        top *= mirror
        out[::-1][:half, cols] = top
    return values[order], out


def eigensolve(op: Banded, vectors: bool = False):
    """Ascending eigenvalues of a Hermitian `Banded` operator, and with
    `vectors` also its eigenvectors as columns, by a solver picked from the
    operator's structure:

    - real with bandwidth <= 1: scipy's tridiagonal solver, whose default
      driver for the whole spectrum is LAPACK's divide and conquer ``?stevd``;
    - otherwise, eigenvalues only: the banded Hermitian driver ``?hbevd`` on
      the lower band; an operator equal to its index reversal (the kicked-top
      H_eff) is split into its two half-size parity blocks, of the same
      bandwidth, and the driver runs once per block;
    - otherwise, with eigenvectors: `hermitian_eigh`, which returns the
      kicked-top H_eff's with definite spin-flip parity.

    scipy is imported here only: loading it costs more than a small Floquet
    run, which never needs it.
    """
    op = require_hermitian(op)
    tridiagonal = op.bandwidth <= 1 and op.is_real
    if vectors and not tridiagonal:
        return hermitian_eigh(op, vectors=True)
    import scipy.linalg

    if tridiagonal:
        diagonal, off_diagonal = op.band(0).real, op.band(1).real
        if vectors:
            return scipy.linalg.eigh_tridiagonal(diagonal, off_diagonal)
        return scipy.linalg.eigvalsh_tridiagonal(diagonal, off_diagonal)

    return np.sort(np.concatenate(_parity_solve(op, lambda lower: scipy.linalg.eigvals_banded(lower, lower=True))))
