"""Banded operators, their Hermiticity and unitarity contracts, and the one
eigensolver dispatch.

`eigensolve` splits every operator, picks a driver per block, and merges.
An operator equal to its index reversal R (the kicked-top H_eff, whose spin
flip m -> -m is R, and the real tridiagonal su2-a) splits into two `Banded`
parity blocks, built once by `_parity_blocks` for every solver; any other
is one block.  `_merged` assembles the block solves for `eigensolve` and
the numpy-only `hermitian_eigh`; the Floquet ladder takes Jx's blocks from
the same builder.

Every Hamiltonian is a `Banded` operator; dense arrays are left for
unitaries.  Contracts are checked where an operator enters, not where it is
built.  The public entry points that accept a caller's Hamiltonian take a
`Banded` one, and `require_hermitian` refuses anything else with a
TypeError: `eigensolve`, `effective.KickedSystem` (the one input of the
delta-kick layer) and `floquet.unitary_from_hermitian`.  The one dense entry
is `floquet.quasienergy_spectrum`, whose unitary `require_unitary` checks
before the general route's one nonsymmetric eigensolve.
The builders in `su2` and `harper` assemble their operators Hermitian by
construction from validated scalars and check nothing; every path from them
to a solver or an exponential passes one of those entry points.  The one
check on a built result is `effective.heff_delta_kicked`'s, because its
products can overflow even when its inputs passed.  `hermitian_eigh` checks
nothing: the Floquet comparison hands it checked operators.
The Floquet ladder checks its gauge sectors once (four quarter-size at
integer spin, one half-size at half-integer spin), not the rungs.
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
    operators with b1 and b2 stored diagonals costs O(dim * b1 * b2) and
    takes a dense matmul's dtype, the result type of the two.  They
    combine with `Banded` operands and scalars only: a dense operand or a
    numpy ufunc raises TypeError.  ``op.to_dense()`` or ``np.asarray(op)``
    is the one way to the dense matrix the operator stands for.
    """

    # no numpy ufunc (arithmetic with an ndarray, np.abs, ...) takes a
    # `Banded`; ndarray operators return NotImplemented to it in turn
    __array_ufunc__ = None

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
        dtype = np.result_type(self.dtype, other.dtype)
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
                    bands[k] = np.zeros(n - abs(k), dtype=dtype)
                bands[k][lo - _first_row(k):hi - _first_row(k)] += term
        return Banded(n, bands)


def max_abs(mat) -> float:
    """Largest entry magnitude (max norm) of a `Banded` operator or an array."""
    if isinstance(mat, Banded):
        return max((max_abs(band) for band in mat.bands.values()), default=0.0)
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def hermiticity_defect(mat) -> float:
    """max_ij |H - H^dag| / max_ij |H|; zero matrices have defect 0.

    Runs on the stored diagonals of a `Banded` operator.  Non-finite entries
    give a NaN or infinite defect without a floating-point warning.
    """
    with np.errstate(invalid="ignore"):
        scale = max_abs(mat)
        if scale == 0.0:
            return 0.0
        return max_abs(mat - mat.conj().T) / scale


def require_hermitian(op: Banded, name: str = "operator") -> Banded:
    """Return `op`, raising TypeError unless it is a `Banded` operator and
    ValueError if it fails the Hermiticity contract."""
    if not isinstance(op, Banded):
        raise TypeError(f"{name} must be a Banded operator, got {type(op).__name__}")
    defect = hermiticity_defect(op)
    if not defect <= HERMITICITY_RTOL:
        raise ValueError(f"{name} is not Hermitian (relative defect {defect:.3e})")
    return op


def unitarity_defect(mat) -> float:
    """max norm of U^dag U - 1."""
    mat = np.asarray(mat)
    gram = mat.conj().T @ mat
    gram.flat[::gram.shape[0] + 1] -= 1
    return max_abs(gram)


def require_unitary(mat, name: str = "operator") -> np.ndarray:
    """`mat` as an ndarray, raising ValueError unless it is a square matrix
    that passes the unitarity contract."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    defect = unitarity_defect(mat)
    if not defect <= UNITARITY_ATOL:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    return mat


def _reversal_symmetric(op: Banded) -> bool:
    """Whether `op` commutes exactly with the index reversal R: e_i -> e_{n-1-i}.
    R maps diagonal k onto diagonal -k reversed, so RHR = H when
    ``band(k) == band(-k)[::-1]`` for every stored k."""
    return op.dim > 1 and all(np.array_equal(band, op.band(-k)[::-1]) for k, band in op.bands.items())


def _lower_band(op: Banded) -> np.ndarray:
    """LAPACK lower band storage of `op`: row d holds its diagonal -d."""
    lower = np.zeros((op.bandwidth + 1, op.dim), dtype=np.result_type(op.dtype, float))
    for d, band in enumerate(lower):
        band[:op.dim - d] = op.band(-d)
    return lower


def _parity_blocks(op: Banded) -> list:
    """The even and odd parity blocks of `op` when it equals its index
    reversal R, else `op` alone.

    The blocks are taken in the basis (e_i +- e_{n-1-i})/sqrt(2), i < n // 2,
    with the middle index e_{n//2} last in the even block when n is odd.
    Block entry (r, c) is H[r, c] +- H[r, n-1-c]: H's own bands cut to the
    block size, plus the fold of the mirror images, which is nonzero only in
    the corner r, c >= n // 2 - bandwidth next to the middle, so each block
    keeps H's bandwidth.  The middle index couples to each pair by sqrt(2).
    Each block is built from H's lower bands, its upper bands their adjoint.
    """
    if not _reversal_symmetric(op):
        return [op]
    dim, half, dtype = op.dim, op.dim // 2, np.result_type(op.dtype, float)
    blocks = []
    for size, sign in ((dim - half, 1), (half, -1)):
        lower = [op.band(-d)[:size - d].astype(dtype) for d in range(min(op.bandwidth, size - 1) + 1)]
        for d, band in enumerate(lower):
            for c in range(max(0, half - op.bandwidth), half - d):
                band[c] += sign * op[c + d, dim - 1 - c]
        if sign > 0 and dim % 2:
            for d in range(1, len(lower)):
                lower[d][half - d] *= np.sqrt(2.0)
        bands = {d: band.conj() for d, band in enumerate(lower)}
        bands.update({-d: band for d, band in enumerate(lower)})
        blocks.append(Banded(size, bands))
    return blocks


def _chiral_or_eigh(block: Banded, vectors: bool):
    """numpy's solve of one parity block, densified.  A block whose even diagonals
    are zero has no even-even and no odd-odd entries, so it is
    [[0, C], [C^dag, 0]] on its even and odd indices, and the SVD
    C = U diag(s) V^dag gives the eigenpairs +-s with eigenvectors
    (u, +-v)/sqrt(2), and the columns of U past s are zero modes (u, 0)."""
    dense, dim = np.asarray(block, dtype=np.result_type(block.dtype, float)), block.dim
    if any(band.any() for k, band in block.bands.items() if k % 2 == 0):
        return np.linalg.eigh(dense) if vectors else np.linalg.eigvalsh(dense)
    coupling = dense[0::2, 1::2]
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


def _merged(op: Banded, solved: list, vectors: bool):
    """One operator's eigenvalues, ascending, and with `vectors` its
    eigenvectors as columns in the same order, from the solves of its
    `_parity_blocks`: ``values`` or ``(values, vectors)`` per block.  Each
    parity block eigenvector v maps back to (v_top, +-v_top reversed)/sqrt(2),
    with v's last entry on the middle index of an odd-dimension even block."""
    if len(solved) == 1:
        return solved[0]
    if not vectors:
        return np.sort(np.concatenate(solved))
    (even_values, even), (odd_values, odd) = solved
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


def hermitian_eigh(op: Banded, vectors: bool = False):
    """Ascending eigenvalues, and with `vectors` eigenvectors, as `eigensolve`
    returns them, with numpy alone: the same split and merge, each block
    densified and solved by `_chiral_or_eigh`."""
    return _merged(op, [_chiral_or_eigh(block, vectors) for block in _parity_blocks(op)], vectors)


def _block_solve(block: Banded, vectors: bool):
    """Eigenvalues of one block, ascending, and with `vectors` its
    eigenvectors, by the driver the block's structure picks: scipy's
    ``eigh_tridiagonal`` (LAPACK's divide and conquer ``?stevd``) for a real
    tridiagonal block; otherwise the banded Hermitian ``?hbevd`` on its lower
    band for eigenvalues, and `_chiral_or_eigh` for eigenvectors.  scipy is
    imported only where a LAPACK driver is called: loading it costs more
    than a small Floquet run or a kicked-top eigenvector solve."""
    tridiagonal = block.bandwidth <= 1 and block.is_real
    if vectors and not tridiagonal:
        return _chiral_or_eigh(block, vectors=True)
    import scipy.linalg

    if tridiagonal:
        return scipy.linalg.eigh_tridiagonal(block.band(0).real, block.band(1).real, eigvals_only=not vectors)
    return scipy.linalg.eigvals_banded(_lower_band(block), lower=True)


def eigensolve(op: Banded, vectors: bool = False):
    """Ascending eigenvalues of a Hermitian `Banded` operator, and with
    `vectors` also its eigenvectors as columns, by one rule: split it by
    `_parity_blocks`, solve each block by `_block_solve`, merge by `_merged`.
    An operator that commutes with the index reversal R, as the kicked-top
    H_eff (spin flip m -> -m; Haake, Kus & Scharf, Z. Phys. B 65, 381
    (1987)) and the real tridiagonal su2-a, has mirror pairs degenerate to
    rounding or exactly: the split returns each eigenvector with R-parity
    +-1, where a solve of the whole matrix returns rounding-dependent mixtures.
    """
    op = require_hermitian(op)
    return _merged(op, [_block_solve(block, vectors) for block in _parity_blocks(op)], vectors)
