"""numpy.fft wrappers with the power-of-two contract, plus naive DFT oracles.

Conventions
-----------
All transforms are unnormalized in the forward direction,

    X[k] = sum_j x[j] * w**(j*k),   w = exp(-2j*pi/n),

and the inverse scales by 1/n, so that
``fft_1d(fft_1d(x), inverse=True) == x``.  These are numpy's defaults; the
fast paths call ``np.fft`` directly.  Matrices are ``numpy`` arrays indexed
``[row, col]`` (row-major), vectors are 1D arrays.  The fast paths require
power-of-two lengths >= 2; the naive oracles accept any length and exist so
every fast path can be checked against a direct evaluation of the transform
definition.

Real input takes a half-spectrum route.  The spectrum of a real n x m
matrix is Hermitian, ``X[k, m-j] == conj(X[-k mod n, j])``, so
:func:`fft_2d` transforms the rows with ``rfft`` (m//2+1 columns out), runs
the column FFT on those columns in place inside the full-size output, and
:func:`hermitian_fill` derives the remaining columns by conjugation.  The
result is the full n x m spectrum, as for complex input, which still goes
through ``np.fft.fft2``.

An :class:`OpCounter` can be threaded through the 2D entry points to tally
how many DFT output points were produced and how many input points were
pulled from (simulated) external memory, counted as a row-column
decomposition would: one 1D FFT per row, then one per column.  The count
does not depend on the route taken.  The cost model reconciles those
tallies against closed-form expectations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError


@dataclass
class OpCounter:
    """Monotone tally of DFT output points and external-memory point reads.

    Counters merge by addition, so concurrent passes may accumulate into
    private counters that are folded together afterwards.
    """

    dft_points: int = 0
    ext_mem_points: int = 0

    def add(self, *, dft: int = 0, ext: int = 0) -> None:
        if dft < 0 or ext < 0:
            raise ParameterError("counter increments must be non-negative")
        self.dft_points += dft
        self.ext_mem_points += ext

    def merge(self, other: "OpCounter") -> None:
        self.add(dft=other.dft_points, ext=other.ext_mem_points)

    def __iadd__(self, other: "OpCounter") -> "OpCounter":
        self.merge(other)
        return self

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.dft_points + other.dft_points,
            self.ext_mem_points + other.ext_mem_points,
        )


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_fast_length(n: int, what: str) -> None:
    if n < 2 or not is_power_of_two(n):
        raise SizeError(f"{what} must be a power of two >= 2, got {n}")


def as_complex_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise SizeError("expected a non-empty 1D vector")
    return arr


def _as_matrix(a, dtype) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2 or arr.size == 0:
        raise SizeError("expected a non-empty 2D matrix")
    return arr


def as_complex_matrix(a) -> np.ndarray:
    return _as_matrix(a, np.complex128)


def as_real_matrix(a) -> np.ndarray:
    arr = _as_matrix(a, np.float64)
    # min and max are finite exactly when every entry is (a NaN propagates);
    # two reductions cost less than a frame-sized boolean mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ParameterError("image contains non-finite values")
    return arr


def _fast_matrix(a, dtype=np.complex128) -> np.ndarray:
    arr = _as_matrix(a, dtype)
    _require_fast_length(arr.shape[0], "row count")
    _require_fast_length(arr.shape[1], "column count")
    return arr


def fft_1d(v, inverse: bool = False) -> np.ndarray:
    """FFT of a power-of-two-length vector; inverse scales by 1/n."""
    vec = as_complex_vector(v)
    _require_fast_length(vec.size, "fft_1d length")
    return np.fft.ifft(vec) if inverse else np.fft.fft(vec)


def naive_dft_1d(v, inverse: bool = False) -> np.ndarray:
    """Direct O(n^2) DFT; the oracle for fft_1d, any length >= 1."""
    vec = as_complex_vector(v)
    n = vec.size
    dft_matrix = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    if inverse:
        return np.conj(dft_matrix) @ vec / n
    return dft_matrix @ vec


def fft_axis(a, axis: int, inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """One row-column-decomposition pass: a 1D FFT along one axis of a matrix.

    ``out``, a complex128 array of the same shape, receives the result; it
    may be ``a`` itself, which transforms a column block of a larger
    spectrum in place.
    """
    arr = as_complex_matrix(a)
    _require_fast_length(arr.shape[axis], "transform length")
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(arr, axis=axis, out=out)


def hermitian_fill(x: np.ndarray) -> np.ndarray:
    """Complete, in place, the spectrum of a real n x m matrix whose left
    m//2+1 columns are set: ``X[k, m-j] = conj(X[-k mod n, j])`` for the
    columns right of them.  Returns ``x``.
    """
    m = x.shape[1]
    half = m // 2 + 1
    np.conjugate(x[0, m - half : 0 : -1], out=x[0, half:])
    np.conjugate(x[:0:-1, m - half : 0 : -1], out=x[1:, half:])
    return x


def fft_2d(a, counter: OpCounter | None = None) -> np.ndarray:
    """Full 2D DFT of an n x m matrix.

    A real-dtype matrix (bool, integer or float) takes the half-spectrum
    route: ``rfft`` along the rows into the left m//2+1 columns of the
    output, the column FFT over those columns in place, then
    :func:`hermitian_fill`.  Complex input goes through ``np.fft.fft2``.

    Counted as a row-column decomposition: each of the two passes produces
    n*m output points and reads its n*m input points from frame storage, so
    ``counter`` grows by 2*n*m on both tallies.
    """
    arr = np.asarray(a)
    real = arr.dtype.kind in "biuf"
    arr = _fast_matrix(arr, np.float64 if real else np.complex128)
    n, m = arr.shape
    if real:
        out = np.empty((n, m), dtype=np.complex128)
        left = out[:, : m // 2 + 1]
        np.fft.rfft(arr, axis=1, out=left)
        np.fft.fft(left, axis=0, out=left)
        hermitian_fill(out)
    else:
        out = np.fft.fft2(arr)
    if counter is not None:
        counter.add(dft=2 * n * m, ext=2 * n * m)
    return out


def ifft_2d(x) -> np.ndarray:
    """Inverse 2D DFT with 1/(n*m) normalization."""
    return np.fft.ifft2(_fast_matrix(x))


def naive_dft_2d(a) -> np.ndarray:
    """Direct evaluation of the 2D DFT double sum, as the matrix product
    W @ a @ V with explicit DFT matrices.  Reference oracle for every 2D
    path; accepts any dimensions.
    """
    arr = as_complex_matrix(a)
    n, m = arr.shape
    w_rows = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    w_cols = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
    return w_rows @ arr @ w_cols
