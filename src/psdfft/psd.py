"""Periodic-plus-smooth decomposition with the boundary-image FFT shortcut.

A non-periodic image I transformed as if it were periodic leaks energy into
cross-shaped artifacts along the spectrum axes.  The decomposition splits
I = P + S: a periodic component P keeping all detail, and a smooth background
S that absorbs the border discontinuities.  S is derived entirely from a
border image B that is nonzero only on the outermost rows and columns:

    B(0,j)   = I(n-1,j) - I(0,j)      B(n-1,j) = -B(0,j)      (row edges)
    B(i,0)  += I(i,m-1) - I(i,0)      B(i,m-1) += -(...)      (col edges)

Its spectrum fixes S via

    S_hat(s,t) = B_hat(s,t) / (2 cos(2 pi s / n) + 2 cos(2 pi t / m) - 4)

for (s,t) != (0,0), with S_hat(0,0) = 0 so the smooth part is zero-mean, and
then P_hat = I_hat - S_hat.

The optimized path exploits the structure of B: every interior row of B
holds a single value b at the left and -b at the right, so its row FFT is
b times one shared shape vector nu, and the last row's FFT follows from
the first row's by negation plus a corner correction.  Only one length-m
row FFT is ever computed; the remaining row work is scalar scaling, and a
normal column pass finishes the transform.  Only the first row and first
column of B (n + m + 1 numbers) are needed, so the full border image is
never materialized on the fast path.

B and I are real, so their spectra are Hermitian.  Both are computed on
their left m//2+1 columns only and completed by conjugation
(:func:`psdfft.fft_core.hermitian_fill`), inside the full-size output with
no half-width copy.  The smooth divide multiplies by a real reciprocal of
the denominator, built per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SizeError
from .fft_core import (
    OpCounter,
    as_complex_matrix,
    as_real_matrix,
    fft_1d,
    fft_2d,
    fft_axis,
    hermitian_fill,
    ifft_2d,
)

RESIDUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """First row and first column of the border image, plus the corner term.

    ``first_row[0] == first_col[0]`` (both are B(0,0)).  ``corner_sum`` is
    B(0,0) + B(0,m-1).  The optimized path corrects the last row with the
    column counterpart B(0,0) + B(n-1,0), read from ``first_col``, so the
    two vectors are all the border content it needs.
    """

    first_row: np.ndarray
    first_col: np.ndarray
    corner_sum: float

    @property
    def n(self) -> int:
        return self.first_col.size

    @property
    def m(self) -> int:
        return self.first_row.size

    @classmethod
    def zeros(cls, n: int, m: int) -> "BoundaryData":
        return cls(np.zeros(m), np.zeros(n), 0.0)


def _require_min_dims(n: int, m: int) -> None:
    if n < 2 or m < 2:
        raise SizeError(f"image must be at least 2x2, got {n}x{m}")


def border_image(image) -> np.ndarray:
    """Border image B: row-edge and column-edge discontinuities of I.

    Nonzero only on the first/last rows and columns; interior of the last
    row/column is the negation of the first's.
    """
    img = as_real_matrix(image)
    n, m = img.shape
    _require_min_dims(n, m)
    border = np.zeros_like(img)
    row_jump = img[n - 1, :] - img[0, :]
    border[0, :] = row_jump
    border[n - 1, :] = -row_jump
    col_jump = img[:, m - 1] - img[:, 0]
    border[:, 0] += col_jump
    border[:, m - 1] -= col_jump
    return border


def boundary_data(image) -> BoundaryData:
    """Extract the border image's first row/column without building it.

    Matches ``border_image(image)[0, :]`` and ``[:, 0]`` exactly (same
    subtractions in the same order).
    """
    img = as_real_matrix(image)
    n, m = img.shape
    _require_min_dims(n, m)

    first_row = img[n - 1, :] - img[0, :]
    first_row[0] += img[0, m - 1] - img[0, 0]
    first_row[m - 1] += img[0, 0] - img[0, m - 1]

    first_col = img[:, m - 1] - img[:, 0]
    first_col[0] += img[n - 1, 0] - img[0, 0]
    first_col[n - 1] += img[0, 0] - img[n - 1, 0]

    return BoundaryData(first_row, first_col, float(first_row[0] + first_row[m - 1]))


def nu_vector(n: int) -> np.ndarray:
    """Shared row-FFT shape (0, 1-w**(n-1), 1-w**(n-2), ..., 1-w).

    This is the FFT of (b, 0, ..., 0, -b) divided by b: entry k equals
    1 - w**(n-k), which is exactly 0 at k=0 and conjugate-paired around the
    midpoint.
    """
    if n < 2:
        raise SizeError(f"nu vector needs length >= 2, got {n}")
    return 1.0 - np.exp(-2j * np.pi * ((n - np.arange(n)) % n) / n)


def opsd_boundary_spectrum(bd: BoundaryData, counter: OpCounter | None = None) -> np.ndarray:
    """Full 2D spectrum of the border image from boundary vectors alone.

    Row stage: one length-m FFT of the first row; interior row i is
    first_col[i] * nu; the last row is -(first row's FFT) plus
    (first_col[0] + first_col[n-1]) * nu.  The column stage is then
    computed normally.  The border image is real, so both stages run on
    the left m//2+1 columns only, written straight into the output, and
    :func:`hermitian_fill` completes the rest; the boundary vectors must
    therefore be real.  Counted work, as for the full-width transform: m
    DFT points for the single row FFT plus n*m for the column pass (the
    scalings are not DFT points), and n + m - 1 boundary-point reads (the
    shared corner is read once) plus n*m column-pass input reads.
    """
    if np.iscomplexobj(bd.first_row) or np.iscomplexobj(bd.first_col):
        raise ParameterError("boundary vectors must be real")
    n, m = bd.n, bd.m
    half = m // 2 + 1
    bhat = np.empty((n, m), dtype=np.complex128)
    stacked = bhat[:, :half]

    first_row_hat = fft_1d(bd.first_row)[:half]
    nu = nu_vector(m)[:half]
    stacked[0, :] = first_row_hat
    if n > 2:
        np.multiply(bd.first_col[1 : n - 1, None], nu, out=stacked[1 : n - 1, :])
    stacked[n - 1, :] = (bd.first_col[0] + bd.first_col[n - 1]) * nu - first_row_hat

    fft_axis(stacked, axis=0, out=stacked)
    hermitian_fill(bhat)
    if counter is not None:
        counter.add(dft=m + n * m, ext=(n + m - 1) + n * m)
    return bhat


def smooth_spectrum(bhat) -> np.ndarray:
    """Spectrum of the smooth component from the border-image spectrum.

    Divides by 2 cos(2 pi s / n) + 2 cos(2 pi t / m) - 4, whose only zero on
    the grid is (s,t) = (0,0); that entry is defined as 0, which keeps the
    smooth component zero-mean.  The divide is a multiply by the real
    reciprocal of the denominator, which is cheaper than dividing complex by
    real; any complex matrix is accepted, Hermitian or not.
    """
    arr = as_complex_matrix(bhat)
    n, m = arr.shape
    recip = np.add.outer(
        2.0 * np.cos(2.0 * np.pi * np.arange(n) / n),
        2.0 * np.cos(2.0 * np.pi * np.arange(m) / m) - 4.0,
    )
    recip[0, 0] = 1.0
    np.divide(1.0, recip, out=recip)
    shat = arr * recip
    shat[0, 0] = 0.0
    return shat


def periodic_spectrum(ihat, shat) -> np.ndarray:
    """Artifact-removed spectrum: elementwise I_hat - S_hat."""
    a = as_complex_matrix(ihat)
    b = as_complex_matrix(shat)
    if a.shape != b.shape:
        raise SizeError(f"spectrum shapes differ: {a.shape} vs {b.shape}")
    return a - b


class SpectralDecomposition(NamedTuple):
    ihat: np.ndarray
    bhat: np.ndarray
    shat: np.ndarray
    phat: np.ndarray


class Decomposition(NamedTuple):
    phat: np.ndarray
    shat: np.ndarray
    periodic: np.ndarray
    smooth: np.ndarray


def spectra(image, method: str = "opsd", counter: OpCounter | None = None) -> SpectralDecomposition:
    """Spectral half of the decomposition: I_hat, B_hat, S_hat, P_hat.

    ``method="opsd"`` computes B_hat through the boundary-vector shortcut;
    ``method="naive_psd"`` runs a full 2D FFT over the materialized border
    image and serves as the reference route.
    """
    img = as_real_matrix(image)
    n, m = img.shape
    _require_min_dims(n, m)

    ihat = fft_2d(img, counter)
    if method == "opsd":
        bhat = opsd_boundary_spectrum(boundary_data(img), counter)
    elif method == "naive_psd":
        bhat = fft_2d(border_image(img), counter)
    else:
        raise ValueError(f"unknown method {method!r}")
    shat = smooth_spectrum(bhat)
    phat = periodic_spectrum(ihat, shat)
    if not np.all(np.isfinite(phat)):
        raise ParameterError("spectrum is not finite; image values overflow the transform")
    return SpectralDecomposition(ihat, bhat, shat, phat)


def decompose(image, method: str = "opsd", counter: OpCounter | None = None) -> Decomposition:
    """Full periodic-plus-smooth decomposition of a real image.

    Returns the two spectra plus the spatial components: s by one inverse
    transform of S_hat, and p = I - s, whose spectrum is P_hat.  The
    imaginary residue of s is checked against ``RESIDUE_TOL`` times the
    image peak before being discarded.
    """
    img = as_real_matrix(image)
    # keep only P_hat and S_hat, so I_hat and B_hat are freed before the inverse
    _, _, shat, phat = spectra(img, method, counter)

    s_complex = ifft_2d(shat)
    limit = RESIDUE_TOL * max(img.max(), -img.min(), np.finfo(np.float64).tiny)
    imag = s_complex.imag
    # np.maximum, unlike the builtin max, propagates a NaN
    residue = np.maximum(imag.max(), -imag.min())
    if not residue <= limit:  # a NaN residue must fail too
        raise ArithmeticError(
            f"imaginary residue {residue:.3e} exceeds {limit:.3e}; "
            "input spectra are not those of a real image"
        )
    smooth = s_complex.real
    return Decomposition(phat, shat, img - smooth, smooth)


def cross_axis_energy(spectrum) -> float:
    """Energy on the spectrum's non-DC axes, where edge artifacts live.

    Sum of |X(s,0)|^2 over s != 0 plus |X(0,t)|^2 over t != 0.
    """
    arr = as_complex_matrix(spectrum)
    col = np.sum(np.abs(arr[1:, 0]) ** 2)
    row = np.sum(np.abs(arr[0, 1:]) ** 2)
    return float(col + row)
