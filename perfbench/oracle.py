"""Independent numpy-only oracle for the frame-stream benchmark.

Nothing here calls psdfft.  The border image, the smooth-spectrum
denominator, the P5 codec and the display mapping are written from their
definitions, so a defect in the library cannot hide behind a helper that the
check shares with the code it checks.
"""

from __future__ import annotations

import re

import numpy as np

# Tolerances of the library's acceptance suite.
SPECTRUM_TOL = 1e-9
RECONSTRUCT_TOL = 1e-9

# Magic, width, height, maxval, then exactly one whitespace byte.
_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def border_image(image: np.ndarray) -> np.ndarray:
    """Edge discontinuities of ``image``: row jumps on the first/last rows,
    column jumps added on the first/last columns."""
    border = np.zeros_like(image, dtype=np.float64)
    row_jump = image[-1, :] - image[0, :]
    border[0, :] += row_jump
    border[-1, :] -= row_jump
    col_jump = image[:, -1] - image[:, 0]
    border[:, 0] += col_jump
    border[:, -1] -= col_jump
    return border


def periodic_spectrum(image: np.ndarray) -> np.ndarray:
    """P_hat = fft2(I) - fft2(B) / (2cos(2 pi s/n) + 2cos(2 pi t/m) - 4),
    with the (0, 0) smooth term set to zero."""
    n, m = image.shape
    denom = (
        2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)[:, None]
        + 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)[None, :]
        - 4.0
    )
    denom[0, 0] = 1.0
    shat = np.fft.fft2(border_image(image))
    shat /= denom
    shat[0, 0] = 0.0
    phat = np.fft.fft2(image)
    phat -= shat
    return phat


def spectrum_error(phat: np.ndarray, image: np.ndarray) -> float:
    """Largest deviation from the oracle's P_hat, relative to the image's
    Frobenius norm (the acceptance suite's measure)."""
    want = periodic_spectrum(image)
    if phat.shape != want.shape:
        return float("inf")
    # A plain reduction, not np.linalg.norm: BLAS would start threads that
    # keep spinning into the next timed frame.
    scale = max(float(np.sqrt(np.sum(np.square(image)))), np.finfo(np.float64).tiny)
    return float(np.abs(phat - want).max() / scale)


def reconstruct_errors(image: np.ndarray, periodic: np.ndarray, smooth: np.ndarray) -> tuple[float, float]:
    """(max |p + s - I|, |mean(s)|), both relative to the image's peak."""
    peak = max(float(np.abs(image).max()), np.finfo(np.float64).tiny)
    if periodic.shape != image.shape or smooth.shape != image.shape:
        return float("inf"), float("inf")
    recon = float(np.abs(periodic + smooth - image).max()) / peak
    return recon, abs(float(smooth.mean())) / peak


def encode_p5(pixels: np.ndarray) -> bytes:
    """Binary 16-bit PGM with big-endian samples."""
    height, width = pixels.shape
    return f"P5\n{width} {height}\n65535\n".encode("ascii") + pixels.astype(">u2").tobytes()


def decode_p5(blob: bytes) -> np.ndarray | None:
    """Samples of a P5 image whose header has no comments, or None when the
    bytes are not such an image."""
    header = _P5_HEADER.match(blob)
    if header is None:
        return None
    width, height, maxval = (int(field) for field in header.groups())
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    if len(blob) - header.end() != width * height * dtype.itemsize:
        return None
    return np.frombuffer(blob, dtype=dtype, offset=header.end()).reshape(height, width)


def display_counts(matrix: np.ndarray, maxval: int) -> np.ndarray:
    """Integer samples of ``matrix`` mapped affinely onto [0, maxval]."""
    lo, hi = float(matrix.min()), float(matrix.max())
    gain = maxval / (hi - lo) if hi > lo else 1.0
    return np.floor(np.clip((matrix - lo) * gain, 0.0, maxval) + 0.5)


def log_magnitude_panel(spectrum: np.ndarray) -> np.ndarray:
    """log(1 + |X|) with the DC bin moved to the centre."""
    return np.fft.fftshift(np.log1p(np.abs(spectrum)))


def panel_matches(blob: bytes, matrix: np.ndarray, maxval: int) -> bool:
    """True when ``blob`` decodes to ``matrix``'s display mapping, to one
    count (rounding at exact half-counts may go either way)."""
    decoded = decode_p5(blob)
    if decoded is None or decoded.shape != matrix.shape:
        return False
    return bool(np.abs(decoded.astype(np.float64) - display_counts(matrix, maxval)).max() <= 1.0)
