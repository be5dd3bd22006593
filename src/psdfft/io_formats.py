"""Image and report I/O: PGM codec, spectrum exports, structured reports.

PGM reads map pixel values to floats without rescaling (the decomposition
is linear, so silent scaling would corrupt cross-checks); any rescaling for
display happens explicitly through :func:`display_scale` and is meant to be
logged by the caller.  16-bit PGM samples are big-endian per the de facto
format convention.

The exports work on frame-sized planes, so each one allocates its result
once and does the rest of its arithmetic in place; the bytes written are the
same as those of the plain expressions (``floor(clip(x) + 0.5)``,
``x * gain + offset``, ``log1p(abs(X))``).  A P2 header is checked against
the bytes that follow it before any pixel storage is allocated.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cost_model import CostReport, Reconciliation
from .errors import FormatError, ParameterError
from .fft_core import OpCounter, as_complex_matrix, as_real_matrix
from .pipeline import PipelineTrace

EXPORT_MODES = ("magnitude", "log_magnitude", "phase", "real", "imag")

_WHITESPACE = b" \t\r\n\x0b\x0c"


class _HeaderScanner:
    """Token scanner for PNM headers: whitespace-separated fields with
    ``#`` comments running to end of line."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self) -> None:
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in (b"#",):
                eol = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if eol < 0 else eol + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise FormatError(f"unexpected end of header while reading {what}", offset=self.pos)
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _WHITESPACE:
            if self.data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        return self.data[start : self.pos]

    def integer(self, what: str) -> int:
        start_before = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"{what} is not an integer: {tok!r}", offset=max(start_before, self.pos - len(tok)))


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a P5 (binary) or P2 (ASCII) PGM into a float matrix.

    Values are kept at their stored scale (0..maxval, up to 65535).
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ParameterError("read_pgm expects bytes")
    data = bytes(data)
    scan = _HeaderScanner(data)
    magic = scan.token("magic")
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"unsupported magic {magic!r}, expected P2 or P5", offset=0)
    width = scan.integer("width")
    height = scan.integer("height")
    maxval = scan.integer("maxval")
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}", offset=scan.pos)
    if not 0 < maxval <= 65535:
        raise FormatError(f"maxval {maxval} out of range 1..65535", offset=scan.pos)

    count = width * height
    if magic == b"P2":
        # every ASCII sample needs at least one separator and one digit
        remaining = len(data) - scan.pos
        if count > remaining // 2:
            raise FormatError(
                f"header claims {width}x{height} pixels, but only {remaining} bytes follow it",
                offset=scan.pos,
            )
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            values[i] = scan.integer(f"pixel {i}")
        return values.reshape(height, width)

    # P5: exactly one whitespace byte after maxval, then raw samples
    if scan.pos >= len(data) or data[scan.pos : scan.pos + 1] not in _WHITESPACE:
        raise FormatError("missing sample separator after maxval", offset=scan.pos)
    start = scan.pos + 1
    sample_bytes = 2 if maxval > 255 else 1
    expected = count * sample_bytes
    actual = len(data) - start
    if actual < expected:
        raise FormatError(
            f"truncated P5 payload: expected {expected} bytes, got {actual}",
            offset=len(data),
        )
    dtype = ">u2" if sample_bytes == 2 else np.uint8
    samples = np.frombuffer(data, dtype=dtype, count=count, offset=start)
    return samples.astype(np.float64).reshape(height, width)


def write_pgm(matrix, maxval: int = 255) -> bytes:
    """Encode a real matrix as binary P5, clamping to [0, maxval] and
    rounding half away from zero."""
    if maxval not in (255, 65535):
        raise ParameterError(f"maxval must be 255 or 65535, got {maxval}")
    arr = as_real_matrix(matrix)
    # floor(maxval + 0.5) == maxval, so the clip bounds the rounded values too
    rounded = np.clip(arr, 0.0, float(maxval))
    rounded += 0.5
    np.floor(rounded, out=rounded)
    height, width = arr.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    dtype = ">u2" if maxval > 255 else np.uint8
    return header + rounded.astype(dtype).tobytes()


def quadrant_shift(matrix) -> np.ndarray:
    """Swap spectrum quadrants so the DC bin lands at (n//2, m//2).

    Own inverse for even dimensions.
    """
    arr = np.asarray(matrix)
    return np.roll(arr, (arr.shape[0] // 2, arr.shape[1] // 2), axis=(0, 1))


@dataclass(frozen=True, eq=False)
class SpectrumExport:
    """A spectrum rendered to a real matrix for inspection or image export."""

    mode: str
    shift: bool
    data: np.ndarray


def spectrum_export(spectrum, mode: str = "log_magnitude", shift: bool = True) -> SpectrumExport:
    """Render a complex spectrum as reals: magnitude, log(1+|X|), phase,
    real, or imag, optionally quadrant-shifted to center DC."""
    arr = as_complex_matrix(spectrum)
    if mode == "magnitude":
        data = np.abs(arr)
    elif mode == "log_magnitude":
        data = np.abs(arr)
        np.log1p(data, out=data)
    elif mode == "phase":
        data = np.angle(arr)
    elif mode == "real":
        data = arr.real.copy()
    elif mode == "imag":
        data = arr.imag.copy()
    else:
        raise ParameterError(f"mode must be one of {EXPORT_MODES}, got {mode!r}")
    if shift:
        data = quadrant_shift(data)
    return SpectrumExport(mode, shift, data)


def display_scale(matrix, maxval: int = 255) -> tuple[np.ndarray, float, float]:
    """Affine rescale of a matrix onto [0, maxval] for image export.

    Returns (scaled, gain, offset) with scaled = matrix * gain + offset, so
    callers can log the exact transform next to the written file.
    """
    arr = as_real_matrix(matrix)
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        gain = float(maxval) / (hi - lo)
    else:
        gain = 1.0
    offset = -lo * gain
    scaled = arr * gain
    scaled += offset
    return scaled, gain, offset


def _record_dict(obj) -> dict:
    if isinstance(obj, CostReport):
        return {"record": "cost_report", **dataclasses.asdict(obj)}
    if isinstance(obj, Reconciliation):
        return {"record": "reconciliation", **dataclasses.asdict(obj), "exact": obj.exact}
    if isinstance(obj, OpCounter):
        return {"record": "op_counter", **dataclasses.asdict(obj)}
    if isinstance(obj, PipelineTrace):
        return {"record": "pipeline_trace", **obj.summary()}
    if isinstance(obj, dict):
        return {"record": "report", **obj}
    raise ParameterError(f"cannot serialize {type(obj).__name__} as a report")


def write_report(obj) -> str:
    """Machine-readable (JSON) report mirroring the object's fields."""
    return json.dumps(_record_dict(obj), indent=2, sort_keys=True) + "\n"


def report_keyvalues(obj) -> str:
    """The same report as stable ``key=value`` lines."""
    record = _record_dict(obj)
    return "\n".join(f"{key}={record[key]}" for key in sorted(record)) + "\n"


def parse_keyvalues(text: str) -> dict:
    """Parse ``key=value`` lines back into typed values (round-trip aid)."""
    out: dict = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, raw = line.partition("=")
        if raw in ("True", "False"):
            out[key] = raw == "True"
            continue
        for cast in (int, float):
            try:
                out[key] = cast(raw)
                break
            except ValueError:
                continue
        else:
            out[key] = raw
    return out


def _format_value(value) -> str:
    if isinstance(value, complex) or np.iscomplexobj(value):
        c = complex(value)
        return f"{c.real:.17g}{c.imag:+.17g}i"
    return f"{float(value):.17g}"


def matrix_csv(matrix) -> str:
    """CSV dump, one row per line; complex entries as ``re+imi``."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ParameterError("matrix_csv expects a 2D matrix")
    lines = [",".join(_format_value(v) for v in row) for row in arr]
    return "\n".join(lines) + "\n"


def load_pgm(path) -> np.ndarray:
    return read_pgm(Path(path).read_bytes())


def save_pgm(path, matrix, maxval: int = 255) -> None:
    Path(path).write_bytes(write_pgm(matrix, maxval))
