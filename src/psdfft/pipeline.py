"""Frame-streaming simulator for the optimized decomposition dataflow.

Models the accelerator-style flow functionally: a host packs each frame as
image + boundary row + boundary column (nm + n + m points), the image lands
in external DRAM, the small boundary vectors and the shared row shape nu
live in on-chip BRAM, and local read/write buffers stage data between
memory and the FFT cores.  A control-unit-style trace records every pass's
memory traffic as (pass_label, region, op, points) events; there is no
timing model, and the boundary and image passes have no ordering constraint
between them.

Read events are exactly the points pulled in as 1D-FFT input, so the final
counter's external-memory tally lands on the closed-form optimized cost
3nm + n + m - 1: two image passes (2nm), the border column pass (nm), and
the n + m - 1 distinct boundary values (the corner is read once).  Boundary
work never touches DRAM; only the image passes do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, FormatError, SizeError
from .fft_core import OpCounter, as_real_matrix, fft_axis, is_power_of_two
from .psd import BoundaryData, boundary_data, opsd_boundary_spectrum, periodic_spectrum, smooth_spectrum

MAGIC = b"OPSD"
HEADER = struct.Struct("<4sII")

REGION_NAMES = ("dram", "bram", "local_read", "local_write")


@dataclass(frozen=True, eq=False)
class FramePacket:
    """One host-to-accelerator frame: image plus its boundary vectors.

    The payload order is image (row-major), boundary row, boundary column;
    total nm + n + m points.
    """

    n: int
    m: int
    image: np.ndarray
    boundary_row: np.ndarray
    boundary_col: np.ndarray

    def __post_init__(self):
        if self.image.shape != (self.n, self.m):
            raise SizeError(f"image shape {self.image.shape} does not match {self.n}x{self.m}")
        if self.boundary_row.shape != (self.m,) or self.boundary_col.shape != (self.n,):
            raise SizeError("boundary vector lengths do not match the frame dimensions")

    @property
    def payload(self) -> np.ndarray:
        return np.concatenate([self.image.ravel(), self.boundary_row, self.boundary_col])

    @property
    def payload_length(self) -> int:
        return self.n * self.m + self.n + self.m

    @classmethod
    def from_payload(cls, n: int, m: int, payload) -> "FramePacket":
        flat = np.asarray(payload, dtype=np.float64)
        expected = n * m + n + m
        if flat.shape != (expected,):
            raise SizeError(f"payload must hold {expected} points, got {flat.size}")
        return cls(
            n,
            m,
            flat[: n * m].reshape(n, m),
            flat[n * m : n * m + m],
            flat[n * m + m :],
        )

    def to_bytes(self) -> bytes:
        return HEADER.pack(MAGIC, self.n, self.m) + self.payload.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FramePacket":
        if len(blob) < HEADER.size:
            raise FormatError(f"packet header needs {HEADER.size} bytes, got {len(blob)}", offset=len(blob))
        magic, n, m = HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise FormatError(f"bad packet magic {magic!r}, expected {MAGIC!r}", offset=0)
        expected = (n * m + n + m) * 8
        actual = len(blob) - HEADER.size
        if actual != expected:
            raise FormatError(
                f"packet payload holds {actual} bytes, expected {expected}",
                offset=HEADER.size,
            )
        payload = np.frombuffer(blob, dtype="<f8", offset=HEADER.size)
        return cls.from_payload(n, m, payload.astype(np.float64))

    def boundary(self) -> BoundaryData:
        return BoundaryData(
            self.boundary_row,
            self.boundary_col,
            float(self.boundary_row[0] + self.boundary_row[-1]),
        )


def pack_frame(image) -> FramePacket:
    """Host-side frame packing: boundary vectors ride along with the image."""
    img = as_real_matrix(image)
    n, m = img.shape
    if n < 2 or m < 2:
        raise SizeError(f"frames must be at least 2x2, got {n}x{m}")
    bd = boundary_data(img)
    return FramePacket(n, m, img, bd.first_row, bd.first_col)


@dataclass
class MemoryRegion:
    """One simulated memory with transfer counters and optional capacity.

    ``stored`` tracks resident placement (only enforced where a capacity is
    declared); read/write counts are cumulative point transfers and may
    exceed the capacity through re-reads.
    """

    name: str
    capacity: int | None = None
    read_count: int = 0
    write_count: int = 0
    stored: int = 0

    def place(self, points: int) -> None:
        self.stored += points
        if self.capacity is not None and self.stored > self.capacity:
            raise CapacityError(
                f"{self.name} holds {self.stored} points, capacity {self.capacity}"
            )


@dataclass(frozen=True)
class TraceEvent:
    pass_label: str
    region: str
    op: str
    points: int

    def as_line(self) -> str:
        return f"{self.pass_label},{self.region},{self.op},{self.points}"


@dataclass
class PipelineTrace:
    """Ordered memory-access log of one pipeline run plus its final counter."""

    n: int
    m: int
    regions: dict[str, MemoryRegion]
    events: list[TraceEvent] = field(default_factory=list)
    counter: OpCounter = field(default_factory=OpCounter)

    def record(self, pass_label: str, region: str, op: str, points: int) -> None:
        if op not in ("read", "write"):
            raise ValueError(f"op must be read or write, got {op!r}")
        self.events.append(TraceEvent(pass_label, region, op, int(points)))
        target = self.regions[region]
        if op == "read":
            target.read_count += points
            self.counter.add(ext=points)
        else:
            target.write_count += points

    def ext_mem_points(self) -> int:
        return sum(e.points for e in self.events if e.op == "read")

    def export_lines(self) -> str:
        """Line-delimited records: pass_label,region,op,points."""
        return "\n".join(e.as_line() for e in self.events) + "\n"

    def summary(self) -> dict:
        out: dict = {"n": self.n, "m": self.m, "events": len(self.events)}
        for name in REGION_NAMES:
            region = self.regions[name]
            out[f"{name}_read_points"] = region.read_count
            out[f"{name}_write_points"] = region.write_count
        out["dft_points"] = self.counter.dft_points
        out["ext_mem_points"] = self.counter.ext_mem_points
        return out


def run_pipeline(
    pkt: FramePacket,
    *,
    bram_capacity: int | None = None,
    local_capacity: int | None = None,
) -> tuple[np.ndarray, PipelineTrace]:
    """Run the optimized decomposition over one frame with region accounting.

    Returns the artifact-removed spectrum P_hat and the access trace.  The
    spectra are computed by the same kernels as the in-memory path, so they
    match ``decompose(image, "opsd")`` exactly; the trace records which
    simulated memory every pass touched.

    BRAM holds only the two boundary vectors and nu; its default capacity is
    2n + 2m points and placement beyond that raises CapacityError.  The
    local staging buffers default to one row (m points), a descriptive knob
    for the streaming chunk size.
    """
    n, m = pkt.n, pkt.m
    if n < 2 or m < 2 or not (is_power_of_two(n) and is_power_of_two(m)):
        raise SizeError(f"pipeline frames need power-of-two dims >= 2, got {n}x{m}")

    if bram_capacity is None:
        bram_capacity = 2 * n + 2 * m
    if local_capacity is None:
        local_capacity = m
    trace = PipelineTrace(
        n,
        m,
        regions={
            "dram": MemoryRegion("dram"),
            "bram": MemoryRegion("bram", capacity=bram_capacity),
            "local_read": MemoryRegion("local_read", capacity=local_capacity),
            "local_write": MemoryRegion("local_write", capacity=local_capacity),
        },
    )
    nm = n * m

    # Frame ingest: image to external DRAM, boundary vectors to BRAM.
    trace.regions["dram"].place(nm)
    trace.record("ingest", "dram", "write", nm)
    trace.regions["bram"].place(n + m)
    trace.record("ingest", "bram", "write", n + m)

    # nu is built on-device next to the boundary vectors (twiddle
    # arithmetic, not DFT work).
    trace.regions["bram"].place(m)
    trace.record("nu_setup", "bram", "write", m)

    # Image passes: plain row-column 2D FFT against DRAM.
    trace.record("image_rows", "dram", "read", nm)
    ihat = fft_axis(pkt.image, axis=1)
    trace.counter.add(dft=nm)
    trace.record("image_rows", "dram", "write", nm)

    trace.record("image_cols", "dram", "read", nm)
    ihat = fft_axis(ihat, axis=0)
    trace.counter.add(dft=nm)
    trace.record("image_cols", "dram", "write", nm)

    # Boundary passes: BRAM-resident shortcut, no DRAM traffic.  The row
    # stage reads the n + m - 1 distinct boundary points (shared corner read
    # once) and stages the single row FFT for the column stage; the column
    # stage assembles each of its n * m input points from the staged row,
    # nu, and the scale factors.
    trace.record("boundary_rows", "bram", "read", n + m - 1)
    bhat = opsd_boundary_spectrum(pkt.boundary())
    trace.counter.add(dft=m)
    trace.record("boundary_rows", "local_read", "write", m)

    trace.record("boundary_cols", "local_read", "read", m)
    trace.record("boundary_cols", "bram", "read", m * (n - 1))
    trace.counter.add(dft=nm)
    trace.record("boundary_cols", "local_write", "write", nm)

    # Spectrum combine is elementwise bookkeeping; only the result landing
    # in external memory is traced.
    phat = periodic_spectrum(ihat, smooth_spectrum(bhat))
    trace.record("spectrum_out", "dram", "write", nm)

    return phat, trace
