"""The benchmark's workloads: seeded inputs, the timed frame, the checks.

Each workload is a closed-loop stream with one caller: the next frame is
sent when the previous one returns.  Inputs are made with numpy from the
seed before the clock starts, so the library receives only arrays or bytes.
The frame functions take the imported ``psdfft`` module as an argument and
look every library function up on it at call time, so the tracer's wrappers
are seen.  Checks run outside the clock and use :mod:`oracle`, not the
library, for every value they compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

import oracle

# Failure reasons.  A frame fails when it has at least one.  All but
# "reconcile" mean that an output value was wrong or missing.
REASONS = ("exception", "spectrum", "reconstruct", "reconcile", "roundtrip")
VALUE_REASONS = tuple(r for r in REASONS if r != "reconcile")

PGM_MAXVAL = 65535
PACKET_SIDES = (16, 32, 64, 128, 256)


@dataclass
class Verdict:
    """Outcome of one frame's checks, plus the exact counts it reported."""

    reasons: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named stream of frames.

    The stream visits ``shapes`` in seeded blocks: every block of
    ``len(shapes)`` frames holds each shape once, in a random order, so the
    shape mix of a run does not depend on the seed.  A run stops only at a
    block boundary, and not before ``min_frames`` frames, so that a
    90th-percentile latency has at least ten samples beyond it.
    """

    name: str
    shapes: tuple[tuple[int, int], ...]
    min_frames: int
    make_input: Callable[[np.random.Generator, tuple[int, int]], Any]
    frame: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], Verdict]

    def input(self, seed: int, index: int):
        """Input of frame ``index`` of the stream for ``seed``."""
        block, pos = divmod(index, len(self.shapes))
        order = np.random.default_rng([seed, 1, block]).permutation(len(self.shapes))
        shape = self.shapes[order[pos]]
        return self.make_input(np.random.default_rng([seed, 0, index]), shape)

    def warm_inputs(self, seed: int) -> list:
        """One input per distinct shape, for the untimed warm-up frames."""
        return [
            self.make_input(np.random.default_rng([seed, 2, k]), shape)
            for k, shape in enumerate(self.shapes)
        ]


def _reconciles(pf, shape, counter) -> bool:
    expected = pf.cost_table(*shape).opsd
    return counter.dft_points == expected.dft_points and counter.ext_mem_points == expected.dram_points


def _counter_counts(counter, exact: bool) -> dict[str, float]:
    return {
        "fft_core.dft_points": counter.dft_points,
        "fft_core.ext_mem_points": counter.ext_mem_points,
        "cost_model.reconcile_exact_ratio": 1.0 if exact else 0.0,
    }


# -- spectra512: pack_frame -> spectra(opsd) ---------------------------------


class SpectraOut(NamedTuple):
    phat: np.ndarray
    counter: Any


def uniform_image(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.random(shape)


def frame_spectra(pf, image: np.ndarray) -> SpectraOut:
    counter = pf.OpCounter()
    pkt = pf.pack_frame(image)
    parts = pf.spectra(pkt.image, "opsd", counter)
    return SpectraOut(parts.phat, counter)


def check_spectra(pf, image: np.ndarray, out: SpectraOut) -> Verdict:
    verdict = Verdict()
    if not oracle.spectrum_error(out.phat, image) <= oracle.SPECTRUM_TOL:
        verdict.reasons.append("spectrum")
    exact = _reconciles(pf, image.shape, out.counter)
    if not exact:
        verdict.reasons.append("reconcile")
    verdict.counts.update(_counter_counts(out.counter, exact))
    return verdict


# -- decompose2048: what `psdfft decompose` does, minus the disk -------------


class PgmFrame(NamedTuple):
    pixels: np.ndarray
    blob: bytes


class DecomposeOut(NamedTuple):
    parts: Any
    panels: dict[str, bytes]
    report: str
    counter: Any


def ramp_pgm(rng: np.random.Generator, shape) -> PgmFrame:
    """16-bit ramp plus noise: opposite edges differ by most of the range,
    so the periodic extension is discontinuous."""
    n, m = shape
    ramp = 40000.0 * np.arange(n)[:, None] / n + 20000.0 * np.arange(m)[None, :] / m
    noisy = ramp + rng.normal(0.0, 800.0, shape) + 2000.0
    pixels = np.clip(np.rint(noisy), 0, PGM_MAXVAL).astype(np.uint16)
    return PgmFrame(pixels, oracle.encode_p5(pixels))


def frame_decompose(pf, frame: PgmFrame) -> DecomposeOut:
    counter = pf.OpCounter()
    image = pf.read_pgm(frame.blob)
    parts = pf.decompose(image, "opsd", counter)
    panels = {}
    for name, matrix in (
        ("p", parts.periodic),
        ("s", parts.smooth),
        ("phat", pf.spectrum_export(parts.phat).data),
        ("shat", pf.spectrum_export(parts.shat).data),
    ):
        scaled, _gain, _offset = pf.display_scale(matrix, PGM_MAXVAL)
        panels[name] = pf.write_pgm(scaled, PGM_MAXVAL)
    return DecomposeOut(parts, panels, pf.write_report(counter), counter)


def check_decompose(pf, frame: PgmFrame, out: DecomposeOut) -> Verdict:
    verdict = Verdict()
    image = frame.pixels.astype(np.float64)
    parts = out.parts
    if not oracle.spectrum_error(parts.phat, image) <= oracle.SPECTRUM_TOL:
        verdict.reasons.append("spectrum")
    recon, mean = oracle.reconstruct_errors(image, parts.periodic, parts.smooth)
    if not (recon <= oracle.RECONSTRUCT_TOL and mean <= oracle.RECONSTRUCT_TOL):
        verdict.reasons.append("reconstruct")
    exact = _reconciles(pf, image.shape, out.counter)
    if not exact:
        verdict.reasons.append("reconcile")

    expected_panels = {
        "p": parts.periodic,
        "s": parts.smooth,
        "phat": oracle.log_magnitude_panel(parts.phat),
        "shat": oracle.log_magnitude_panel(parts.shat),
    }
    panels_ok = out.panels.keys() == expected_panels.keys() and all(
        oracle.panel_matches(out.panels[name], matrix, PGM_MAXVAL)
        for name, matrix in expected_panels.items()
    )
    report = json.loads(out.report)
    report_ok = (
        report.get("dft_points") == out.counter.dft_points
        and report.get("ext_mem_points") == out.counter.ext_mem_points
    )
    if not (panels_ok and report_ok):
        verdict.reasons.append("roundtrip")

    verdict.counts.update(_counter_counts(out.counter, exact))
    verdict.counts["io_formats.bytes_in"] = len(frame.blob)
    verdict.counts["io_formats.bytes_out"] = sum(map(len, out.panels.values())) + len(out.report.encode())
    return verdict


# -- packets_mixed: packet codec -> run_pipeline -> reconcile ----------------


class PacketOut(NamedTuple):
    sent: Any
    blob: bytes
    received: Any
    phat: np.ndarray
    trace: Any
    reconciliation: Any


def normal_image(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape)


def frame_packets(pf, image: np.ndarray) -> PacketOut:
    sent = pf.pack_frame(image)
    blob = sent.to_bytes()
    received = pf.FramePacket.from_bytes(blob)
    phat, trace = pf.run_pipeline(received)
    reconciliation = pf.reconcile(pf.cost_table(received.n, received.m).opsd, trace.counter)
    return PacketOut(sent, blob, received, phat, trace, reconciliation)


def check_packets(pf, image: np.ndarray, out: PacketOut) -> Verdict:
    verdict = Verdict()
    if not oracle.spectrum_error(out.phat, image) <= oracle.SPECTRUM_TOL:
        verdict.reasons.append("spectrum")
    counter = out.trace.counter
    exact = _reconciles(pf, image.shape, counter) and out.reconciliation.exact
    if not exact:
        verdict.reasons.append("reconcile")
    n, m = image.shape
    sent, received = out.sent, out.received
    roundtrip_ok = (
        len(out.blob) == 12 + 8 * (n * m + n + m)
        and (received.n, received.m) == (n, m)
        and np.array_equal(received.image, sent.image)
        and np.array_equal(received.boundary_row, sent.boundary_row)
        and np.array_equal(received.boundary_col, sent.boundary_col)
    )
    if not roundtrip_ok:
        verdict.reasons.append("roundtrip")

    verdict.counts.update(_counter_counts(counter, exact))
    regions = out.trace.regions
    verdict.counts["pipeline.trace_events"] = len(out.trace.events)
    verdict.counts["pipeline.dram_read_points"] = regions["dram"].read_count
    verdict.counts["pipeline.bram_read_points"] = regions["bram"].read_count
    verdict.counts["pipeline.payload_bytes"] = len(out.blob)
    return verdict


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's real-time case: forward transform only, 23 fps bar.
        Workload("spectra512", ((512, 512),), 100, uniform_image, frame_spectra, check_spectra),
        # The only workload on the inverse path and on io_formats.
        Workload("decompose2048", ((2048, 2048),), 1, ramp_pgm, frame_decompose, check_decompose),
        # Small, mostly non-square frames: per-call and per-shape overhead.
        Workload(
            "packets_mixed",
            tuple((n, m) for n in PACKET_SIDES for m in PACKET_SIDES),
            100,
            normal_image,
            frame_packets,
            check_packets,
        ),
    )
}
