"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps the public functions of each psdfft module at every
site that imported them (for example ``psdfft.psd.fft_2d`` as well as
``psdfft.fft_core.fft_2d``), so calls between modules are seen without
editing the library.  Spans are kept in memory as (name, start, end,
parent, frame) and written out when the run ends.  Calls made outside a
frame, such as the benchmark's own checks, pass straight through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Layers are the library's modules.  baselines and cli are left out:
# baselines only feeds a larger array to fft_2d, and cli only wraps calls
# that the workloads make directly.
TARGETS = {
    "fft_core": ("fft_2d", "ifft_2d", "fft_axis", "fft_1d"),
    "psd": (
        "spectra",
        "decompose",
        "boundary_data",
        "opsd_boundary_spectrum",
        "smooth_spectrum",
        "periodic_spectrum",
    ),
    "pipeline": ("pack_frame", "FramePacket.to_bytes", "FramePacket.from_bytes", "run_pipeline"),
    "cost_model": ("cost_table", "reconcile"),
    "io_formats": ("read_pgm", "spectrum_export", "display_scale", "write_pgm", "write_report"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TARGETS.items() for name in names)
FRAME_SPAN = "frame"


def _fft_axis_flops(a, axis, *args, **kwargs) -> float:
    """Nominal radix-2 operation count, 5 N log2(len), of one fft_axis pass."""
    return 5.0 * a.size * math.log2(a.shape[axis])


# Work counted per call, for the computed rates.
WORK = {"fft_core.fft_axis": _fft_axis_flops}


class Tracer:
    """In-memory span log over wrapped psdfft functions."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._frame: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _install(self) -> None:
        """Replace every target at each of its import sites."""
        modules = [mod for name, mod in sys.modules.items() if name == "psdfft" or name.startswith("psdfft.")]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"psdfft.{layer}")
            for qualname in names:
                span = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(span, raw.__func__)))
                    else:
                        self._patch(cls, attr, self._wrap(span, raw))
                    continue
                original = getattr(home, qualname)
                wrapped = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def _remove(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._remove()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._frame is None:
                return fn(*args, **kwargs)
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            index = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start, perf_counter())

        return traced

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._frame)

    @contextlib.contextmanager
    def frame(self, frame_id: int):
        """Root span of one frame; wrapped calls inside it are recorded."""
        self._frame = frame_id
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, FRAME_SPAN, start, perf_counter())
            self._frame = None

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and call count per span name.  A span's self
        time is its duration minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            seconds[name] += (end - start) - child
            calls[name] += 1
        return seconds, calls

    def write_csv(self, path: Path) -> None:
        """One line per span, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        lines = ["index,frame,parent,name,start_s,end_s"]
        lines += [
            f"{i},{frame},{parent},{name},{start - origin:.9f},{end - origin:.9f}"
            for i, (name, start, end, parent, frame) in enumerate(self.spans)
        ]
        path.write_text("\n".join(lines) + "\n")
