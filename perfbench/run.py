"""Frame-stream benchmark of psdfft.

    python3 perfbench/run.py --workload spectra512 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory, never from an installed copy.  With ``--trace 0`` the run prints
the end-to-end metrics (fps, median and 90th-percentile frame latency,
set-up time, peak resident memory); with ``--trace 1`` it prints the
per-layer self times and counts of a traced run and its tracing overhead.
Human-readable lines start with ``#``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, including every frame latency and, for traced
runs, every span, are written under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import REASONS, VALUE_REASONS, Verdict, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-up is also measured in fresh processes besides the measuring one: at
# least MIN_PROBES, and more, up to MAX_PROBES, while they have taken less
# than PROBE_BUDGET_S in all.  Cheap set-ups thus get a steadier median.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 2, 6, 3.0
PROBE_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result: no library in the checkout, or
    no frame completed."""


# -- set-up ------------------------------------------------------------------


def check_checkout(root: Path) -> Path:
    """The psdfft package directory under ``root``, which must exist."""
    package = root / "src" / "psdfft"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no psdfft sources under {package}")
    return package


def load_psdfft(root: Path):
    """Import psdfft from ``root/src``; refuse any other copy."""
    package = check_checkout(root)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import psdfft

    if Path(psdfft.__file__).resolve().parent != package.resolve():
        raise BenchError(f"psdfft was imported from {psdfft.__file__}, not {package}")
    return psdfft


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(wl: Workload, root: Path, seed: int):
    """``import psdfft`` plus one untimed warm-up frame per distinct shape.

    Returns (module, seconds, peak RSS in MiB).  Inputs are made before the
    clock starts; the RSS is read before any check could raise it.
    """
    inputs = wl.warm_inputs(seed)
    start = time.perf_counter()
    pf = load_psdfft(root)
    for inp in inputs:
        wl.frame(pf, inp)
    seconds = time.perf_counter() - start
    return pf, seconds, peak_rss_mib()


def probe_setup(wl: Workload, seed: int) -> tuple[float, float]:
    """Set-up time and peak RSS measured in a fresh process.

    The probe is this script run with ``--setup-probe``.  It is a plain child
    process, waited for on every path out (``subprocess.run`` kills and reaps
    it on a timeout or an exception), so no helper process outlives a run.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe exited with {done.returncode}:\n{done.stderr}")
    seconds, rss = json.loads(done.stdout.strip().splitlines()[-1])
    return seconds, rss


# -- the closed loop -----------------------------------------------------------


@dataclass
class Stream:
    """What one timed loop did."""

    latencies_ms: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    counts: dict[str, float] = field(default_factory=dict)
    first_error: str | None = None

    def add(self, verdict: Verdict) -> None:
        self.attempted += 1
        if verdict.reasons:
            self.failed += 1
            self.reasons.update(set(verdict.reasons))
        for key, value in verdict.counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + value

    @property
    def fps(self) -> float:
        return len(self.latencies_ms) / self.timed_s if self.timed_s > 0 else 0.0

    @property
    def correct(self) -> bool:
        return not any(self.reasons[r] for r in VALUE_REASONS)

    def mean_counts(self) -> dict[str, float]:
        return {key: total / self.attempted for key, total in self.counts.items()}


def _one_frame(wl: Workload, pf, inp, stream: Stream, tracer, index: int) -> None:
    """Run, time and check one frame.  Only the frame call is on the clock."""
    scope = tracer.frame(index) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            out = wl.frame(pf, inp)
    except Exception:
        stream.timed_s += time.perf_counter() - start
        if stream.first_error is None:
            stream.first_error = traceback.format_exc()
        stream.add(Verdict(["exception"]))
        return
    elapsed = time.perf_counter() - start
    stream.timed_s += elapsed
    stream.latencies_ms.append(elapsed * 1000.0)
    stream.add(wl.check(pf, inp, out))


def run_block(wl: Workload, pf, seed: int, index: int, stream: Stream,
              tracer: tracing.Tracer | None = None) -> int:
    """Send one block of frames, one after another, starting at frame
    ``index``; return the index of the next frame."""
    for _ in range(len(wl.shapes)):
        _one_frame(wl, pf, wl.input(seed, index), stream, tracer, index)
        index += 1
    return index


def run_stream(wl: Workload, pf, seed: int, seconds: float) -> Stream:
    """Send blocks until ``seconds`` of frame time and the workload's
    minimum number of frames are done."""
    stream = Stream()
    index = 0
    while stream.timed_s < seconds or stream.attempted < wl.min_frames:
        index = run_block(wl, pf, seed, index, stream)
    return stream


# -- reference row and environment -----------------------------------------------


def _median_ms(fn, x, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def reference_row(wl: Workload, seed: int) -> dict[str, float]:
    """numpy.fft.fft2 and rfft2 times at the workload's frame shapes, per
    frame (each shape is equally frequent in the stream)."""
    rng = np.random.default_rng([seed, 3])
    fft2, rfft2 = [], []
    for shape in wl.shapes:
        x = rng.random(shape)
        reps = int(np.clip(4e6 / x.size, 3, 25))
        np.fft.fft2(x)
        fft2.append(_median_ms(np.fft.fft2, x, reps))
        rfft2.append(_median_ms(np.fft.rfft2, x, reps))
    return {
        "reference.numpy_fft2_ms": statistics.fmean(fft2),
        "reference.numpy_rfft2_ms": statistics.fmean(rfft2),
    }


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "PSDFFT_THREADS": os.environ.get("PSDFFT_THREADS", "unset (library default)"),
        "caches": _cache_sizes(),
    }


# -- the two kinds of run ------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(wl: Workload, root: Path, seed: int, seconds: float) -> tuple[dict, Stream, dict]:
    """End-to-end run: set-up probes, then the untraced closed loop."""
    probes = []
    started = time.perf_counter()
    while len(probes) < MIN_PROBES or (
        len(probes) < MAX_PROBES and time.perf_counter() - started < PROBE_BUDGET_S
    ):
        probes.append(probe_setup(wl, seed))
    pf, setup_s, rss = set_up(wl, root, seed)
    probes.append((setup_s, rss))
    reference = reference_row(wl, seed)
    stream = run_stream(wl, pf, seed, seconds)
    latencies = stream.latencies_ms
    if not latencies:
        raise BenchError(f"no frame completed; first error:\n{stream.first_error}")
    metrics = {
        "fps": _metric(stream.fps, "frames/s"),
        "frame_ms_p50": _metric(np.percentile(latencies, 50), "ms"),
        "frame_ms_p90": _metric(np.percentile(latencies, 90), "ms"),
        "setup_s": _metric(statistics.median(s for s, _ in probes), "s"),
        "peak_rss_mib": _metric(statistics.median(r for _, r in probes), "MiB"),
    }
    extra = {"reference": reference, "setup_samples": probes}
    return metrics, stream, extra


# Exact counts per frame, from the checks (outside the clock).
COUNT_METRICS = {
    "fft_core.dft_points": "points",
    "fft_core.ext_mem_points": "points",
    "pipeline.trace_events": "count",
    "pipeline.dram_read_points": "points",
    "pipeline.bram_read_points": "points",
    "pipeline.payload_bytes": "bytes",
    "cost_model.reconcile_exact_ratio": "ratio",
    "io_formats.bytes_in": "bytes",
    "io_formats.bytes_out": "bytes",
}


def measure_traced(wl: Workload, root: Path, seed: int, seconds: float,
                   spans_path: Path | None = None) -> tuple[dict, Stream, dict]:
    """Per-layer run: blocks alternate between untraced and traced, so a
    drift in machine speed falls on both halves alike."""
    pf, _, _ = set_up(wl, root, seed)
    reference = reference_row(wl, seed)
    plain, traced, tracer = Stream(), Stream(), tracing.Tracer()
    index = 0
    while plain.timed_s + traced.timed_s < seconds:
        index = run_block(wl, pf, seed, index, plain)
        with tracer.installed():
            index = run_block(wl, pf, seed, index, traced, tracer)
    if spans_path is not None:
        tracer.write_csv(spans_path)

    frames = traced.attempted
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_ms"] = _metric(self_s.get(name, 0.0) * 1000.0 / frames, "ms")
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0) / frames, "count")
    counts = traced.mean_counts()
    for name, unit in COUNT_METRICS.items():
        metrics[name] = _metric(counts.get(name, 0.0), unit)
    axis_s = self_s.get("fft_core.fft_axis", 0.0)
    mflops = tracer.work["fft_core.fft_axis"] / axis_s / 1e6 if axis_s > 0 else 0.0
    metrics["fft_core.fft_axis.mflops_computed"] = _metric(mflops, "MFLOP/s")
    for name, value in reference.items():
        metrics[name] = _metric(value, "ms")
    frame_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == tracing.FRAME_SPAN)
    metrics["trace.frame_ms"] = _metric(frame_s * 1000.0 / frames, "ms")
    metrics["trace.glue_ms"] = _metric(self_s.get(tracing.FRAME_SPAN, 0.0) * 1000.0 / frames, "ms")
    metrics["trace.fps_untraced"] = _metric(plain.fps, "frames/s")
    metrics["trace.fps_traced"] = _metric(traced.fps, "frames/s")
    overhead = (plain.fps / traced.fps - 1.0) * 100.0 if traced.fps > 0 else 0.0
    metrics["trace.overhead_pct"] = _metric(overhead, "%")

    both = Stream(
        latencies_ms=plain.latencies_ms + traced.latencies_ms,
        timed_s=plain.timed_s + traced.timed_s,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        reasons=plain.reasons + traced.reasons,
        first_error=plain.first_error or traced.first_error,
    )
    extra = {"reference": reference, "untraced_frames": plain.attempted, "traced_frames": frames}
    return metrics, both, extra


# -- command line --------------------------------------------------------------


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"seconds must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Frame-stream benchmark of psdfft.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: time one set-up in this process and print [seconds, MiB].
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        check_checkout(ROOT)
        if args.setup_probe:
            _, seconds, rss = set_up(wl, ROOT, args.seed)
            print(json.dumps([seconds, rss]))
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        if args.trace:
            metrics, stream, extra = measure_traced(
                wl, ROOT, args.seed, args.seconds, spans_path=OUT_DIR / f"{tag}-spans.csv")
        else:
            metrics, stream, extra = measure(wl, ROOT, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment()
    result = {
        "correct": stream.correct,
        "attempted": stream.attempted,
        "failed": stream.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "failures_by_reason": {r: stream.reasons[r] for r in REASONS},
        "first_error": stream.first_error,
        "frame_latencies_ms": stream.latencies_ms,
        **extra,
        "result": result,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# {tag}: {len(stream.latencies_ms)} frames completed, "
          f"{stream.attempted} attempted, {stream.failed} failed")
    print(f"# failures by reason: {json.dumps(detail['failures_by_reason'])}")
    if stream.first_error:
        print("# first exception:\n# " + stream.first_error.rstrip().replace("\n", "\n# "))
    print(f"# environment: {json.dumps(env)}")
    print(f"# reference: {json.dumps(extra['reference'])}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
