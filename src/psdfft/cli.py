"""Command-line front end.

Subcommands
-----------
decompose     split a PGM image into periodic/smooth parts and export them
spectrum      export one spectrum rendering of a PGM image
compare       cross-axis artifact energy of opsd vs mirroring vs windowing
cost          closed-form cost table rows for a frame size
pipeline-sim  run the dataflow simulator and reconcile its trace
bench         time repeated frames and report ms/frame and frames/second

Exit codes: 0 success, 2 usage (argparse), 3 unreadable/malformed input,
4 unsupported dimensions, 5 bad parameter or simulated-capacity overflow,
6 pipeline-sim trace that does not reconcile with the closed-form cost.

Identical seeds and flags produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import WindowSpec, apodize, mirror_image
from .cost_model import cost_table, reconcile
from .errors import CapacityError, FormatError, ParameterError, SizeError
from .fft_core import OpCounter, fft_2d
from .io_formats import (
    display_scale,
    load_pgm,
    matrix_csv,
    report_keyvalues,
    save_pgm,
    spectrum_export,
    write_report,
)
from .pipeline import pack_frame, run_pipeline
from .psd import cross_axis_energy, decompose, spectra

# Conventional real-time bar for 512x512 image streams; informational on CPU.
REAL_TIME_FPS = 23.0

EXIT_MISMATCH = 6


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psdfft", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"psdfft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="periodic-plus-smooth decomposition of a PGM image")
    p_dec.add_argument("input", type=Path, help="input PGM (P2 or P5), power-of-two dims")
    p_dec.add_argument("--method", choices=("opsd", "psd"), default="opsd")
    p_dec.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_dec.add_argument("--maxval", type=int, choices=(255, 65535), default=255)

    p_spec = sub.add_parser("spectrum", help="export a spectrum rendering of a PGM image")
    p_spec.add_argument("input", type=Path)
    p_spec.add_argument("--mode", choices=("magnitude", "log_magnitude", "phase", "real", "imag"),
                        default="log_magnitude")
    p_spec.add_argument("--no-shift", dest="shift", action="store_false", help="keep DC at (0,0)")
    p_spec.add_argument("--out", type=Path, default=Path("."))
    p_spec.add_argument("--maxval", type=int, choices=(255, 65535), default=255)

    p_cmp = sub.add_parser("compare", help="artifact energy: opsd vs mirroring vs windowing")
    p_cmp.add_argument("input", type=Path)
    p_cmp.add_argument("--window", choices=("tukey", "hamming", "rect"), default="tukey")
    p_cmp.add_argument("--alpha", type=float, default=0.5, help="tukey taper fraction")
    p_cmp.add_argument("--out", type=Path, default=Path("."))

    p_cost = sub.add_parser("cost", help="closed-form cost table for a frame size")
    p_cost.add_argument("--n", type=_positive, required=True)
    p_cost.add_argument("--m", type=_positive, required=True)
    p_cost.add_argument("--out", type=Path, default=None, help="also write JSON reports here")

    p_sim = sub.add_parser("pipeline-sim", help="simulate the frame pipeline and reconcile costs")
    p_sim.add_argument("--n", type=_positive, required=True)
    p_sim.add_argument("--m", type=_positive, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", type=Path, default=Path("."))

    p_bench = sub.add_parser("bench", help="time repeated decompositions of random frames")
    p_bench.add_argument("--n", type=_positive, default=512)
    p_bench.add_argument("--m", type=_positive, default=512)
    p_bench.add_argument("--frames", type=_positive, default=100)
    p_bench.add_argument("--seed", type=int, default=0)

    return parser


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_decompose(args) -> int:
    image = load_pgm(args.input)
    counter = OpCounter()
    method = "opsd" if args.method == "opsd" else "naive_psd"
    parts = decompose(image, method, counter)

    stem = args.input.stem
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    scales = {}
    for name, matrix in (
        ("p", parts.periodic),
        ("s", parts.smooth),
        ("phat_logmag", spectrum_export(parts.phat).data),
        ("shat_logmag", spectrum_export(parts.shat).data),
    ):
        scaled, gain, offset = display_scale(matrix, args.maxval)
        save_pgm(out / f"{stem}_{name}.pgm", scaled, args.maxval)
        scales[f"{name}_gain"] = gain
        scales[f"{name}_offset"] = offset

    ihat = parts.phat + parts.shat
    report = {
        "input": str(args.input),
        "method": args.method,
        "n": image.shape[0],
        "m": image.shape[1],
        "dft_points": counter.dft_points,
        "ext_mem_points": counter.ext_mem_points,
        "artifact_energy_input": cross_axis_energy(ihat),
        "artifact_energy_periodic": cross_axis_energy(parts.phat),
        "smooth_max_abs": float(np.abs(parts.smooth).max()),
        **scales,
    }
    _write(out / f"{stem}_report.json", write_report(report))
    print(report_keyvalues(report), end="")
    return 0


def cmd_spectrum(args) -> int:
    image = load_pgm(args.input)
    export = spectrum_export(fft_2d(image), args.mode, args.shift)
    scaled, gain, offset = display_scale(export.data, args.maxval)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    stem = args.input.stem
    save_pgm(out / f"{stem}_{args.mode}.pgm", scaled, args.maxval)
    _write(out / f"{stem}_{args.mode}.csv", matrix_csv(export.data))
    report = {
        "input": str(args.input),
        "mode": args.mode,
        "shift": export.shift,
        "gain": gain,
        "offset": offset,
    }
    _write(out / f"{stem}_{args.mode}.json", write_report(report))
    print(report_keyvalues(report), end="")
    return 0


def cmd_compare(args) -> int:
    image = load_pgm(args.input)
    window = WindowSpec(args.window, args.alpha)

    raw = spectra(image, "opsd")
    mirrored_hat = fft_2d(mirror_image(image))
    windowed_hat = fft_2d(apodize(image, window))

    rows = [
        ("input", cross_axis_energy(raw.ihat)),
        ("opsd", cross_axis_energy(raw.phat)),
        ("mirror", cross_axis_energy(mirrored_hat)),
        (f"window_{args.window}", cross_axis_energy(windowed_hat)),
    ]
    lines = ["method,cross_axis_energy"]
    lines += [f"{name},{energy:.17g}" for name, energy in rows]
    table = "\n".join(lines) + "\n"

    args.out.mkdir(parents=True, exist_ok=True)
    _write(args.out / f"{args.input.stem}_compare.csv", table)
    print(table, end="")
    return 0


def cmd_cost(args) -> int:
    table = cost_table(args.n, args.m)
    for report in table:
        print(report_keyvalues(report), end="")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for report in table:
            _write(args.out / f"cost_{report.algorithm}_{args.n}x{args.m}.json", write_report(report))
    return 0


def cmd_pipeline_sim(args) -> int:
    rng = np.random.default_rng(args.seed)
    image = rng.random((args.n, args.m))
    phat, trace = run_pipeline(pack_frame(image))

    expected = cost_table(args.n, args.m).opsd
    result = reconcile(expected, trace.counter, algorithm="opsd", n=args.n, m=args.m)

    args.out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.n}x{args.m}_seed{args.seed}"
    _write(args.out / f"trace_{tag}.csv", trace.export_lines())
    _write(args.out / f"trace_{tag}_summary.json", write_report(trace))
    _write(args.out / f"reconcile_{tag}.json", write_report(result))

    if result.exact:
        print(f"reconciliation: exact match ({trace.counter.ext_mem_points} ext-mem points, "
              f"{trace.counter.dft_points} dft points)")
    else:
        print(f"reconciliation: MISMATCH (dft delta {result.dft_delta}, "
              f"dram delta {result.dram_delta})")
    print(f"periodic spectrum DC: {phat[0, 0].real:.6g}")
    return 0 if result.exact else EXIT_MISMATCH


@dataclass
class BenchResult:
    n: int
    m: int
    frames: int
    ms_per_frame: float
    fps: float
    dft_points: int
    ext_mem_points: int


def run_bench(n: int, m: int, frames: int, seed: int = 0) -> BenchResult:
    """Time ``frames`` optimized decompositions of random n x m frames.

    Only the per-frame transform work (packing plus spectra) is timed;
    frame generation sits outside the clock.  Timing never feeds any
    correctness path.
    """
    rng = np.random.default_rng(seed)
    counter = OpCounter()
    batch = [rng.random((n, m)) for _ in range(frames)]
    elapsed = 0.0
    for image in batch:
        start = time.perf_counter()
        pkt = pack_frame(image)
        spectra(pkt.image, "opsd", counter)
        elapsed += time.perf_counter() - start
    ms = elapsed * 1000.0 / frames
    return BenchResult(n, m, frames, ms, 1000.0 / ms if ms > 0 else float("inf"),
                       counter.dft_points, counter.ext_mem_points)


def cmd_bench(args) -> int:
    result = run_bench(args.n, args.m, args.frames, args.seed)
    verdict = "meets" if result.fps >= REAL_TIME_FPS else "below"
    print(f"frames={result.frames} size={result.n}x{result.m}")
    print(f"ms_per_frame={result.ms_per_frame:.3f}")
    print(f"frames_per_second={result.fps:.2f} ({verdict} the {REAL_TIME_FPS:g} fps real-time bar)")
    print(f"dft_points={result.dft_points}")
    print(f"ext_mem_points={result.ext_mem_points}")
    return 0


_COMMANDS = {
    "decompose": cmd_decompose,
    "spectrum": cmd_spectrum,
    "compare": cmd_compare,
    "cost": cmd_cost,
    "pipeline-sim": cmd_pipeline_sim,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParameterError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
