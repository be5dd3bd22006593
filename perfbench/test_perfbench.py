"""Self-test of the frame-stream benchmark, at tiny frame sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_SHAPES = {
    "spectra512": ((16, 16),),
    "decompose2048": ((32, 32),),
    "packets_mixed": tuple((n, m) for n in (4, 8, 16) for m in (4, 8, 16)),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], shapes=TINY_SHAPES[name])


@pytest.fixture(scope="module")
def pf():
    return run.load_psdfft(ROOT)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_present_with_units(name):
    metrics, stream, _ = run.measure(tiny(name), ROOT, seed=3, seconds=0.05)
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    assert stream.correct and stream.attempted >= workloads.WORKLOADS[name].min_frames


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_present_with_units(name):
    metrics, stream, _ = run.measure_traced(tiny(name), ROOT, seed=3, seconds=0.1)
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert stream.correct
    value = {k: v["value"] for k, v in metrics.items()}

    # Self times plus the benchmark's own glue account for the frame time.
    self_sum = sum(value[f"{span}.self_ms"] for span in tracing.SPAN_NAMES)
    assert self_sum + value["trace.glue_ms"] == pytest.approx(value["trace.frame_ms"], rel=1e-9)
    assert value["trace.glue_ms"] < 0.5 * value["trace.frame_ms"]

    # A function the workload never calls reads zero.
    if name != "decompose2048":
        assert value["fft_core.ifft_2d.calls"] == 0 and value["fft_core.ifft_2d.self_ms"] == 0
        assert value["io_formats.write_pgm.calls"] == 0
    else:
        assert value["fft_core.ifft_2d.calls"] == 2 and value["io_formats.write_pgm.calls"] == 4
    if name != "packets_mixed":
        assert value["pipeline.run_pipeline.calls"] == 0


def test_square_counts_match_cost_table(pf):
    metrics, _, _ = run.measure_traced(tiny("spectra512"), ROOT, seed=4, seconds=0.05)
    expected = pf.cost_table(16, 16).opsd
    assert metrics["fft_core.dft_points"]["value"] == expected.dft_points
    assert metrics["fft_core.ext_mem_points"]["value"] == expected.dram_points
    assert metrics["cost_model.reconcile_exact_ratio"]["value"] == 1.0


def test_non_square_packets_are_reported_as_reconcile_failures():
    _, stream, _ = run.measure_traced(tiny("packets_mixed"), ROOT, seed=5, seconds=0.05)
    # 6 of every 9 shapes are non-square; none is filtered out.
    assert stream.reasons["reconcile"] == stream.failed == stream.attempted * 6 // 9
    assert stream.correct


def _tally(verdict: workloads.Verdict) -> run.Stream:
    stream = run.Stream()
    stream.add(verdict)
    return stream


def test_negative_control_perturbed_phat_fails(pf):
    image = np.random.default_rng(6).random((16, 16))
    out = workloads.frame_spectra(pf, image)
    assert _tally(workloads.check_spectra(pf, image, out)).failed == 0

    phat = out.phat.copy()
    phat[3, 5] += 1e-6 * np.linalg.norm(image)
    stream = _tally(workloads.check_spectra(pf, image, out._replace(phat=phat)))
    assert stream.failed == 1 and stream.reasons["spectrum"] == 1 and not stream.correct


def test_negative_control_inconsistent_packet_fails(pf):
    # A packet whose boundary row disagrees with its image is accepted and
    # run_pipeline returns a wrong spectrum without raising.
    image = np.random.default_rng(7).random((8, 16))
    good = pf.pack_frame(image)
    bad = pf.FramePacket(8, 16, good.image, good.boundary_row + 1.0, good.boundary_col)
    blob = bad.to_bytes()
    received = pf.FramePacket.from_bytes(blob)
    phat, trace = pf.run_pipeline(received)
    out = workloads.PacketOut(bad, blob, received, phat, trace,
                              pf.reconcile(pf.cost_table(8, 16).opsd, trace.counter))
    stream = _tally(workloads.check_packets(pf, image, out))
    assert stream.failed == 1 and stream.reasons["spectrum"] == 1 and not stream.correct


def test_negative_control_corrupt_panel_fails(pf):
    frame = workloads.ramp_pgm(np.random.default_rng(8), (16, 16))
    out = workloads.frame_decompose(pf, frame)
    assert _tally(workloads.check_decompose(pf, frame, out)).failed == 0

    panel = bytearray(out.panels["s"])
    panel[-1] ^= 0xFF
    panels = {**out.panels, "s": bytes(panel)}
    stream = _tally(workloads.check_decompose(pf, frame, out._replace(panels=panels)))
    assert stream.reasons["roundtrip"] == 1 and not stream.correct


def test_inputs_depend_only_on_seed_and_index():
    wl = workloads.WORKLOADS["packets_mixed"]
    first = [wl.input(9, i) for i in range(30)]
    again = [wl.input(9, i) for i in range(30)]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert sorted(x.shape for x in first[:25]) == sorted(wl.shapes)
    assert not np.array_equal(wl.input(10, 0), first[0])


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "spectra512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
