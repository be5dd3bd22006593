import json

import numpy as np
import pytest

from psdfft import cost_table, read_pgm, write_pgm
from psdfft.cli import main, run_bench


def write_image(path, img, maxval=255):
    path.write_bytes(write_pgm(img, maxval))
    return path


@pytest.fixture
def constant_pgm(tmp_path):
    return write_image(tmp_path / "constant.pgm", np.full((8, 8), 100.0))


@pytest.fixture
def random_pgm(tmp_path, rng):
    # noisy ramp: non-periodic structure so the cross artifacts are real
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    img = np.floor(8.0 * i + 4.0 * j + rng.random((16, 16)) * 32)
    return write_image(tmp_path / "random.pgm", img)


class TestCost:
    def test_prints_512_reference_numbers(self, capsys):
        assert main(["cost", "--n", "512", "--m", "512"]) == 0
        out = capsys.readouterr().out
        assert "dram_points=2097152" in out
        assert "dram_points=1048576" in out
        assert "dram_points=787455" in out
        assert "dft_points=786944" in out

    def test_json_out(self, tmp_path, capsys):
        assert main(["cost", "--n", "64", "--m", "64", "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "cost_opsd_64x64.json").read_text())
        assert record["dram_points"] == 3 * 4096 + 127


class TestDecompose:
    def test_constant_image_yields_zero_smooth(self, constant_pgm, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["decompose", "--method", "opsd", str(constant_pgm), "--out", str(out)]) == 0
        report = json.loads((out / "constant_report.json").read_text())
        assert report["artifact_energy_periodic"] == 0.0
        assert report["smooth_max_abs"] == 0.0
        s_img = read_pgm((out / "constant_s.pgm").read_bytes())
        np.testing.assert_array_equal(s_img, np.zeros((8, 8)))

    def test_writes_all_panels(self, random_pgm, tmp_path):
        out = tmp_path / "panels"
        assert main(["decompose", str(random_pgm), "--out", str(out)]) == 0
        for suffix in ("p", "s", "phat_logmag", "shat_logmag"):
            assert (out / f"random_{suffix}.pgm").exists()
        report = json.loads((out / "random_report.json").read_text())
        assert report["dft_points"] == 3 * 256 + 16
        assert report["artifact_energy_periodic"] < report["artifact_energy_input"]

    def test_deterministic_outputs(self, random_pgm, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["decompose", str(random_pgm), "--out", str(out_a)])
        main(["decompose", str(random_pgm), "--out", str(out_b)])
        for name in ("random_p.pgm", "random_s.pgm", "random_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_non_power_of_two_exits_4(self, tmp_path, rng):
        path = write_image(tmp_path / "odd.pgm", np.floor(rng.random((6, 6)) * 255))
        assert main(["decompose", str(path)]) == 4

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.pgm")]) == 3

    def test_malformed_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 not a pgm")
        assert main(["decompose", str(bad)]) == 3


class TestSpectrum:
    def test_oversized_ascii_header_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2\n1000000 1000000\n255\n1 2 3\n")
        assert main(["spectrum", str(bad), "--out", str(tmp_path / "out")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_writes_export_and_scale_log(self, random_pgm, tmp_path, capsys):
        out = tmp_path / "spec"
        assert main(["spectrum", str(random_pgm), "--mode", "log_magnitude", "--out", str(out)]) == 0
        assert (out / "random_log_magnitude.pgm").exists()
        assert (out / "random_log_magnitude.csv").exists()
        record = json.loads((out / "random_log_magnitude.json").read_text())
        assert "gain" in record and "offset" in record
        assert record["shift"] is True


class TestCompare:
    def test_energy_table(self, random_pgm, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", str(random_pgm), "--window", "tukey", "--alpha", "0.5",
                     "--out", str(out)]) == 0
        table = (out / "random_compare.csv").read_text().splitlines()
        assert table[0] == "method,cross_axis_energy"
        methods = [line.split(",")[0] for line in table[1:]]
        assert methods == ["input", "opsd", "mirror", "window_tukey"]
        energies = {line.split(",")[0]: float(line.split(",")[1]) for line in table[1:]}
        assert energies["opsd"] < energies["input"]

    def test_bad_alpha_exits_5(self, random_pgm):
        assert main(["compare", str(random_pgm), "--alpha", "2.0"]) == 5


class TestPipelineSim:
    def test_exact_match_and_files(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["pipeline-sim", "--n", "64", "--m", "64", "--seed", "7",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "exact match" in text
        assert "12415" in text
        trace_lines = (out / "trace_64x64_seed7.csv").read_text().splitlines()
        assert all(len(line.split(",")) == 4 for line in trace_lines)
        record = json.loads((out / "reconcile_64x64_seed7.json").read_text())
        assert record["exact"] is True

    def test_mismatch_exits_6(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import psdfft.cli

        def off_by_one(n, m):
            table = cost_table(n, m)
            return table._replace(opsd=dataclasses.replace(table.opsd, dft_points=table.opsd.dft_points + 1))

        monkeypatch.setattr(psdfft.cli, "cost_table", off_by_one)
        assert main(["pipeline-sim", "--n", "4", "--m", "8", "--out", str(tmp_path)]) == 6
        assert "MISMATCH (dft delta -1, dram delta 0)" in capsys.readouterr().out

    def test_deterministic_for_same_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["pipeline-sim", "--n", "8", "--m", "8", "--seed", "3", "--out", str(out_a)])
        main(["pipeline-sim", "--n", "8", "--m", "8", "--seed", "3", "--out", str(out_b)])
        for name in ("trace_8x8_seed3.csv", "trace_8x8_seed3_summary.json", "reconcile_8x8_seed3.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestBench:
    def test_smoke_and_fields(self, capsys):
        assert main(["bench", "--n", "16", "--m", "16", "--frames", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ms_per_frame=" in out
        assert "frames_per_second=" in out
        assert "23 fps" in out

    def test_run_bench_counts(self):
        result = run_bench(16, 16, frames=2, seed=0)
        per_frame_dft = 3 * 256 + 16
        assert result.dft_points == 2 * per_frame_dft
        assert result.ms_per_frame > 0


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["cost", "--n", "4", "--m", "4", "--bogus"])
        assert err.value.code == 2
