import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdfft import (
    FormatError,
    OpCounter,
    ParameterError,
    cost_table,
    matrix_csv,
    quadrant_shift,
    read_pgm,
    reconcile,
    report_keyvalues,
    spectrum_export,
    write_pgm,
    write_report,
)
from psdfft.io_formats import display_scale, parse_keyvalues


class TestReadPgm:
    def test_ascii(self):
        got = read_pgm(b"P2 2 2 255 1 2 3 4")
        np.testing.assert_array_equal(got, [[1, 2], [3, 4]])

    def test_binary(self):
        got = read_pgm(b"P5\n2 2\n255\n\x01\x02\x03\x04")
        np.testing.assert_array_equal(got, [[1, 2], [3, 4]])

    def test_sixteen_bit_big_endian(self):
        got = read_pgm(b"P5\n1 2\n65535\n\x01\x00\x00\xff")
        np.testing.assert_array_equal(got, [[256], [255]])

    def test_comments_anywhere_in_header(self):
        got = read_pgm(b"P2 # gray\n2 1 # dims\n# maxval next\n255\n7 9")
        np.testing.assert_array_equal(got, [[7, 9]])

    def test_values_not_rescaled(self):
        got = read_pgm(b"P2 1 1 1000 777")
        assert got[0, 0] == 777.0

    def test_truncated_binary_payload_names_counts(self):
        with pytest.raises(FormatError, match="expected 4 bytes, got 3"):
            read_pgm(b"P5\n2 2\n255\n\x01\x02\x03")

    def test_bad_magic_offset_zero(self):
        with pytest.raises(FormatError) as err:
            read_pgm(b"P7 2 2 255 ....")
        assert err.value.offset == 0

    def test_non_integer_header_field(self):
        with pytest.raises(FormatError):
            read_pgm(b"P2 two 2 255 1 2")

    def test_maxval_out_of_range(self):
        with pytest.raises(FormatError):
            read_pgm(b"P2 1 1 70000 1")

    def test_missing_pixels_in_ascii(self):
        with pytest.raises(FormatError):
            read_pgm(b"P2 2 2 255 1 2 3")

    @pytest.mark.parametrize(
        "blob",
        [
            b"P2\n1000000 1000000\n255\n1 2 3\n",
            b"P2\n4000000000 4000000000\n255\n1 2 3\n",
            b"P2\n3 1\n255\n1 2",
        ],
    )
    def test_ascii_header_claiming_more_pixels_than_bytes(self, blob):
        # checked before any pixel storage is allocated
        with pytest.raises(FormatError, match="bytes follow"):
            read_pgm(blob)

    def test_ascii_minimal_separators(self):
        np.testing.assert_array_equal(read_pgm(b"P2 2 1 9 1 2"), [[1, 2]])


class TestWritePgm:
    def test_exact_round_trip(self):
        img = np.array([[0.0, 255.0], [128.0, 64.0]])
        blob = write_pgm(img, 255)
        np.testing.assert_array_equal(read_pgm(blob), img)
        assert blob == write_pgm(read_pgm(blob), 255)

    def test_negative_values_clamp_to_zero(self):
        got = read_pgm(write_pgm(np.array([[-5.0, -0.4], [300.0, 10.0]]), 255))
        np.testing.assert_array_equal(got, [[0, 0], [255, 10]])

    def test_rounding_half_away_from_zero(self):
        got = read_pgm(write_pgm(np.array([[0.5, 1.5], [2.5, 2.49]]), 255))
        np.testing.assert_array_equal(got, [[1, 2], [3, 2]])

    def test_sixteen_bit(self):
        img = np.array([[65535.0, 256.0]])
        blob = write_pgm(img, 65535)
        assert blob.endswith(b"\xff\xff\x01\x00")
        np.testing.assert_array_equal(read_pgm(blob), img)

    def test_invalid_maxval(self):
        with pytest.raises(ParameterError):
            write_pgm(np.zeros((2, 2)), 1023)

    @given(seed=st.integers(0, 2**32 - 1), maxval=st.sampled_from([255, 65535]))
    @settings(max_examples=30, deadline=None)
    def test_integer_matrices_round_trip_losslessly(self, seed, maxval):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, maxval + 1, size=(5, 7)).astype(np.float64)
        np.testing.assert_array_equal(read_pgm(write_pgm(img, maxval)), img)


def plain_write_pgm(matrix, maxval):
    """write_pgm as plain, allocating expressions: the reference bytes."""
    arr = np.asarray(matrix, dtype=np.float64)
    clipped = np.clip(arr, 0.0, float(maxval))
    rounded = np.floor(clipped + 0.5)
    rounded = np.minimum(rounded, float(maxval))
    height, width = arr.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    dtype = ">u2" if maxval > 255 else np.uint8
    return header + rounded.astype(dtype).tobytes()


def export_inputs(maxval):
    """Half-counts, negatives, values above maxval, and noise."""
    halves = np.arange(-4, maxval + 4) + 0.5
    edges = [-1e300, -1.0, -0.5, -0.49, -0.0, 0.0, 0.49, maxval - 0.5, maxval - 0.49,
             maxval, maxval + 0.49, maxval + 0.5, maxval + 1.0, 1e300]
    noise = np.random.default_rng(maxval).uniform(-10.0, maxval + 10.0, 512)
    flat = np.concatenate([halves, edges, noise])
    return np.resize(flat, (4, flat.size // 4 + 1))


class TestExportByteIdentity:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_write_pgm_equals_plain_expressions(self, maxval):
        img = export_inputs(maxval)
        assert write_pgm(img, maxval) == plain_write_pgm(img, maxval)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_display_scale_equals_plain_expressions(self, maxval):
        img = export_inputs(maxval)
        scaled, gain, offset = display_scale(img, maxval)
        lo, hi = float(img.min()), float(img.max())
        assert gain == float(maxval) / (hi - lo) and offset == -lo * gain
        np.testing.assert_array_equal(scaled, img * gain + offset)

    def test_log_magnitude_equals_plain_expression(self, rng):
        x = (rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))) * 1e3
        x[0, 0], x[1, 1] = 0.0, 0.5
        want = quadrant_shift(np.log1p(np.abs(x)))
        np.testing.assert_array_equal(spectrum_export(x, "log_magnitude").data, want)
        unshifted = spectrum_export(x, "log_magnitude", shift=False).data
        np.testing.assert_array_equal(unshifted, np.log1p(np.abs(x)))

    def test_exports_leave_their_input_alone(self, rng):
        img = rng.uniform(-5.0, 300.0, (4, 8))
        kept = img.copy()
        write_pgm(img, 255)
        display_scale(img, 255)
        np.testing.assert_array_equal(img, kept)


class TestSpectrumExport:
    def test_log_magnitude_definition(self, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        export = spectrum_export(x, "log_magnitude", shift=False)
        np.testing.assert_allclose(export.data, np.log(1.0 + np.abs(x)))

    def test_modes(self, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(spectrum_export(x, "real", False).data, x.real)
        np.testing.assert_array_equal(spectrum_export(x, "imag", False).data, x.imag)
        np.testing.assert_allclose(spectrum_export(x, "magnitude", False).data, np.abs(x))
        np.testing.assert_allclose(spectrum_export(x, "phase", False).data, np.angle(x))

    def test_shift_centers_dc(self):
        x = np.zeros((4, 6), dtype=complex)
        x[0, 0] = 1.0
        shifted = spectrum_export(x, "magnitude", shift=True).data
        assert shifted[2, 3] == 1.0

    def test_shift_is_involution_for_even_dims(self, rng):
        x = rng.standard_normal((8, 4))
        np.testing.assert_array_equal(quadrant_shift(quadrant_shift(x)), x)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            spectrum_export(np.zeros((2, 2), dtype=complex), "decibels")


class TestReports:
    def test_cost_report_document(self):
        doc = write_report(cost_table(512, 512).opsd)
        record = json.loads(doc)
        assert record["dram_points"] == 787455
        assert record["dft_points"] == 786944
        assert record["record"] == "cost_report"

    def test_keyvalue_round_trip(self):
        report = cost_table(64, 32).opsd
        parsed = parse_keyvalues(report_keyvalues(report))
        assert parsed["algorithm"] == "opsd"
        assert parsed["n"] == 64 and parsed["m"] == 32
        assert parsed["dram_points"] == report.dram_points
        assert parsed["dft_points"] == report.dft_points

    def test_reconciliation_document(self):
        result = reconcile(cost_table(8, 8).opsd, OpCounter(3 * 64 + 8, 3 * 64 + 15))
        record = json.loads(write_report(result))
        assert record["exact"] is True

    def test_empty_trace_reports_zero_counters(self):
        from psdfft.pipeline import MemoryRegion, PipelineTrace

        trace = PipelineTrace(4, 4, {name: MemoryRegion(name) for name in
                                     ("dram", "bram", "local_read", "local_write")})
        record = json.loads(write_report(trace))
        assert record["ext_mem_points"] == 0
        assert record["dft_points"] == 0
        assert record["events"] == 0

    def test_counter_document(self):
        record = json.loads(write_report(OpCounter(5, 9)))
        assert record["dft_points"] == 5 and record["ext_mem_points"] == 9

    def test_unsupported_object(self):
        with pytest.raises(ParameterError):
            write_report(object())


class TestMatrixCsv:
    def test_real_matrix(self):
        assert matrix_csv(np.array([[1.0, 2.5], [3.0, -4.0]])) == "1,2.5\n3,-4\n"

    def test_complex_re_plus_imi(self):
        text = matrix_csv(np.array([[1 + 2j, 3 - 4j]]))
        assert text == "1+2i,3-4i\n"

    def test_display_scale_maps_to_full_range(self, rng):
        mat = rng.standard_normal((4, 4))
        scaled, gain, offset = display_scale(mat, 255)
        assert scaled.min() == pytest.approx(0.0, abs=1e-9)
        assert scaled.max() == pytest.approx(255.0, abs=1e-9)
        np.testing.assert_allclose(scaled, mat * gain + offset)

    def test_display_scale_constant_matrix(self):
        scaled, gain, offset = display_scale(np.full((2, 2), 7.0), 255)
        np.testing.assert_array_equal(scaled, np.zeros((2, 2)))
        assert gain == 1.0

    def test_smooth_component_export_with_logged_scale(self):
        # the 2x2 decomposition's smooth part, rescaled by gain+offset for export
        s = np.array([[-0.75, -0.25], [0.25, 0.75]])
        scaled, gain, offset = display_scale(s, 255)
        assert gain == 170.0 and offset == 127.5
        np.testing.assert_array_equal(scaled, [[0, 85], [170, 255]])
        np.testing.assert_array_equal(read_pgm(write_pgm(scaled, 255)), scaled)
        np.testing.assert_allclose((scaled - offset) / gain, s, atol=1e-15)
