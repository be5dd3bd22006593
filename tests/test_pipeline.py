import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdfft import (
    CapacityError,
    FormatError,
    FramePacket,
    SizeError,
    cost_table,
    decompose,
    pack_frame,
    reconcile,
    run_pipeline,
)

from conftest import rel_maxabs

HAND_IMAGE = np.array([[1.0, 2.0], [3.0, 4.0]])

pow2_sides = st.sampled_from([2, 4, 8, 16, 32, 64])


class TestPackFrame:
    def test_payload_length_512(self):
        pkt = pack_frame(np.zeros((512, 512)))
        assert pkt.payload_length == 512 * 512 + 512 + 512 == 263_168
        assert pkt.payload.size == 263_168

    def test_hand_example_payload(self):
        pkt = pack_frame(HAND_IMAGE)
        np.testing.assert_array_equal(pkt.payload, [1, 2, 3, 4, 3, 1, 3, -1])

    def test_unpack_round_trip_exact(self, rng):
        img = rng.standard_normal((8, 4))
        pkt = pack_frame(img)
        again = FramePacket.from_payload(8, 4, pkt.payload)
        np.testing.assert_array_equal(again.image, img)
        np.testing.assert_array_equal(again.boundary_row, pkt.boundary_row)
        np.testing.assert_array_equal(again.boundary_col, pkt.boundary_col)

    @given(n=st.integers(2, 40), m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_payload_length_formula(self, n, m, seed):
        pkt = pack_frame(np.random.default_rng(seed).standard_normal((n, m)))
        assert pkt.payload.size == n * m + n + m

    def test_rejects_thin_frames(self):
        with pytest.raises(SizeError):
            pack_frame(np.zeros((1, 8)))


class TestPacketBytes:
    def test_binary_round_trip(self, rng):
        pkt = pack_frame(rng.standard_normal((4, 8)))
        blob = pkt.to_bytes()
        assert blob[:4] == b"OPSD"
        again = FramePacket.from_bytes(blob)
        np.testing.assert_array_equal(again.image, pkt.image)
        np.testing.assert_array_equal(again.boundary_row, pkt.boundary_row)
        np.testing.assert_array_equal(again.boundary_col, pkt.boundary_col)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(pow2_sides, pow2_sides).filter(lambda d: d[0] != d[1]),
        scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=40, deadline=None)
    def test_bytes_round_trip_property(self, seed, dims, scale):
        pkt = pack_frame(np.random.default_rng(seed).standard_normal(dims) * scale)
        again = FramePacket.from_bytes(pkt.to_bytes())
        assert (again.n, again.m) == dims
        np.testing.assert_array_equal(again.image, pkt.image)
        np.testing.assert_array_equal(again.boundary_row, pkt.boundary_row)
        np.testing.assert_array_equal(again.boundary_col, pkt.boundary_col)

    def test_header_layout(self):
        blob = pack_frame(HAND_IMAGE).to_bytes()
        import struct

        magic, n, m = struct.unpack_from("<4sII", blob)
        assert (magic, n, m) == (b"OPSD", 2, 2)
        assert len(blob) == 12 + 8 * 8

    def test_bad_magic(self):
        blob = b"NOPE" + pack_frame(HAND_IMAGE).to_bytes()[4:]
        with pytest.raises(FormatError) as err:
            FramePacket.from_bytes(blob)
        assert err.value.offset == 0

    def test_truncated_payload(self):
        blob = pack_frame(HAND_IMAGE).to_bytes()[:-8]
        with pytest.raises(FormatError):
            FramePacket.from_bytes(blob)


class TestRunPipeline:
    def test_64x64_external_memory_points(self, rng):
        _, trace = run_pipeline(pack_frame(rng.standard_normal((64, 64))))
        assert trace.counter.ext_mem_points == 12_415
        assert trace.ext_mem_points() == 12_415

    def test_hand_example_spectrum(self):
        phat, _ = run_pipeline(pack_frame(HAND_IMAGE))
        np.testing.assert_allclose(phat, [[10, -1], [-2, 0]], atol=1e-12)

    def test_matches_decompose_exactly(self, rng):
        for shape in ((8, 8), (16, 4), (4, 32)):
            img = rng.standard_normal(shape)
            phat, _ = run_pipeline(pack_frame(img))
            parts = decompose(img, "opsd")
            assert rel_maxabs(phat, parts.phat, ref=img) < 1e-10

    def test_boundary_passes_never_touch_dram(self, rng):
        _, trace = run_pipeline(pack_frame(rng.standard_normal((16, 16))))
        for event in trace.events:
            if event.pass_label.startswith("boundary"):
                assert event.region != "dram"

    def test_dram_reads_are_exactly_the_image_passes(self, rng):
        _, trace = run_pipeline(pack_frame(rng.standard_normal((16, 8))))
        kept = [e for e in trace.events if not e.pass_label.startswith("boundary")]
        dram_reads = [e for e in kept if e.region == "dram" and e.op == "read"]
        assert [(e.pass_label, e.points) for e in dram_reads] == [
            ("image_rows", 128),
            ("image_cols", 128),
        ]
        # and removing the boundary events removed no dram traffic at all
        assert sum(e.points for e in trace.events if e.region == "dram" and e.op == "read") == 256

    def test_event_points_sum_to_region_counters(self, rng):
        _, trace = run_pipeline(pack_frame(rng.standard_normal((8, 16))))
        for name, region in trace.regions.items():
            reads = sum(e.points for e in trace.events if e.region == name and e.op == "read")
            writes = sum(e.points for e in trace.events if e.region == name and e.op == "write")
            assert reads == region.read_count
            assert writes == region.write_count

    @pytest.mark.parametrize(
        "n, m",
        [pytest.param(s, s, id=str(s)) for s in (4, 8, 16, 32, 64, 128, 256, 512)]
        + [pytest.param(n, m, id=f"{n}x{m}") for n, m in ((4, 8), (8, 4), (256, 16), (2, 512))],
    )
    def test_trace_reconciles_exactly(self, n, m):
        img = np.random.default_rng(n if n == m else n * 1000 + m).standard_normal((n, m))
        _, trace = run_pipeline(pack_frame(img))
        result = reconcile(cost_table(n, m).opsd, trace.counter)
        assert result.exact

    def test_bram_only_holds_boundary_vectors_and_nu(self, rng):
        for n, m in ((8, 8), (4, 16)):
            _, trace = run_pipeline(pack_frame(rng.standard_normal((n, m))))
            bram = trace.regions["bram"]
            # boundary row (m) and column (n), plus the length-m row shape nu
            assert bram.stored == n + 2 * m
            assert bram.stored <= bram.capacity

    def test_bram_capacity_overflow(self, rng):
        pkt = pack_frame(rng.standard_normal((8, 8)))
        with pytest.raises(CapacityError):
            run_pipeline(pkt, bram_capacity=8)

    def test_rejects_non_power_of_two_frames(self, rng):
        pkt = pack_frame(rng.standard_normal((6, 8)))
        with pytest.raises(SizeError):
            run_pipeline(pkt)

    def test_trace_export_lines(self, rng):
        _, trace = run_pipeline(pack_frame(rng.standard_normal((4, 4))))
        lines = trace.export_lines().strip().splitlines()
        assert lines[0] == "ingest,dram,write,16"
        for line in lines:
            label, region, op, points = line.split(",")
            assert region in ("dram", "bram", "local_read", "local_write")
            assert op in ("read", "write")
            assert int(points) > 0

    def test_summary_fields(self, rng):
        _, trace = run_pipeline(pack_frame(rng.standard_normal((4, 8))))
        summary = trace.summary()
        assert summary["n"] == 4 and summary["m"] == 8
        assert summary["ext_mem_points"] == 3 * 32 + 4 + 8 - 1
        assert summary["dram_read_points"] == 2 * 32
