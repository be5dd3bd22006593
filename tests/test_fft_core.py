import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdfft import (
    OpCounter,
    ParameterError,
    SizeError,
    fft_1d,
    fft_2d,
    fft_axis,
    ifft_2d,
    naive_dft_1d,
    naive_dft_2d,
)

from psdfft.fft_core import hermitian_fill

from conftest import rel_maxabs

POW2_LENGTHS = [2, 4, 8, 16, 32, 64, 128, 256]


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_matrix(rng, shape, dtype):
    if dtype == "complex":
        return random_complex(rng, *shape)
    if dtype == "uint16":
        return rng.integers(0, 65536, size=shape, dtype=np.uint16)
    return rng.standard_normal(shape).astype(dtype)


# Complex input goes through np.fft.fft2, real input through the
# half-spectrum route, so both are checked against the oracle.
ORACLE_SHAPES = [(4, 16), (32, 8), (2, 64), (2, 2), (64, 2)]
ORACLE_CASES = [
    pytest.param(shape, dtype, id=f"shape{i}" if dtype == "complex" else f"{dtype}-shape{i}")
    for dtype in ("complex", "float64", "uint16")
    for i, shape in enumerate(ORACLE_SHAPES)
]


class TestFft1d:
    def test_impulse_gives_flat_spectrum(self):
        np.testing.assert_allclose(fft_1d([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant_gives_dc_only(self):
        c = 2.5 - 1.25j
        np.testing.assert_allclose(fft_1d([c, c, c, c]), [4 * c, 0, 0, 0], atol=1e-14)

    def test_matches_naive_oracle_length_8(self, rng):
        v = random_complex(rng, 8)
        assert np.abs(fft_1d(v) - naive_dft_1d(v)).max() < 1e-12

    @pytest.mark.parametrize("n", POW2_LENGTHS)
    def test_matches_naive_oracle_all_lengths(self, rng, n):
        v = random_complex(rng, n)
        assert rel_maxabs(fft_1d(v), naive_dft_1d(v), ref=v) < 1e-9

    @pytest.mark.parametrize("n", POW2_LENGTHS)
    def test_inverse_round_trip(self, rng, n):
        v = random_complex(rng, n)
        assert rel_maxabs(fft_1d(fft_1d(v), inverse=True), v) < 1e-12

    def test_inverse_matches_naive_inverse(self, rng):
        v = random_complex(rng, 16)
        assert np.abs(fft_1d(v, inverse=True) - naive_dft_1d(v, inverse=True)).max() < 1e-12

    @pytest.mark.parametrize("bad", [1, 3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(SizeError):
            fft_1d(np.zeros(bad, dtype=complex))

    def test_rejects_empty(self):
        with pytest.raises(SizeError):
            fft_1d(np.zeros(0, dtype=complex))
        with pytest.raises(SizeError):
            naive_dft_1d([])


class TestNaiveDft1d:
    def test_length_two_cases(self):
        np.testing.assert_allclose(naive_dft_1d([1, 0]), [1, 1], atol=1e-15)
        np.testing.assert_allclose(naive_dft_1d([1, 1]), [2, 0], atol=1e-15)

    def test_shifted_impulse(self):
        # direct evaluation of exp(-2j*pi*k/4)
        np.testing.assert_allclose(
            naive_dft_1d([0, 1, 0, 0]), [1, -1j, -1, 1j], atol=1e-15
        )

    def test_handles_non_power_of_two(self, rng):
        v = random_complex(rng, 6)
        w = np.exp(-2j * np.pi / 6)
        direct = np.array([sum(v[j] * w ** (j * k) for j in range(6)) for k in range(6)])
        assert np.abs(naive_dft_1d(v) - direct).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 8, 16, 32]))
@settings(max_examples=40, deadline=None)
def test_parseval(seed, n):
    v = random_complex(np.random.default_rng(seed), n)
    x = fft_1d(v)
    time_energy = np.sum(np.abs(v) ** 2)
    freq_energy = np.sum(np.abs(x) ** 2) / n
    assert abs(time_energy - freq_energy) <= 1e-9 * max(time_energy, 1e-30)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 8, 16, 32]))
@settings(max_examples=40, deadline=None)
def test_linearity(seed, n):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, n), random_complex(rng, n)
    alpha, beta = complex(rng.standard_normal(), rng.standard_normal()), 1.5 - 0.25j
    lhs = fft_1d(alpha * a + beta * b)
    rhs = alpha * fft_1d(a) + beta * fft_1d(b)
    assert rel_maxabs(lhs, rhs, ref=np.concatenate([a, b])) < 1e-10


class TestFft2d:
    def test_all_ones(self):
        got = fft_2d(np.ones((2, 2), dtype=complex))
        np.testing.assert_allclose(got, [[4, 0], [0, 0]], atol=1e-15)

    def test_hand_example(self):
        got = fft_2d(np.array([[1, 2], [3, 4]], dtype=complex))
        np.testing.assert_allclose(got, [[10, -2], [-4, 0]], atol=1e-14)

    def test_matches_naive_oracle_8x8(self, rng):
        a = random_complex(rng, 8, 8)
        assert np.abs(fft_2d(a) - naive_dft_2d(a)).max() < 1e-10

    @pytest.mark.parametrize("shape,dtype", ORACLE_CASES)
    def test_matches_naive_oracle_rectangular(self, rng, shape, dtype):
        a = random_matrix(rng, shape, dtype)
        got = fft_2d(a)
        assert got.shape == shape and got.dtype == np.complex128
        assert rel_maxabs(got, naive_dft_2d(a), ref=a) < 1e-9

    @pytest.mark.parametrize("dtype", ["float32", "int64", "bool"])
    def test_real_dtypes_match_complex_route(self, rng, dtype):
        a = random_matrix(rng, (16, 8), "float64").astype(dtype)
        got = fft_2d(a)
        assert got.dtype == np.complex128
        assert rel_maxabs(got, np.fft.fft2(a.astype(np.complex128)), ref=a.astype(float)) < 1e-12

    def test_real_route_rejects_non_power_of_two(self):
        with pytest.raises(SizeError):
            fft_2d(np.zeros((4, 6)))

    def test_counter_counts_both_passes(self, rng):
        counter = OpCounter()
        fft_2d(random_complex(rng, 8, 16), counter)
        assert counter.dft_points == 2 * 8 * 16
        assert counter.ext_mem_points == 2 * 8 * 16

    def test_pass_order_does_not_matter(self, rng):
        a = random_complex(rng, 16, 8)
        rows_first = fft_axis(fft_axis(a, axis=1), axis=0)
        cols_first = fft_axis(fft_axis(a, axis=0), axis=1)
        assert rel_maxabs(rows_first, fft_2d(a), ref=a) < 1e-10
        assert rel_maxabs(cols_first, fft_2d(a), ref=a) < 1e-10

    def test_fft_axis_in_place_on_column_block(self, rng):
        a = random_complex(rng, 8, 16)
        want = np.fft.fft(a[:, :9], axis=0)
        block = a[:, :9]
        assert fft_axis(block, axis=0, out=block) is block
        np.testing.assert_allclose(a[:, :9], want, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 6), (1, 4), (4, 1)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(SizeError):
            fft_2d(np.zeros(shape, dtype=complex))


class TestHermitianFill:
    @pytest.mark.parametrize("shape", [(2, 2), (8, 2), (2, 8), (4, 16), (16, 4)])
    def test_completes_left_columns_of_real_spectrum(self, rng, shape):
        full = np.fft.fft2(rng.standard_normal(shape))
        half = shape[1] // 2 + 1
        x = np.zeros(shape, dtype=np.complex128)
        x[:, :half] = full[:, :half]
        assert hermitian_fill(x) is x
        n, m = shape
        for k in range(n):
            for j in range(half, m):
                assert x[k, j] == np.conj(x[(n - k) % n, m - j])
        assert np.abs(x - full).max() < 1e-12


class TestNaiveDft2d:
    def test_scalar_identity(self):
        np.testing.assert_allclose(naive_dft_2d([[3.5 + 1j]]), [[3.5 + 1j]])

    def test_hand_example(self):
        got = naive_dft_2d(np.array([[1, 2], [3, 4]], dtype=complex))
        np.testing.assert_allclose(got, [[10, -2], [-4, 0]], atol=1e-14)

    def test_hermitian_symmetry_for_real_input(self, rng):
        n, m = 6, 10
        x = naive_dft_2d(rng.standard_normal((n, m)))
        for s in range(n):
            for t in range(m):
                assert abs(x[s, t] - np.conj(x[(n - s) % n, (m - t) % m])) < 1e-9


class TestIfft2d:
    def test_dc_only(self):
        got = ifft_2d(np.array([[4, 0], [0, 0]], dtype=complex))
        np.testing.assert_allclose(got, np.ones((2, 2)), atol=1e-15)

    def test_inverse_of_hand_example(self):
        got = ifft_2d(np.array([[10, -2], [-4, 0]], dtype=complex))
        np.testing.assert_allclose(got, [[1, 2], [3, 4]], atol=1e-14)

    def test_round_trip_16x16(self, rng):
        a = random_complex(rng, 16, 16)
        assert np.abs(ifft_2d(fft_2d(a)) - a).max() < 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SizeError):
            ifft_2d(np.zeros((3, 4), dtype=complex))


class TestOpCounter:
    def test_merge_by_addition(self):
        a = OpCounter(10, 20)
        b = OpCounter(1, 2)
        a += b
        assert (a.dft_points, a.ext_mem_points) == (11, 22)
        c = OpCounter(5, 5) + OpCounter(2, 3)
        assert (c.dft_points, c.ext_mem_points) == (7, 8)

    def test_rejects_negative_increments(self):
        with pytest.raises(ParameterError):
            OpCounter().add(dft=-1)

    def test_split_counters_match_single_counter(self, rng):
        # two half-size runs merged equal one run over both halves
        top, bottom = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        whole = OpCounter()
        fft_2d(np.vstack([top, bottom]), whole)
        merged = OpCounter()
        for part in (top, bottom):
            local = OpCounter()
            fft_2d(part, local)
            merged += local
        assert merged.dft_points == whole.dft_points


class TestThreading:
    def test_concurrent_transforms_on_distinct_matrices(self, rng):
        import threading

        mats = [random_complex(rng, 16, 16) for _ in range(8)]
        expected = [fft_2d(a) for a in mats]
        got = [None] * len(mats)

        def transform(i):
            got[i] = fft_2d(mats[i])

        workers = [threading.Thread(target=transform, args=(i,)) for i in range(len(mats))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
