import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdfft import (
    BoundaryData,
    OpCounter,
    ParameterError,
    SizeError,
    border_image,
    boundary_data,
    cost_table,
    cross_axis_energy,
    decompose,
    fft_2d,
    naive_dft_2d,
    nu_vector,
    opsd_boundary_spectrum,
    periodic_spectrum,
    smooth_spectrum,
    spectra,
)

from conftest import rel_maxabs

HAND_IMAGE = np.array([[1.0, 2.0], [3.0, 4.0]])

pow2_dims = st.sampled_from([2, 4, 8, 16, 32, 64])


def random_image(seed, n, m):
    return np.random.default_rng(seed).standard_normal((n, m)) * 10.0


class TestBorderImage:
    def test_constant_image_has_no_border(self):
        np.testing.assert_array_equal(border_image(np.full((5, 7), 3.25)), np.zeros((5, 7)))

    def test_hand_example(self):
        np.testing.assert_array_equal(border_image(HAND_IMAGE), [[3, 1], [-1, -3]])

    def test_column_ramp(self):
        # I(i,j) = j: row edges match, only column edges jump
        img = np.tile(np.arange(4.0), (4, 1))
        border = border_image(img)
        np.testing.assert_array_equal(border[:, 0], np.full(4, 3.0))
        np.testing.assert_array_equal(border[:, 3], np.full(4, -3.0))
        np.testing.assert_array_equal(border[1:3, 1:3], np.zeros((2, 2)))
        corner = -(border[0, 0] + border[0, 3] + border[3, 0])
        assert border[3, 3] == corner

    def test_interior_negation_structure(self, rng):
        border = border_image(rng.standard_normal((6, 9)))
        np.testing.assert_array_equal(border[1:-1, 1:-1], np.zeros((4, 7)))
        np.testing.assert_array_equal(border[1:-1, -1], -border[1:-1, 0])
        np.testing.assert_array_equal(border[-1, 1:-1], -border[0, 1:-1])

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_rejects_thin_images(self, shape):
        with pytest.raises(SizeError):
            border_image(np.zeros(shape))


class TestBoundaryData:
    def test_hand_example(self):
        bd = boundary_data(HAND_IMAGE)
        np.testing.assert_array_equal(bd.first_row, [3, 1])
        np.testing.assert_array_equal(bd.first_col, [3, -1])
        assert bd.corner_sum == 4.0

    def test_constant_image_is_all_zero(self):
        bd = boundary_data(np.full((4, 4), 9.0))
        assert not bd.first_row.any() and not bd.first_col.any() and bd.corner_sum == 0.0

    def test_matches_border_image_exactly(self, rng):
        img = rng.standard_normal((8, 12))
        border = border_image(img)
        bd = boundary_data(img)
        np.testing.assert_array_equal(bd.first_row, border[0, :])
        np.testing.assert_array_equal(bd.first_col, border[:, 0])

    @given(seed=st.integers(0, 2**32 - 1), n=pow2_dims, m=pow2_dims)
    @settings(max_examples=30, deadline=None)
    def test_shared_corner(self, seed, n, m):
        bd = boundary_data(random_image(seed, n, m))
        assert bd.first_row[0] == bd.first_col[0]

    @given(seed=st.integers(0, 2**32 - 1), n=pow2_dims, m=pow2_dims)
    @settings(max_examples=30, deadline=None)
    def test_corner_identity(self, seed, n, m):
        border = border_image(random_image(seed, n, m))
        lhs = border[n - 1, m - 1]
        rhs = -(border[0, 0] + border[0, m - 1] + border[n - 1, 0])
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestNuVector:
    def test_length_two(self):
        np.testing.assert_allclose(nu_vector(2), [0, 2], atol=1e-15)

    def test_length_four(self):
        np.testing.assert_allclose(nu_vector(4), [0, 1 - 1j, 2, 1 + 1j], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 8, 11, 64])
    def test_first_entry_zero_and_conjugate_pairing(self, n):
        nu = nu_vector(n)
        assert nu[0] == 0
        for k in range(1, n):
            assert abs(nu[k] - np.conj(nu[n - k])) < 1e-12

    def test_is_fft_shape_of_interior_column(self):
        # nu must be the DFT of (1, 0, ..., 0, -1)
        n = 16
        column = np.zeros(n)
        column[0], column[-1] = 1.0, -1.0
        np.testing.assert_allclose(nu_vector(n), naive_dft_2d(column[:, None])[:, 0], atol=1e-12)

    def test_rejects_short(self):
        with pytest.raises(SizeError):
            nu_vector(1)


class TestOpsdBoundarySpectrum:
    def test_hand_example(self):
        counter = OpCounter()
        bhat = opsd_boundary_spectrum(boundary_data(HAND_IMAGE), counter)
        np.testing.assert_allclose(bhat, [[0, 4], [8, 0]], atol=1e-14)
        assert counter.dft_points == 2 + 4
        assert counter.ext_mem_points == (2 + 2 - 1) + 4

    def test_last_column_identity(self):
        # column stage: last column is -(first column FFT) + corner_sum * nu
        bd = boundary_data(HAND_IMAGE)
        first_hat = naive_dft_2d(bd.first_col[:, None])[:, 0]
        np.testing.assert_allclose(first_hat, [2, 4], atol=1e-14)
        last = -first_hat + bd.corner_sum * nu_vector(2)
        np.testing.assert_allclose(last, [-2, 4], atol=1e-14)

    def test_zero_boundary_gives_zero_spectrum(self):
        bhat = opsd_boundary_spectrum(BoundaryData.zeros(8, 8))
        np.testing.assert_array_equal(bhat, np.zeros((8, 8), dtype=complex))

    def test_matches_naive_oracle_8x8(self, rng):
        img = rng.standard_normal((8, 8))
        got = opsd_boundary_spectrum(boundary_data(img))
        want = naive_dft_2d(border_image(img))
        assert np.abs(got - want).max() < 1e-10

    @given(seed=st.integers(0, 2**32 - 1), n=pow2_dims, m=pow2_dims)
    @settings(max_examples=40, deadline=None)
    def test_equivalence_suite(self, seed, n, m):
        img = random_image(seed, n, m)
        got = opsd_boundary_spectrum(boundary_data(img))
        want = naive_dft_2d(border_image(img))
        assert rel_maxabs(got, want, ref=img) < 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SizeError):
            opsd_boundary_spectrum(BoundaryData.zeros(6, 8))

    @pytest.mark.parametrize("shape", [(8, 2), (2, 8), (2, 2)])
    def test_matches_naive_oracle_two_wide(self, rng, shape):
        # m == 2 leaves no column for the Hermitian fill; n == 2 has no interior rows
        img = rng.standard_normal(shape)
        counter = OpCounter()
        got = opsd_boundary_spectrum(boundary_data(img), counter)
        assert rel_maxabs(got, naive_dft_2d(border_image(img)), ref=img) < 1e-12
        n, m = shape
        assert (counter.dft_points, counter.ext_mem_points) == (m + n * m, n + m - 1 + n * m)

    def test_rejects_complex_boundary_vectors(self):
        bd = BoundaryData(np.zeros(4, dtype=complex), np.zeros(4), 0.0)
        with pytest.raises(ParameterError):
            opsd_boundary_spectrum(bd)


class TestSmoothSpectrum:
    def test_hand_example(self):
        shat = smooth_spectrum(np.array([[0, 4], [8, 0]], dtype=complex))
        np.testing.assert_allclose(shat, [[0, -1], [-2, 0]], atol=1e-14)

    def test_dc_is_always_zero(self, rng):
        shat = smooth_spectrum(rng.standard_normal((8, 8)) + 1j)
        assert shat[0, 0] == 0

    def test_accepts_non_hermitian_input(self, rng):
        bhat = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        s, t = np.arange(4)[:, None], np.arange(8)[None, :]
        denom = 2 * np.cos(2 * np.pi * s / 4) + 2 * np.cos(2 * np.pi * t / 8) - 4
        denom[0, 0] = np.inf
        assert np.abs(smooth_spectrum(bhat) - bhat / denom).max() < 1e-12

    def test_nyquist_denominator_is_exactly_minus_eight(self, rng):
        bhat = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        shat = smooth_spectrum(bhat)
        assert shat[4, 2] == bhat[4, 2] / -8.0


class TestPeriodicSpectrum:
    def test_hand_subtraction(self):
        ihat = np.array([[10, -2], [-4, 0]], dtype=complex)
        shat = np.array([[0, -1], [-2, 0]], dtype=complex)
        np.testing.assert_allclose(periodic_spectrum(ihat, shat), [[10, -1], [-2, 0]])

    def test_zero_smooth_means_unchanged(self, rng):
        ihat = rng.standard_normal((4, 4)) + 0j
        np.testing.assert_array_equal(periodic_spectrum(ihat, np.zeros((4, 4))), ihat)

    def test_dc_preserved(self, rng):
        img = rng.standard_normal((8, 8))
        parts = spectra(img, "opsd")
        assert parts.phat[0, 0] == parts.ihat[0, 0]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SizeError):
            periodic_spectrum(np.zeros((2, 2)), np.zeros((2, 4)))


class TestDecompose:
    def test_hand_example_to_twelve_decimals(self):
        parts = decompose(HAND_IMAGE, "opsd")
        np.testing.assert_allclose(parts.smooth, [[-0.75, -0.25], [0.25, 0.75]], atol=1e-12)
        np.testing.assert_allclose(parts.periodic, [[1.75, 2.25], [2.75, 3.25]], atol=1e-12)
        np.testing.assert_allclose(parts.phat, [[10, -1], [-2, 0]], atol=1e-12)
        np.testing.assert_allclose(parts.shat, [[0, -1], [-2, 0]], atol=1e-12)

    def test_constant_image_is_already_periodic(self):
        img = np.full((8, 8), 5.0)
        parts = decompose(img, "opsd")
        np.testing.assert_array_equal(parts.smooth, np.zeros((8, 8)))
        np.testing.assert_array_equal(parts.periodic, img)

    def test_methods_agree_32x32(self, rng):
        img = rng.standard_normal((32, 32))
        via_opsd = decompose(img, "opsd")
        via_naive = decompose(img, "naive_psd")
        assert rel_maxabs(via_opsd.phat, via_naive.phat, ref=img) < 1e-9
        assert rel_maxabs(via_opsd.smooth, via_naive.smooth, ref=img) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1), n=pow2_dims, m=pow2_dims)
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_and_zero_mean(self, seed, n, m):
        img = random_image(seed, n, m)
        parts = decompose(img, "opsd")
        peak = max(np.abs(img).max(), 1e-30)
        assert np.abs(parts.periodic + parts.smooth - img).max() < 1e-9 * peak
        assert abs(parts.smooth.mean()) < 1e-9 * peak
        assert abs(parts.periodic.mean() - img.mean()) < 1e-9 * peak

    def test_periodic_component_carries_phat(self, rng):
        img = rng.standard_normal((16, 32))
        parts = decompose(img, "opsd")
        assert rel_maxabs(fft_2d(parts.periodic), parts.phat, ref=parts.phat) < 1e-9

    @pytest.mark.parametrize("route", [spectra, decompose])
    def test_overflowing_image_is_rejected(self, route):
        # finite pixels whose sums overflow float64: the spectra turn non-finite
        signs = np.random.default_rng(3).choice([-1.0, 1.0], size=(8, 8))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ParameterError):
            route(signs * 1e308, "opsd")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("route", [spectra, decompose, boundary_data])
    def test_non_finite_image_is_rejected(self, rng, route, bad):
        img = rng.standard_normal((8, 8))
        img[3, 5] = bad
        with pytest.raises(ParameterError):
            route(img)

    @pytest.mark.parametrize("imag", [np.nan, 1.0])
    def test_imaginary_residue_is_rejected(self, monkeypatch, imag):
        import psdfft.psd

        monkeypatch.setattr(psdfft.psd, "ifft_2d", lambda x: np.full(x.shape, complex(0.0, imag)))
        with pytest.raises(ArithmeticError):
            decompose(HAND_IMAGE, "opsd")

    def test_spectra_sum_back_to_image_spectrum(self, rng):
        img = rng.standard_normal((16, 16))
        parts = spectra(img, "opsd")
        assert rel_maxabs(parts.phat + parts.shat, parts.ihat, ref=img) < 1e-12

    def test_hermitian_symmetry_of_spectra(self, rng):
        img = rng.standard_normal((8, 8))
        parts = spectra(img, "opsd")
        for x in (parts.shat, parts.phat):
            flipped = np.conj(np.roll(np.roll(x[::-1, ::-1], 1, axis=0), 1, axis=1))
            assert np.abs(x - flipped).max() < 1e-9 * max(1.0, np.abs(x).max())

    def test_opsd_counter_totals(self, rng):
        counter = OpCounter()
        decompose(rng.standard_normal((16, 8)), "opsd", counter)
        n, m = 16, 8
        assert counter.dft_points == cost_table(n, m).opsd.dft_points
        assert counter.ext_mem_points == 3 * n * m + n + m - 1

    def test_naive_counter_totals(self, rng):
        counter = OpCounter()
        decompose(rng.standard_normal((16, 8)), "naive_psd", counter)
        assert counter.dft_points == 4 * 16 * 8
        assert counter.ext_mem_points == 4 * 16 * 8

    def test_rejects_bad_sizes(self):
        with pytest.raises(SizeError):
            decompose(np.zeros((6, 8)))
        with pytest.raises(SizeError):
            decompose(np.zeros((2, 1)))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            decompose(HAND_IMAGE, "fancy")


def oracle_phat(img):
    """P_hat from naive DFTs and the smooth denominator written out here."""
    n, m = img.shape
    s, t = np.arange(n)[:, None], np.arange(m)[None, :]
    denom = 2.0 * np.cos(2.0 * np.pi * s / n) + 2.0 * np.cos(2.0 * np.pi * t / m) - 4.0
    bhat = naive_dft_2d(border_image(img))
    shat = np.zeros((n, m), dtype=complex)
    nonzero = denom != 0.0  # only (0, 0) is zero; S_hat is zero-mean there
    shat[nonzero] = bhat[nonzero] / denom[nonzero]
    return naive_dft_2d(img) - shat


non_square_dims = st.tuples(pow2_dims, pow2_dims).filter(lambda d: d[0] != d[1])
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


@given(seed=st.integers(0, 2**32 - 1), dims=non_square_dims, scale=scales)
@settings(max_examples=40, deadline=None)
def test_spectra_phat_matches_naive_oracle(seed, dims, scale):
    img = np.random.default_rng(seed).standard_normal(dims) * scale
    got = spectra(img, "opsd").phat
    assert rel_maxabs(got, oracle_phat(img), ref=img) < 1e-9


class TestArtifactReduction:
    def test_ramp_cross_axis_energy_drops(self):
        i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        ramp = (i + j).astype(np.float64)
        ihat = naive_dft_2d(ramp)
        phat = ihat - smooth_spectrum(naive_dft_2d(border_image(ramp)))
        before = cross_axis_energy(ihat)
        after = cross_axis_energy(phat)
        assert after < before
        # regression baseline captured from this oracle run: ratio = 1/4096
        assert after / before == pytest.approx(2.44140625e-4, rel=1e-6)

    def test_cross_axis_energy_counts_axes_only(self):
        x = np.zeros((4, 4), dtype=complex)
        x[0, 0] = 99.0  # DC excluded
        x[1, 0] = 2.0
        x[0, 2] = 3.0
        x[2, 2] = 7.0  # off-axis excluded
        assert cross_axis_energy(x) == 4.0 + 9.0
