"""Operator abstractions: dense, diagonal, convolution, kernels, image IO."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idarr.arrayio import read_array, write_array
from idarr.errors import DimensionError, GeometryError, IoError, KernelEvaluationError
from idarr.linops import (
    BLOCK,
    DenseMap,
    DiagonalMap,
    PsfConvolutionMap,
    build_fredholm_map,
    exp_decay_kernel,
    gaussian_psf,
    gaussian_radius,
    poly_decay_kernel,
    read_pgm,
    read_psf_text,
    write_pgm,
    write_psf_text,
)


class TestDenseMap:
    def test_forward_matches_matrix_product(self):
        m = DenseMap(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert m.shape == (3, 2)
        np.testing.assert_allclose(m.apply([1.0, -1.0]), [-1.0, -1.0, -1.0])

    def test_adjoint_matches_transpose_product(self):
        m = DenseMap(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_allclose(m.apply_adjoint([1.0, 0.0, -1.0]), [-4.0, -4.0])

    def test_column_abs_sums_uses_magnitudes(self):
        m = DenseMap(np.array([[1.0, -2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(m.column_abs_sums(), [4.0, 6.0])

    def test_wrong_length_input_raises(self):
        m = DenseMap(np.eye(3))
        with pytest.raises(DimensionError):
            m.apply(np.ones(4))
        with pytest.raises(DimensionError):
            m.apply_adjoint(np.ones(2))

    def test_as_dense_round_trips(self):
        entries = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(DenseMap(entries).as_dense(), entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 2**31 - 1))
def test_adjoint_pairing_identity(m, n, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((m, n))
    lm = DenseMap(a)
    v = gen.standard_normal(n)
    w = gen.standard_normal(m)
    lhs = float(lm.apply(v) @ w)
    rhs = float(v @ lm.apply_adjoint(w))
    scale = np.linalg.norm(v) * np.linalg.norm(w) * max(np.linalg.norm(a, 2), 1.0)
    assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


class TestDiagonalMap:
    def test_matches_dense_oracle(self, rng):
        d = rng.uniform(0.5, 2.0, 7)
        lm = DiagonalMap(d)
        dense = DenseMap(np.diag(d))
        v = rng.standard_normal(7)
        np.testing.assert_allclose(lm.apply(v), dense.apply(v), atol=1e-14)
        np.testing.assert_allclose(lm.apply_adjoint(v), dense.apply_adjoint(v), atol=1e-14)
        np.testing.assert_allclose(lm.column_abs_sums(), np.abs(d))
        np.testing.assert_allclose(lm.as_dense(), np.diag(d))


class TestPsfConvolution:
    def test_delta_psf_is_identity(self, rng):
        psf = np.zeros((3, 3))
        psf[1, 1] = 1.0
        lm = PsfConvolutionMap(8, psf)
        v = rng.standard_normal(64)
        np.testing.assert_allclose(lm.apply(v), v, atol=1e-15)
        np.testing.assert_allclose(lm.apply_adjoint(v), v, atol=1e-15)

    def test_psf_normalized_to_unit_sum(self):
        lm = PsfConvolutionMap(8, np.ones((3, 3)))
        assert abs(lm.psf.sum() - 1.0) <= 1e-15

    def test_negative_psf_rejected(self):
        bad = np.ones((3, 3))
        bad[0, 0] = -1.0
        with pytest.raises(GeometryError):
            PsfConvolutionMap(8, bad)

    @pytest.mark.parametrize("side,width", [(8, 0.8), (12, 1.5), (16, 2.0)])
    def test_matches_brute_force_dense_matrix(self, side, width, rng):
        lm = PsfConvolutionMap(side, gaussian_psf(width))
        n = side * side
        dense = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            dense[:, j] = lm.apply(e)
        v = rng.standard_normal(n)
        w = rng.standard_normal(n)
        np.testing.assert_allclose(lm.apply(v), dense @ v, atol=1e-12)
        np.testing.assert_allclose(lm.apply_adjoint(w), dense.T @ w, atol=1e-12)
        np.testing.assert_allclose(
            lm.column_abs_sums(), np.abs(dense).sum(axis=0), atol=1e-12
        )

    def test_as_dense_agrees_with_apply(self, rng):
        lm = PsfConvolutionMap(8, gaussian_psf(1.0))
        dense = lm.as_dense()
        v = rng.standard_normal(64)
        np.testing.assert_allclose(lm.apply(v), dense @ v, atol=1e-12)


def reference_shifted_accumulate(psf, img, flip):
    """One full-image pass per nonzero tap of the whole 2-D kernel."""
    n = img.shape[0]
    kp, kq = psf.shape
    cp, cq = kp // 2, kq // 2
    out = np.zeros_like(img)
    for p in range(kp):
        for q in range(kq):
            w = psf[p, q]
            if w == 0.0:
                continue
            dp, dq = p - cp, q - cq
            if flip:
                dp, dq = -dp, -dq
            r0, r1 = max(dp, 0), n + min(dp, 0)
            c0, c1 = max(dq, 0), n + min(dq, 0)
            if r0 >= r1 or c0 >= c1:
                continue
            out[r0:r1, c0:c1] += w * img[r0 - dp:r1 - dp, c0 - dq:c1 - dq]
    return out


def adjoint_as_dense(lm):
    out = np.empty((lm.cols, lm.rows))
    e = np.zeros(lm.rows)
    for i in range(lm.rows):
        e[i] = 1.0
        out[:, i] = lm.apply_adjoint(e)
        e[i] = 0.0
    return out


class TestSeparablePsf:
    """Rank-1 kernels run as two 1-D passes; others keep the 2-D pass bitwise."""

    RTOL = 1e-13

    def check_against_reference(self, lm, rng):
        side = lm.side
        # nonnegative operands: no cancellation, so rtol holds entrywise
        v = rng.uniform(0.0, 1.0, side * side)
        w = rng.uniform(0.0, 1.0, side * side)
        ref_fwd = reference_shifted_accumulate(lm.psf, v.reshape(side, side), False)
        ref_adj = reference_shifted_accumulate(lm.psf, w.reshape(side, side), True)
        np.testing.assert_allclose(lm.apply(v), ref_fwd.ravel(), rtol=self.RTOL, atol=0)
        np.testing.assert_allclose(lm.apply_adjoint(w), ref_adj.ravel(), rtol=self.RTOL, atol=0)

    @pytest.mark.parametrize("side", [8, 12, 16, 33])
    @pytest.mark.parametrize("width", [0.8, 1.5, 2.2, 3.0])
    def test_gaussian_matches_2d_pass(self, side, width, rng):
        lm = PsfConvolutionMap(side, gaussian_psf(width))
        assert [k.shape for k in lm.factors] == [(lm.psf.shape[0], 1), (1, lm.psf.shape[1])]
        self.check_against_reference(lm, rng)

    @pytest.mark.parametrize("side", [8, 12, 33])
    @pytest.mark.parametrize("shape", [(4, 7), (6, 6)])
    def test_asymmetric_outer_product_matches_2d_pass(self, side, shape, rng):
        a = rng.uniform(0.1, 1.0, shape[0])
        b = rng.uniform(0.1, 1.0, shape[1])
        lm = PsfConvolutionMap(side, np.outer(a, b))
        assert len(lm.factors) == 2
        self.check_against_reference(lm, rng)

    def test_delta_psf_matches_2d_pass(self, rng):
        psf = np.zeros((3, 3))
        psf[1, 1] = 1.0
        lm = PsfConvolutionMap(12, psf)
        assert len(lm.factors) == 2
        self.check_against_reference(lm, rng)

    @pytest.mark.parametrize(
        "psf,n_factors",
        [
            (gaussian_psf(1.3), 2),
            (np.outer([1.0, 3.0, 2.0, 0.5], [2.0, 1.0, 0.0, 4.0, 1.0]), 2),
            (np.sqrt(np.arange(25.0)).reshape(5, 5), 1),
        ],
    )
    def test_adjoint_matrix_is_bitwise_transpose(self, psf, n_factors):
        lm = PsfConvolutionMap(9, psf)
        assert len(lm.factors) == n_factors
        np.testing.assert_array_equal(adjoint_as_dense(lm), lm.as_dense().T)

    @pytest.mark.parametrize("kind", ["random", "rank1-off-by-1e-12"])
    def test_non_separable_psf_is_bitwise_2d_pass(self, kind, rng):
        if kind == "random":
            psf = rng.uniform(0.0, 1.0, (5, 5))
        else:
            # a rank-1 kernel moved by far more than the 8 eps acceptance bound
            psf = gaussian_psf(0.8)
            psf[0, 1] += 1e-12 * psf.max()
        lm = PsfConvolutionMap(12, psf)
        assert len(lm.factors) == 1
        for _ in range(3):
            v = rng.standard_normal(144)
            img = v.reshape(12, 12)
            fwd = reference_shifted_accumulate(lm.psf, img, False).ravel()
            adj = reference_shifted_accumulate(lm.psf, img, True).ravel()
            assert lm.apply(v).tobytes() == fwd.tobytes()
            assert lm.apply_adjoint(v).tobytes() == adj.tobytes()


def assert_adjoint_is_bitwise_transpose(lm, pixels=None):
    """adjoint_as_dense(lm) is bitwise lm.as_dense().T.

    Given ``pixels``, only the adjoint's columns there are compared, with
    the forward matrix's rows there, so a large frame needs neither
    ``rows x cols`` matrix.
    """
    if pixels is None:
        np.testing.assert_array_equal(adjoint_as_dense(lm), lm.as_dense().T)
        return
    fwd_rows = np.empty((len(pixels), lm.cols))
    e = np.zeros(lm.cols)
    for j in range(lm.cols):
        e[j] = 1.0
        fwd_rows[:, j] = lm.apply(e)[pixels]
        e[j] = 0.0
    for row, i in zip(fwd_rows, pixels):
        e[i] = 1.0
        np.testing.assert_array_equal(lm.apply_adjoint(e), row)
        e[i] = 0.0


EDGE_KERNELS = {
    "gaussian-1.5": gaussian_psf(1.5),
    "gaussian-6-longer-than-a-block": gaussian_psf(6.0),
    "even-4x6-with-zero-tap": np.outer([1.0, 3.0, 2.0, 0.5], [2.0, 1.0, 0.0, 4.0, 1.0, 0.25]),
    "asymmetric-2x7": np.outer([0.3, 1.0], [1.0, 5.0, 2.0, 0.1, 3.0, 0.7, 0.2]),
    "delta": np.diag([0.0, 1.0, 0.0]),
}


class TestBandedPsfEdges:
    """The blocked products around the block size, for every kind of factor."""

    @pytest.mark.parametrize("side", [1, 2, 15, 16, 17, 31, 32, 33, 65])
    @pytest.mark.parametrize("kernel", list(EDGE_KERNELS))
    def test_matches_2d_pass_and_adjoint_is_transpose(self, side, kernel, rng):
        lm = PsfConvolutionMap(side, EDGE_KERNELS[kernel])
        assert len(lm.factors) == 2
        TestSeparablePsf().check_against_reference(lm, rng)
        if side <= 33:
            assert_adjoint_is_bitwise_transpose(lm)
        else:
            # the block edges in both axes; the full matrices take 143 MB each
            edges = [i for i in range(side) if i % BLOCK in (0, 1, BLOCK - 1)]
            pixels = [r * side + c for r in edges for c in edges]
            assert_adjoint_is_bitwise_transpose(lm, pixels)

    @pytest.mark.parametrize("direction", ["apply", "apply_adjoint"])
    def test_product_keeps_at_most_two_frames_live(self, direction, rng):
        side = 256
        product = getattr(PsfConvolutionMap(side, gaussian_psf(2.0)), direction)
        v = rng.uniform(0.0, 1.0, side * side)
        product(v)
        tracemalloc.start()
        try:
            product(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * v.nbytes


class TestGaussianPsf:
    @pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf, 1e308])
    def test_bad_width_rejected(self, width):
        with pytest.raises(GeometryError):
            gaussian_psf(width)

    def test_unit_sum_and_symmetry(self):
        psf = gaussian_psf(2.0)
        assert abs(psf.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(psf, psf[::-1, ::-1], atol=1e-15)
        np.testing.assert_allclose(psf, psf.T, atol=1e-15)

    def test_default_radius_covers_three_widths(self):
        psf = gaussian_psf(2.0)
        assert psf.shape == (13, 13)

    def test_peak_at_center(self):
        psf = gaussian_psf(1.5)
        c = psf.shape[0] // 2
        assert psf[c, c] == psf.max()

    @pytest.mark.parametrize("width", [1e-200, 1e-160, 1e-3])
    def test_vanishing_width_is_a_delta(self, width):
        np.testing.assert_array_equal(gaussian_psf(width), np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("width", np.linspace(0.3, 5.0, 15))
    def test_normal_width_matches_closed_form_bitwise(self, width):
        r = np.arange(-gaussian_radius(width), gaussian_radius(width) + 1)
        g = np.exp(-(r**2) / (2.0 * width**2))
        psf = np.outer(g, g)
        np.testing.assert_array_equal(gaussian_psf(width), psf / psf.sum())


class TestKernels:
    def test_exp_kernel_value(self):
        assert exp_decay_kernel(2.0, 3.0) == pytest.approx(np.exp(-6.0) / 9.0, rel=1e-15)

    def test_poly_kernel_value(self):
        assert poly_decay_kernel(2.0, 3.0) == pytest.approx(abs(np.sin(7.0)) / 3.0, rel=1e-15)


class TestFredholmAssembly:
    def test_grid_layout(self):
        lm, s, t = build_fredholm_map("exp", 10, 4, (1.0, 5.0), (0.0, 5.0))
        np.testing.assert_allclose(s, 1.0 + np.arange(1, 5) * 1.0)
        np.testing.assert_allclose(t, np.arange(1, 11) * 0.5)
        assert lm.shape == (10, 4)

    def test_entries_are_kernel_times_spacing(self):
        lm, s, t = build_fredholm_map("exp", 10, 4, (1.0, 5.0), (0.0, 5.0))
        dense = lm.as_dense()
        ds = (5.0 - 1.0) / 4
        for j, i in ((0, 0), (3, 2), (9, 3)):
            assert dense[j, i] == pytest.approx(exp_decay_kernel(t[j], s[i]) * ds, rel=1e-15)

    def test_poly_entries(self):
        lm, s, t = build_fredholm_map("poly", 6, 3, (1.0, 5.0), (0.0, 5.0))
        dense = lm.as_dense()
        ds = 4.0 / 3
        assert dense[2, 1] == pytest.approx(poly_decay_kernel(t[2], s[1]) * ds, rel=1e-15)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KernelEvaluationError):
            build_fredholm_map("cubic", 10, 4)

    def test_nonfinite_kernel_values_rejected(self):
        with pytest.raises(KernelEvaluationError):
            build_fredholm_map("exp", 10, 4, s_range=(-2000.0, -1000.0), t_range=(0.0, 5.0))

    def test_exp_spectrum_decays_fast(self, exp_setup):
        sv = np.linalg.svd(exp_setup.linmap.as_dense(), compute_uv=False)
        assert sv[10] / sv[0] < 1e-6

    def test_poly_spectrum_decays_slowly(self, poly_setup):
        sv = np.linalg.svd(poly_setup.linmap.as_dense(), compute_uv=False)
        assert sv[10] / sv[0] > 1e-3
        assert sv[19] / sv[9] > 0.1


class TestImageIo:
    def test_pgm_round_trip(self, tmp_path, rng):
        # The graymap format stores raw 8-bit levels; scale in, unscale out.
        img = rng.uniform(0.0, 1.0, (9, 9))
        path = tmp_path / "img.pgm"
        write_pgm(path, img * 255.0)
        back = read_pgm(path).astype(np.float64) / 255.0
        assert back.shape == (9, 9)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_pgm_uint8_round_trip_is_exact(self, tmp_path, rng):
        img = rng.integers(0, 256, (7, 11), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_pgm_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P3\n2 2\n255\n")
        with pytest.raises(IoError):
            read_pgm(path)

    def test_psf_text_round_trip(self, tmp_path):
        psf = gaussian_psf(1.0)
        path = tmp_path / "psf.txt"
        write_psf_text(path, psf)
        np.testing.assert_allclose(read_psf_text(path), psf, atol=1e-12)


class TestArrayIo:
    def test_vector_round_trip_is_exact(self, tmp_path, rng):
        v = rng.standard_normal(17)
        path = tmp_path / "v.bin"
        write_array(path, v)
        np.testing.assert_array_equal(read_array(path), v)

    def test_matrix_round_trip_is_exact(self, tmp_path, rng):
        a = rng.standard_normal((5, 3))
        path = tmp_path / "a.bin"
        write_array(path, a)
        np.testing.assert_array_equal(read_array(path), a)

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not-a-header\n\x00\x00")
        with pytest.raises(IoError):
            read_array(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"f64le 4\n" + b"\x00" * 16)
        with pytest.raises(IoError):
            read_array(path)

    def test_extra_trailing_byte_raises(self, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(b"f64le 2\n" + b"\x00" * 17)
        with pytest.raises(IoError, match="expected 16 payload bytes"):
            read_array(path)

    def test_huge_shape_with_short_payload_raises_before_allocating(self, tmp_path):
        # 1.28e20 bytes: an allocation would raise MemoryError, not IoError
        path = tmp_path / "huge.bin"
        path.write_bytes(b"f64le 4000000000 4000000000\n" + b"\x00" * 16)
        with pytest.raises(IoError, match="got 16"):
            read_array(path)

    @pytest.mark.parametrize("header", [b"f64le -2 -3\n", b"f64le -6\n", b"f64le\n", b"f64le 2 -1\n"])
    def test_negative_or_missing_dimensions_raise(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\x00" * 48)
        with pytest.raises(IoError, match="bad dimensions"):
            read_array(path)
        path.write_bytes(header)  # an empty payload is no excuse either
        with pytest.raises(IoError, match="bad dimensions"):
            read_array(path)

    @pytest.mark.parametrize("shape", [(7,), (4, 3), (2, 3, 2), (0,), (3, 0)])
    def test_result_is_writable_and_bitwise(self, tmp_path, rng, shape):
        a = rng.standard_normal(shape)
        a.flat[::3] = [-0.0, np.inf, np.nan, 5e-324][: a.flat[::3].size]
        path = tmp_path / "a.bin"
        write_array(path, a)
        got = read_array(path)
        assert got.dtype == np.float64 and got.shape == shape
        assert got.flags.writeable and got.flags.c_contiguous
        assert got.tobytes() == a.tobytes()
        got[...] = 1.0  # writable in place

    def test_solve_on_negative_dimension_header_exits_2(self, tmp_path, rng, capsys):
        from idarr.cli import main
        from idarr.problems import save_operator

        desc = save_operator(DenseMap(rng.standard_normal((6, 4))), str(tmp_path))
        data = tmp_path / "b.bin"
        data.write_bytes(b"f64le -2 -3\n" + b"\x00" * 48)
        out = tmp_path / "x.bin"
        assert main(["solve", "--operator", desc, "--data", str(data), "--out", str(out)]) == 2
        assert "bad dimensions" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=40))
    def test_round_trip_property(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("aio") / "x.bin"
        v = np.asarray(values, dtype=np.float64)
        write_array(path, v)
        np.testing.assert_array_equal(read_array(path), v)
