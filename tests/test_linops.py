"""Operator abstractions: dense, diagonal, convolution, kernels, image IO."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from idarr import linops
from idarr.arrayio import aligned_empty, read_array, write_array
from idarr.errors import DimensionError, GeometryError, IoError, KernelEvaluationError
from idarr.linops import (
    BLOCK,
    KERNELS,
    DenseMap,
    DiagonalMap,
    LinearMap,
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

    def test_keeps_a_float64_array_without_copying(self):
        entries = np.arange(6.0).reshape(3, 2)
        assert np.shares_memory(DenseMap(entries).entries, entries)

    def test_as_dense_round_trips(self):
        entries = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(DenseMap(entries).as_dense(), entries)

    def test_as_dense_is_a_read_only_view(self):
        entries = np.arange(6.0).reshape(3, 2)
        dense = DenseMap(entries).as_dense()
        assert np.shares_memory(dense, entries)
        assert not dense.flags.writeable and entries.flags.writeable
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(2000, 1000), (130, 65), (65, 130), (300, 1), (1, 300)])
    @pytest.mark.parametrize("layout", ["C", "F", "rows-reversed", "strided"])
    def test_column_abs_sums_bitwise_equal_to_whole_reduction(self, rng, shape, layout):
        # NumPy sums rows in order for C-like layouts and each column
        # pairwise for F-like ones and single columns; the blocks must follow
        a = rng.standard_normal(shape) * rng.uniform(0.0, 1e3, shape)
        a = {"C": a, "F": np.asfortranarray(a), "rows-reversed": a[::-1],
             "strided": a[:, ::2]}[layout]
        np.testing.assert_array_equal(DenseMap(a).column_abs_sums(), np.abs(a).sum(axis=0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_abs_sums_never_builds_abs_whole(self, rng, traced_peak, order):
        m = DenseMap(np.asarray(rng.standard_normal((2000, 1000)), order=order))
        assert traced_peak(m.column_abs_sums) < m.entries.nbytes / 4


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

    @pytest.mark.parametrize("side", [0, -3])
    def test_nonpositive_side_rejected(self, side):
        with pytest.raises(DimensionError):
            PsfConvolutionMap(side, np.ones((3, 3)))

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


def loop_as_dense(lm):
    """The operator matrix by one product per basis vector; as_dense's reference."""
    out = np.empty((lm.rows, lm.cols))
    e = np.zeros(lm.cols)
    for i in range(lm.cols):
        e[i] = 1.0
        out[:, i] = lm.apply(e)
        e[i] = 0.0
    return out


def loop_column_abs_sums(lm):
    """Absolute column sums by one product per basis vector; column_abs_sums' reference."""
    out = np.empty(lm.cols)
    e = np.zeros(lm.cols)
    for i in range(lm.cols):
        e[i] = 1.0
        out[i] = np.abs(lm.apply(e)).sum()
        e[i] = 0.0
    return out


def disk_psf(radius):
    r = np.arange(-radius, radius + 1)
    return (r[:, None] ** 2 + r[None, :] ** 2 <= radius**2).astype(np.float64)


CROSS_PSF = np.array([[0.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 0.0]])


class TestSeparablePsf:
    """Every kernel runs as a sum of separable terms, each two 1-D passes."""

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
        kp, kq = lm.psf.shape
        assert [(c.shape, r.shape) for c, r in lm.terms] == [((kp,), (kq,))]
        self.check_against_reference(lm, rng)

    @pytest.mark.parametrize("side", [8, 12, 33])
    @pytest.mark.parametrize("shape", [(4, 7), (6, 6)])
    def test_asymmetric_outer_product_matches_2d_pass(self, side, shape, rng):
        a = rng.uniform(0.1, 1.0, shape[0])
        b = rng.uniform(0.1, 1.0, shape[1])
        lm = PsfConvolutionMap(side, np.outer(a, b))
        assert len(lm.terms) == 1
        self.check_against_reference(lm, rng)

    def test_delta_psf_matches_2d_pass(self, rng):
        psf = np.zeros((3, 3))
        psf[1, 1] = 1.0
        lm = PsfConvolutionMap(12, psf)
        assert len(lm.terms) == 1
        self.check_against_reference(lm, rng)

    @pytest.mark.parametrize(
        "psf,n_terms",
        [
            (gaussian_psf(1.3), 1),
            (np.outer([1.0, 3.0, 2.0, 0.5], [2.0, 1.0, 0.0, 4.0, 1.0]), 1),
            (np.sqrt(np.arange(25.0)).reshape(5, 5), 5),
            (CROSS_PSF, 2),
            (disk_psf(3), 3),
        ],
    )
    def test_adjoint_matrix_is_bitwise_transpose(self, psf, n_terms):
        lm = PsfConvolutionMap(9, psf)
        assert len(lm.terms) == n_terms
        # 64 columns per product; every entry is one rounded product of taps
        dense = lm.as_dense()
        np.testing.assert_array_equal(dense, loop_as_dense(lm))
        np.testing.assert_array_equal(adjoint_as_dense(lm), dense.T)

    @pytest.mark.parametrize(
        "shift", [None, 1e-12, -1e-12], ids=["random", "rank1-plus-1e-12", "rank1-minus-1e-12"]
    )
    def test_non_separable_psf_matches_2d_pass(self, shift, rng):
        if shift is None:
            psf = rng.uniform(0.0, 1.0, (5, 5))
        else:
            # a rank-1 kernel moved by far more than the 8 eps bound
            psf = gaussian_psf(0.8)
            psf[0, 1] += shift * psf.max()
        lm = PsfConvolutionMap(12, psf)
        assert len(lm.terms) > 1
        self.check_against_reference(lm, rng)
        assert_adjoint_is_bitwise_transpose(lm)

    @pytest.mark.parametrize(
        "kernel,max_terms",
        [("1x7", 1), ("7x1", 1), ("cross-3x3", 2), ("disk-r3", 3), ("random-13x13", 13)],
    )
    @pytest.mark.parametrize("side", [8, 17, 33, 65])
    def test_terms_sum_to_kernel_and_match_2d_pass(self, kernel, max_terms, side, rng):
        psf = {
            "1x7": rng.uniform(0.1, 1.0, (1, 7)),
            "7x1": rng.uniform(0.1, 1.0, (7, 1)),
            "cross-3x3": CROSS_PSF,
            "disk-r3": disk_psf(3),
            "random-13x13": rng.uniform(0.0, 1.0, (13, 13)),
        }[kernel]
        lm = PsfConvolutionMap(side, psf)
        if kernel == "random-13x13":
            assert len(lm.terms) <= max_terms
        else:
            assert len(lm.terms) == max_terms
        summed = sum(np.outer(c, r) for c, r in lm.terms)
        assert np.max(np.abs(summed - lm.psf)) <= 8.0 * np.finfo(np.float64).eps * lm.psf.max()
        self.check_against_reference(lm, rng)
        if side <= 33:
            assert_adjoint_is_bitwise_transpose(lm)


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
        assert len(lm.terms) == 1
        TestSeparablePsf().check_against_reference(lm, rng)
        if side <= 33:
            assert_adjoint_is_bitwise_transpose(lm)
        else:
            # the block edges in both axes; the full matrices take 143 MB each
            edges = [i for i in range(side) if i % BLOCK in (0, 1, BLOCK - 1)]
            pixels = [r * side + c for r in edges for c in edges]
            assert_adjoint_is_bitwise_transpose(lm, pixels)

    @pytest.mark.parametrize("direction", ["apply", "apply_adjoint"])
    @pytest.mark.parametrize(
        "psf,frames",
        # one term: the passes' two frames; more: the accumulator as well
        [(gaussian_psf(2.0), 2.25), (disk_psf(6), 3.25)],
        ids=["gaussian", "disk-r6"],
    )
    def test_product_keeps_few_frames_live(self, psf, frames, direction, rng):
        side = 256
        product = getattr(PsfConvolutionMap(side, psf), direction)
        v = rng.uniform(0.0, 1.0, side * side)
        product(v)
        tracemalloc.start()
        try:
            product(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= frames * v.nbytes


def vector_psf_product(lm, v, flip):
    """PsfConvolutionMap's banded passes written for one vector; the reference for vectors."""
    n = lm.side
    total = None
    for passes in lm._passes[flip]:
        img = v.reshape(n, n)
        for block, lead in passes:
            width = block.shape[1]
            padded = np.zeros((-(-n // BLOCK) * BLOCK + width - BLOCK, n))
            padded[lead:lead + n] = img.T
            windows = sliding_window_view(padded, width, axis=0)[::BLOCK]
            img = (block @ windows.transpose(0, 2, 1)).reshape(-1, n)[:n]
        total = img if total is None else total + img
    return total.ravel()


class ProductsOnly(LinearMap):
    """A map with only _apply / _apply_adjoint; every other method is inherited."""

    def __init__(self, entries):
        super().__init__(*entries.shape)
        self.entries = entries

    def _apply(self, v):
        return self.entries @ v

    def _apply_adjoint(self, w):
        return self.entries.T @ w


BLOCK_MAPS = {
    # nonnegative entries, so the stacked-column check holds entrywise
    "dense": lambda rng: DenseMap(rng.uniform(0.0, 1.0, (70, 50))),
    "diagonal": lambda rng: DiagonalMap(rng.uniform(0.5, 2.0, 60)),
    "psf-1-term": lambda rng: PsfConvolutionMap(17, gaussian_psf(1.5)),
    "psf-2-terms": lambda rng: PsfConvolutionMap(17, CROSS_PSF),
    "psf-3-terms": lambda rng: PsfConvolutionMap(17, disk_psf(3)),
    "products-only": lambda rng: ProductsOnly(rng.uniform(0.0, 1.0, (40, 90))),
}


class TestBlockProducts:
    """Products take a vector (n,) or a block (n, k), one column per vector."""

    @pytest.mark.parametrize("direction", ["apply", "apply_adjoint"])
    @pytest.mark.parametrize("name", [n for n in BLOCK_MAPS if n != "products-only"])
    def test_vector_products_match_vector_reference_bitwise(self, name, direction, rng):
        lm = BLOCK_MAPS[name](rng)
        flip = direction == "apply_adjoint"
        v = rng.standard_normal(lm.rows if flip else lm.cols)
        if isinstance(lm, DenseMap):
            expected = (lm.entries.T if flip else lm.entries) @ v
        elif isinstance(lm, DiagonalMap):
            expected = lm.diag * v
        else:
            expected = vector_psf_product(lm, v, flip)
        np.testing.assert_array_equal(getattr(lm, direction)(v), expected)

    @pytest.mark.parametrize("k", [1, 5, 64])
    @pytest.mark.parametrize("direction", ["apply", "apply_adjoint", "apply_residual"])
    @pytest.mark.parametrize("name", list(BLOCK_MAPS))
    def test_block_matches_stacked_columns(self, name, direction, k, rng):
        # gemm is not gemv, so only to rounding; nonnegative operands keep it entrywise
        lm = BLOCK_MAPS[name](rng)

        def product(v):  # apply_residual with no shift: A v stacked on A^T A v
            out = getattr(lm, direction)(v)
            return np.concatenate(out) if direction == "apply_residual" else out

        n = lm.rows if direction == "apply_adjoint" else lm.cols
        block = rng.uniform(0.0, 1.0, (n, k))
        stacked = np.column_stack([product(col) for col in block.T])
        np.testing.assert_allclose(product(block), stacked, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", list(BLOCK_MAPS))
    def test_empty_block_gives_empty_block(self, name, rng):
        lm = BLOCK_MAPS[name](rng)
        assert lm.apply(np.empty((lm.cols, 0))).shape == (lm.rows, 0)
        assert lm.apply_adjoint(np.empty((lm.rows, 0))).shape == (lm.cols, 0)

    @pytest.mark.parametrize("direction", ["apply", "apply_adjoint"])
    @pytest.mark.parametrize("name", list(BLOCK_MAPS))
    def test_bad_operand_shapes_raise(self, name, direction, rng):
        lm = BLOCK_MAPS[name](rng)
        product = getattr(lm, direction)
        n = lm.rows if direction == "apply_adjoint" else lm.cols
        for shape in [(n, 2, 1), (n + 1,), (n + 1, 2), (2, n), ()]:
            with pytest.raises(DimensionError):
                product(np.ones(shape))


def residual_operands(lm, k, shift, rng):
    """(v, w) for apply_residual: a vector (k None) or a block of k columns; w is None
    with no shift."""
    tail = () if k is None else (k,)
    v = rng.standard_normal((lm.cols, *tail))
    return v, rng.standard_normal((lm.rows, *tail)) if shift else None


def minus(x, w):
    """x - w, or x with no shift (w None)."""
    return x if w is None else x - w


SHIFT = pytest.mark.parametrize("shift", [True, False], ids=["w", "no-w"])


class TestResidualProduct:
    """apply_residual is (r, A^T r) with r = A v - w, or A v with no w: the two
    products by default, one pass over a dense A."""

    @SHIFT
    @pytest.mark.parametrize("k", [None, 1, 5])
    @pytest.mark.parametrize("name", [n for n in BLOCK_MAPS if n != "dense"])
    def test_default_is_the_two_products_bitwise(self, name, k, shift, rng):
        lm = BLOCK_MAPS[name](rng)
        assert type(lm)._apply_residual is LinearMap._apply_residual
        v, w = residual_operands(lm, k, shift, rng)
        r, atr = lm.apply_residual(v, w)
        np.testing.assert_array_equal(r, minus(lm.apply(v), w))
        np.testing.assert_array_equal(atr, lm.apply_adjoint(minus(lm.apply(v), w)))

    @SHIFT
    @pytest.mark.parametrize("k", [None, 1, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_in_one_block_is_the_two_products_bitwise(self, order, k, shift, rng):
        lm = DenseMap(np.asarray(rng.standard_normal((70, 50)), order=order))
        assert 8 * lm.rows * lm.cols <= linops.NORMAL_BLOCK_BYTES
        v, w = residual_operands(lm, k, shift, rng)
        r, atr = lm.apply_residual(v, w)
        np.testing.assert_array_equal(r, minus(lm.entries @ v, w))
        np.testing.assert_array_equal(atr, lm.entries.T @ minus(lm.entries @ v, w))

    @SHIFT
    @pytest.mark.parametrize("k", [None, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape, rows_per_block", [
        ((70, 50), 16),    # four full blocks and a partial one of 6 rows
        ((70, 50), 7),     # ten full blocks
        ((70, 50), 1),     # one row per block
        ((3000, 200), None),  # the module's own budget: 655 rows per block
    ])
    def test_dense_across_blocks_matches_the_two_products(self, shape, rows_per_block, order, k,
                                                          shift, rng, monkeypatch):
        if rows_per_block is not None:
            monkeypatch.setattr(linops, "NORMAL_BLOCK_BYTES", 8 * shape[1] * rows_per_block)
        lm = DenseMap(np.asarray(rng.standard_normal(shape), order=order))
        assert 8 * lm.rows * lm.cols > linops.NORMAL_BLOCK_BYTES
        v, w = residual_operands(lm, k, shift, rng)
        r, atr = lm.apply_residual(v, w)
        want = minus(lm.entries @ v, w)
        # rounding of a reordered sum: 1e-13 of the summed magnitudes, entry by entry
        r_scale = np.abs(lm.entries) @ np.abs(v) + (0.0 if w is None else np.abs(w))
        assert np.all(np.abs(r - want) <= 1e-13 * r_scale)
        scale = np.abs(lm.entries).T @ r_scale
        assert np.all(np.abs(atr - lm.entries.T @ want) <= 1e-13 * scale)

    @SHIFT
    @pytest.mark.parametrize("name", list(BLOCK_MAPS))
    def test_results_are_new_arrays(self, name, shift, rng):
        lm = BLOCK_MAPS[name](rng)
        v, w = residual_operands(lm, None, shift, rng)
        r, atr = lm.apply_residual(v, w)
        assert r.dtype == atr.dtype == np.float64
        assert r.shape == (lm.rows,) and atr.shape == (lm.cols,)
        for out in (r, atr):
            assert not any(np.shares_memory(out, x) for x in (v, w) if x is not None)
        assert not np.shares_memory(r, atr)

    @SHIFT
    @pytest.mark.parametrize("name", list(BLOCK_MAPS))
    def test_empty_block_gives_empty_blocks(self, name, shift, rng):
        lm = BLOCK_MAPS[name](rng)
        r, atr = lm.apply_residual(np.empty((lm.cols, 0)),
                                   np.empty((lm.rows, 0)) if shift else None)
        assert r.shape == (lm.rows, 0) and atr.shape == (lm.cols, 0)

    @pytest.mark.parametrize("name", list(BLOCK_MAPS))
    def test_bad_operand_shapes_raise(self, name, rng):
        lm = BLOCK_MAPS[name](rng)
        m, n = lm.rows, lm.cols
        for v_shape, w_shape in [
            ((n + 1,), (m,)), ((n, 2, 1), (m, 2, 1)), ((), (m,)),  # v of the wrong shape
            ((n,), (m + 1,)), ((n,), (m, 1)), ((n, 2), (m,)), ((n, 2), (m, 3)),  # w not A v's
            ((n, 2), (2, m)),
            ((n, 2, 1), None), ((n + 1,), None), ((n + 1, 2), None), ((2, n), None),  # no w
            ((), None),
        ]:
            with pytest.raises(DimensionError):
                lm.apply_residual(np.ones(v_shape), None if w_shape is None else np.ones(w_shape))


class TestInheritedMethods:
    """as_dense and column_abs_sums of a map that defines only its products."""

    SHAPE = (300, 200)  # rows >= cols, so a slice of the identity is at most one block

    def test_as_dense_equals_entries(self, rng):
        a = rng.standard_normal(self.SHAPE)
        lm = ProductsOnly(a)
        np.testing.assert_array_equal(lm.as_dense(), a)
        np.testing.assert_array_equal(lm.as_dense(), loop_as_dense(lm))

    def test_column_abs_sums_match_whole_reduction(self, rng):
        a = rng.standard_normal(self.SHAPE)
        lm = ProductsOnly(a)
        np.testing.assert_allclose(lm.column_abs_sums(), np.abs(a).sum(axis=0),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(lm.column_abs_sums(), loop_column_abs_sums(lm),
                                   rtol=1e-13, atol=0)

    def test_memory_stays_within_a_few_blocks(self, rng, traced_peak):
        lm = ProductsOnly(rng.standard_normal(self.SHAPE))
        block = lm.rows * 64 * 8
        assert traced_peak(lm.column_abs_sums) < 4 * block
        assert traced_peak(lm.as_dense) < lm.rows * lm.cols * 8 + 4 * block


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
        lm, s, t = build_fredholm_map("exp", 10, 4)
        np.testing.assert_allclose(s, 1.0 + np.arange(1, 5) * 1.0)
        np.testing.assert_allclose(t, np.arange(1, 11) * 0.5)
        assert lm.shape == (10, 4)

    def test_entries_are_kernel_times_spacing(self):
        lm, s, t = build_fredholm_map("exp", 10, 4)
        dense = lm.as_dense()
        ds = (5.0 - 1.0) / 4
        for j, i in ((0, 0), (3, 2), (9, 3)):
            assert dense[j, i] == pytest.approx(exp_decay_kernel(t[j], s[i]) * ds, rel=1e-15)

    def test_poly_entries(self):
        lm, s, t = build_fredholm_map("poly", 6, 3)
        dense = lm.as_dense()
        ds = 4.0 / 3
        assert dense[2, 1] == pytest.approx(poly_decay_kernel(t[2], s[1]) * ds, rel=1e-15)

    # 3000x200 (81 rows a block) and 3000x17 (963) span several row blocks of
    # FILL_BLOCK_BYTES with a partial last one; 50x20 and 7x3 fit one block
    @pytest.mark.parametrize("m, n", [(50, 20), (3000, 200), (3000, 17), (7, 3)])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_entries_bitwise_equal_to_scaled_kernel(self, kernel, m, n):
        lm, s, t = build_fredholm_map(kernel, m, n)
        assert lm.entries.ctypes.data % 64 == 0 and lm.entries.flags.c_contiguous
        assert lm.entries.tobytes() == (KERNELS[kernel](t, s) * ((5.0 - 1.0) / n)).tobytes()

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_build_holds_one_operator_array(self, kernel, traced_peak):
        # the kernel is evaluated one row block at a time into the operator's
        # own storage; a whole-array evaluation held two 16 MB arrays (2.006x)
        peak = traced_peak(lambda: build_fredholm_map(kernel, 2000, 1000))
        assert peak <= 1.25 * 8 * 2000 * 1000

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KernelEvaluationError):
            build_fredholm_map("cubic", 10, 4)

    def test_nonfinite_kernel_values_rejected(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "overflow", lambda t, s: np.exp(1e3 * np.multiply.outer(t, s)))
        with pytest.raises(KernelEvaluationError, match="not finite"):
            build_fredholm_map("overflow", 10, 4)

    def test_nonfinite_value_in_a_later_block_is_named(self, monkeypatch):
        m, n, row, col = 3000, 200, 1000, 7  # 81 rows a block
        _, s, t = build_fredholm_map("exp", m, n)
        rows = []

        def kernel(tb, sb):
            rows.append(len(tb))
            out = np.ones((len(tb), len(sb)))
            out[tb == t[row], col] = np.inf
            return out

        monkeypatch.setitem(KERNELS, "late-inf", kernel)
        with pytest.raises(KernelEvaluationError,
                           match=re.escape(f"t={t[row]:g}, s={s[col]:g} is not finite")):
            build_fredholm_map("late-inf", m, n)
        assert len(rows) > 1 and rows[0] <= row < m  # the bad row is past the first block

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

    # a maxval other than 255 is malformed: levels are read as fractions of
    # 255, the one maxval write_pgm writes
    @pytest.mark.parametrize("data", [b"P3\n2 2\n255\n", b"P5\n2 2\n15\n\0\5\17\310"],
                             ids=["ascii-magic", "maxval-15"])
    def test_pgm_malformed_raises(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_adds_no_copy_of_a_contiguous_array(self, tmp_path, rng, traced_peak, order):
        # the file is the header and the row-major bytes; a C-ordered array
        # is written from its own buffer, with no bytes copy of it
        a = np.asarray(rng.standard_normal((400, 300)), order=order)
        path = tmp_path / "a.bin"
        peak = traced_peak(lambda: write_array(path, a))
        assert path.read_bytes() == b"f64le 400 300\n" + np.ascontiguousarray(a).tobytes()
        assert peak < (a.nbytes / 4 if order == "C" else 1.25 * a.nbytes)

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

    @pytest.mark.parametrize("shape", [(0,), (1,), (7, 3), (101, 100), (0, 5)])
    def test_aligned_empty_starts_on_a_cache_line(self, shape):
        a = aligned_empty(shape)
        assert a.shape == shape and a.dtype == np.float64
        assert a.ctypes.data % 64 == 0
        assert a.flags.c_contiguous and a.flags.writeable

    @pytest.mark.parametrize("shape", [(0,), (1,), (7, 3), (101, 100), (3, 0)])
    def test_read_array_result_starts_on_a_cache_line(self, tmp_path, rng, shape):
        a = rng.standard_normal(shape)
        path = tmp_path / "a.bin"
        write_array(path, a)
        got = read_array(path)
        assert got.ctypes.data % 64 == 0
        assert got.shape == shape and got.tobytes() == a.tobytes()

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
