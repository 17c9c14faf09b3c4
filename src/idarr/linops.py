"""Matrix-free linear operators and their file formats.

A LinearMap exposes a forward action and its adjoint on vectors and blocks.
Concrete maps cover dense matrices, diagonal scalings, integral-equation
discretizations, and spatially invariant image blur. All solvers in this
package touch operators only through apply, apply_adjoint and
apply_residual (r = A v - w, or A v with no w, and A^T r), whose default is
built from the first two, so any map that implements those is usable
matrix-free. DenseMap runs apply_residual as one pass over blocks of rows.
"""

from abc import ABC, abstractmethod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrayio import aligned_empty
from .errors import DimensionError, GeometryError, IoError, KernelEvaluationError


class LinearMap(ABC):
    """Linear operator from R^cols to R^rows with an explicit adjoint.

    Subclasses implement ``_apply`` and ``_apply_adjoint`` for a vector ``(n,)``
    and a block ``(n, k)`` alike, each returning a new array; the wrappers
    check shapes and return float64.
    """

    def __init__(self, rows, cols):
        rows, cols = int(rows), int(cols)
        if rows <= 0 or cols <= 0:
            raise DimensionError(f"operator dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    @property
    def shape(self):
        return (self.rows, self.cols)

    def apply(self, v):
        v = self._check_vec(v, self.cols, "apply")
        return np.asarray(self._apply(v), dtype=np.float64)

    def apply_adjoint(self, w):
        w = self._check_vec(w, self.rows, "apply_adjoint")
        return np.asarray(self._apply_adjoint(w), dtype=np.float64)

    def apply_residual(self, v, w=None):
        """(r, A^T r) with r = A v - w, for a vector v (n,) or a block (n, k).

        w has the shape of A v; with no w, r is A v and A^T r is A^T A v.
        By default this is apply, the subtraction, then apply_adjoint of r.
        Both results are new arrays; a caller may update them in place.
        """
        v = self._check_vec(v, self.cols, "apply_residual")
        if w is not None:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (self.rows, *v.shape[1:]):
                raise DimensionError(f"{type(self).__name__}.apply_residual expects w of shape "
                                     f"{(self.rows, *v.shape[1:])}, got {w.shape}")
        return self._apply_residual(v, w)

    def _apply_residual(self, v, w):
        r = self.apply(v)
        if w is not None:
            r -= w
        return r, self.apply_adjoint(r)

    @abstractmethod
    def _apply(self, v):
        ...

    @abstractmethod
    def _apply_adjoint(self, w):
        ...

    def _column_blocks(self):
        """(j, columns j.. of the matrix) per product with a 64-column slice of the identity."""
        for j in range(0, self.cols, 64):
            yield j, self.apply(np.eye(self.cols, min(64, self.cols - j), -j))

    def column_abs_sums(self):
        """Per-column sums of absolute entries, 64 columns per product."""
        return np.concatenate([np.abs(block).sum(axis=0) for _, block in self._column_blocks()])

    def as_dense(self):
        """Materialize the operator matrix, 64 columns per product."""
        out = np.empty(self.shape)
        for j, block in self._column_blocks():
            out[:, j:j + block.shape[1]] = block
        return out

    def _check_vec(self, v, n, what):
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[0] != n:
            raise DimensionError(f"{type(self).__name__}.{what} expects shape ({n},) or "
                                 f"({n}, k), got {v.shape}")
        return v

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"


# bytes of A per row block of DenseMap's fused product; of 256 KiB to 2 MiB,
# 512 KiB and 1 MiB were fastest on a core with 2 MiB of L2
NORMAL_BLOCK_BYTES = 1 << 20


class DenseMap(LinearMap):
    """Operator backed by an explicit matrix, kept as given: a float64 array is not copied."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise DimensionError(f"entries must be 2-d, got shape {entries.shape}")
        super().__init__(entries.shape[0], entries.shape[1])
        self.entries = entries

    def _apply(self, v):
        return self.entries @ v

    def _apply_adjoint(self, w):
        return self.entries.T @ w

    def _apply_residual(self, v, w):
        """(r, A^T r) with r = A v - w (A v when w is None) in one read of A.

        Each row block a_i of NORMAL_BLOCK_BYTES forms r_i = a_i v - w_i and
        adds a_i^T r_i while it is in cache. The blocks' products are summed
        in order, so a matrix that fits one block gives bitwise the two
        products ``apply`` and ``apply_adjoint``; more blocks agree with them
        up to the rounding of the sum.
        """
        a, step = self.entries, max(1, NORMAL_BLOCK_BYTES // (8 * self.cols))
        if step >= self.rows:  # one block, without the loop's bookkeeping
            r = a @ v
            if w is not None:
                r -= w
            return r, a.T @ r
        parts, out = [], None
        for i in range(0, self.rows, step):
            block = a[i:i + step]
            r = block @ v
            if w is not None:
                r -= w[i:i + step]
            out = block.T @ r if out is None else np.add(out, block.T @ r, out=out)
            parts.append(r)
        return np.concatenate(parts), out

    def column_abs_sums(self):
        # bitwise np.abs(entries).sum(axis=0): NumPy sums contiguous columns pairwise, else by rows
        a, k = self.entries, 64  # lines per block; of 16 to 256, 32 and 64 were fastest
        if a.shape[1] == 1 or abs(a.strides[0]) < abs(a.strides[1]):
            return np.hstack([np.abs(a[:, j:j + k]).sum(axis=0) for j in range(0, a.shape[1], k)])
        carry = np.zeros(a.shape[1])
        for i in range(0, a.shape[0], k):
            block = np.abs(a[i:i + k])
            block[0] += carry
            carry = block.sum(axis=0)
        return carry

    def as_dense(self):
        """A read-only view of entries: the operator is shared, not copied."""
        view = self.entries.view()
        view.flags.writeable = False
        return view


class DiagonalMap(LinearMap):
    """Entrywise scaling by a fixed diagonal."""

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=np.float64)
        if diag.ndim != 1:
            raise DimensionError(f"diagonal must be 1-d, got shape {diag.shape}")
        super().__init__(diag.shape[0], diag.shape[0])
        self.diag = diag

    def _apply(self, v):
        return (v.T * self.diag).T  # scales the rows of a block

    _apply_adjoint = _apply  # a diagonal is its own transpose

    def column_abs_sums(self):
        return np.abs(self.diag)

    def as_dense(self):
        return np.diag(self.diag)


BLOCK = 16  # output lines per Toeplitz block; of 8 to 48, 8 and 16 were fastest


class PsfConvolutionMap(LinearMap):
    """Blur of a square image by a point-spread function, zero outside the frame.

    Vectors are row-major flattenings of side x side images. The forward
    action convolves with the kernel; the adjoint correlates with it.

    The kernel is kept in ``self.terms`` as ``(column, row)`` pairs whose
    outer products sum to it (``_separable_terms``); a kernel of numerical
    rank 1, such as ``gaussian_psf``'s ``outer(g, g)``, is one term. Each
    term is two 1-D passes of blocked matrix products: the row pass, then
    the column pass, in both directions. A pass zero-pads its axis, so
    every ``BLOCK`` output lines see one Toeplitz block of the taps applied
    to ``BLOCK + k - 1`` input lines; the map keeps one such block per
    term, pass and direction. A block of vectors runs the same passes,
    each line holding that line of every column. The first term's output
    is the accumulator and the later terms are added to it in place, in
    order, so at most two frames are live for one term and three for more.

    Each term's entry of the realized matrix is one rounded product of its
    column and row weights, and the terms are summed in the same order in
    both directions, so ``as_dense()`` of the adjoint is bitwise the
    transpose of ``as_dense()`` of the forward action; on a general vector
    the two actions agree with that matrix up to the rounding of their
    sums. The terms' outer products differ from ``self.psf`` (the
    normalized kernel, as given) by at most ``8 * eps * max(psf)`` per
    entry.
    """

    def __init__(self, side, psf):
        side = int(side)
        if side < 1:
            raise DimensionError(f"image side must be positive, got {side}")
        psf = np.asarray(psf, dtype=np.float64)
        if psf.ndim != 2:
            raise DimensionError(f"psf must be 2-d, got shape {psf.shape}")
        if not np.all(np.isfinite(psf)):
            raise GeometryError("psf contains non-finite values")
        if np.any(psf < 0):
            raise GeometryError("psf must be nonnegative")
        total = psf.sum()
        if total <= 0:
            raise GeometryError("psf must have positive total weight")
        super().__init__(side * side, side * side)
        self.side = side
        self.psf = psf / total
        self.terms = _separable_terms(self.psf)
        # per term, (block, zero lines ahead of the frame) per pass, row
        # taps first: the convolution slides the reversed taps, the
        # correlation the taps as given
        self._passes = {
            False: [[(_toeplitz_block(t[::-1]), len(t) - 1 - len(t) // 2) for t in (row, col)]
                    for col, row in self.terms],
            True: [[(_toeplitz_block(t), len(t) // 2) for t in (row, col)]
                   for col, row in self.terms],
        }

    def _product(self, v, flip):
        n = self.side
        k = v.size // self.rows  # columns of a block; a vector is one
        lines = -(-n // BLOCK) * BLOCK
        # Each pass runs on its input with the first two axes swapped, so the
        # row pass comes first and the column pass leaves a C-ordered frame.
        # A pass frees its input and buffer before the next allocation.
        total = None
        for passes in self._passes[flip]:
            img = v.reshape(n, n, k)
            for block, lead in passes:
                width = block.shape[1]
                padded = np.zeros((lines + width - BLOCK, n, k))
                padded[lead:lead + n] = img.transpose(1, 0, 2)
                del img
                # output line b * BLOCK + r is block[r] @ padded[b * BLOCK:][:width]
                windows = sliding_window_view(padded.reshape(len(padded), -1), width, 0)[::BLOCK]
                img = (block @ windows.transpose(0, 2, 1)).reshape(lines, n, k)[:n]
                del padded, windows
            total = img if total is None else np.add(total, img, out=total)
        return total.reshape(v.shape)

    def _apply(self, v):
        return self._product(v, False)

    def _apply_adjoint(self, w):
        return self._product(w, True)

    def column_abs_sums(self):
        # entries are the nonnegative kernel weights up to roundoff, so the
        # absolute column sums are the adjoint applied to ones
        return self.apply_adjoint(np.ones(self.rows))


def _toeplitz_block(taps):
    """BLOCK x (BLOCK + k - 1) matrix with taps[q] on its q-th superdiagonal."""
    block = np.zeros((BLOCK, BLOCK + len(taps) - 1))
    lines = np.arange(BLOCK)
    for q, tap in enumerate(taps):
        block[lines, lines + q] = tap
    return block


def _separable_terms(psf):
    """(column, row) pairs whose outer products sum to psf to 8 eps of its peak.

    Cross approximation with complete pivoting: each term is the column
    and the row of the residual through its largest entry, the row divided
    by that entry, and its outer product is subtracted from the residual.
    It stops once no residual entry exceeds ``8 * eps * max(psf)``, after
    at most ``min(psf.shape)`` terms. No SVD is involved, so the one term
    of ``outer(g, g)`` is ``g`` up to scale, and a kernel of rank r gives
    r terms in exact arithmetic.
    """
    tol = 8.0 * np.finfo(np.float64).eps * psf.max()
    residual = psf.copy()
    terms = []
    while len(terms) < min(psf.shape):
        i, j = np.unravel_index(np.argmax(np.abs(residual)), psf.shape)
        col, row = residual[:, j].copy(), residual[i, :] / residual[i, j]
        terms.append((col, row))
        residual -= np.outer(col, row)
        if np.max(np.abs(residual)) <= tol:
            break
    return terms


def exp_decay_kernel(t, s):
    """Smooth kernel with exponentially decaying spectrum."""
    return np.exp(-np.multiply.outer(t, s)) / s**2


def poly_decay_kernel(t, s):
    """Oscillatory kernel with polynomially decaying spectrum."""
    return np.abs(np.sin(np.multiply.outer(t, s) + 1.0)) / s


KERNELS = {
    "exp": exp_decay_kernel,
    "poly": poly_decay_kernel,
}


S_RANGE = (1.0, 5.0)  # the unknown's interval
T_RANGE = (0.0, 5.0)  # the data's interval

# bytes of A per row block of build_fredholm_map's fill; the kernel's block
# temporaries stay in L2. Of 32 KiB to 1 MiB and a whole-array evaluation,
# 64 and 128 KiB built 500x100 to 2000x1000 fastest on a core with 2 MiB of L2
FILL_BLOCK_BYTES = 1 << 17


def build_fredholm_map(kernel, m, n):
    """Discretize a KERNELS integral operator on uniform grids into a DenseMap.

    The unknown lives on the n right-endpoint nodes of S_RANGE and the data
    on the m right-endpoint nodes of T_RANGE; each matrix entry is the
    kernel value times the s-grid spacing (left-endpoint node t=c is not
    used, so the data grid has exactly m nodes). The entries are filled in
    row blocks into one aligned_empty array, the only m x n array held.
    """
    m, n = int(m), int(n)
    if m <= 0 or n <= 0:
        raise DimensionError(f"grid sizes must be positive, got m={m}, n={n}")
    a, b = S_RANGE
    c, d = T_RANGE
    ds = (b - a) / n
    s = a + ds * np.arange(1, n + 1)
    t = c + (d - c) / m * np.arange(1, m + 1)
    try:
        kfun = KERNELS[kernel]
    except KeyError:
        raise KernelEvaluationError(f"unknown kernel id {kernel!r}") from None
    values, step = aligned_empty((m, n)), max(1, FILL_BLOCK_BYTES // (8 * n))
    # Overflow to inf is reported as KernelEvaluationError below, so the
    # intermediate floating-point warning carries no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, step):
            values[i:i + step] = kfun(t[i:i + step], s)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise KernelEvaluationError(
            f"kernel value at t={t[bad[0]]:g}, s={s[bad[1]]:g} is not finite"
        )
    values *= ds  # in place: one m x n array fewer
    return DenseMap(values), s, t


def gaussian_radius(width):
    """Half-width in pixels of ``gaussian_psf``: three widths, at least one.

    Raises GeometryError for a width that is not positive, or so large
    (or non-finite) that the half-width is not a finite number.
    """
    width = float(width)
    if not (width > 0 and np.isfinite(3.0 * width)):
        raise GeometryError(f"psf width must be positive and finite, got {width}")
    return max(1, int(np.ceil(3.0 * width)))


def gaussian_psf(width):
    """Isotropic Gaussian kernel, unit sum, on a (2*radius+1)^2 grid.

    radius is ``gaussian_radius(width)``.
    """
    width = float(width)
    radius = gaussian_radius(width)  # also rejects a bad width
    r = np.arange(-radius, radius + 1)
    with np.errstate(all="ignore"):  # a width whose square underflows gives 0/0
        g = np.exp(-(r**2) / (2.0 * width**2))
    g[radius] = 1.0  # equals exp(-0) at a normal width; makes a delta below it
    psf = np.outer(g, g)
    return psf / psf.sum()


def read_pgm(path):
    """Read a binary graymap of maxval 255 into a uint8 array of shape (height, width)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read image {path}: {exc}") from exc

    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise IoError(f"{path}: truncated header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise IoError(f"{path}: not a binary graymap (magic {magic!r})")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise IoError(f"{path}: malformed header") from exc
    if width <= 0 or height <= 0:
        raise IoError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:  # pixels are read as fractions of 255, as write_pgm writes them
        raise IoError(f"{path}: only graymaps with maxval 255 are supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise IoError(f"{path}: truncated raster ({len(raster)} of {width * height} bytes)")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, img):
    img = np.asarray(img)
    if img.ndim != 2:
        raise IoError(f"image must be 2-d, got shape {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img).tobytes())


def read_psf_text(path):
    """Read a kernel from a whitespace-separated text grid."""
    try:
        psf = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise IoError(f"cannot read psf {path}: {exc}") from exc
    except ValueError as exc:
        raise IoError(f"{path}: malformed psf grid: {exc}") from exc
    if psf.size == 0:
        raise IoError(f"{path}: empty psf grid")
    if not np.all(np.isfinite(psf)) or np.any(psf < 0) or not psf.sum() > 0:
        raise IoError(f"{path}: psf grid entries must be finite, nonnegative, not all zero")
    return psf


def write_psf_text(path, psf):
    np.savetxt(path, np.asarray(psf, dtype=np.float64))
