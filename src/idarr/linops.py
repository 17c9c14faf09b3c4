"""Matrix-free linear operators and their file formats.

A LinearMap exposes a forward action and its adjoint on flat float vectors.
Concrete maps cover dense matrices, diagonal scalings, integral-equation
discretizations, and spatially invariant image blur. All solvers in this
package touch operators only through apply/apply_adjoint, so any map is
usable matrix-free.
"""

from abc import ABC, abstractmethod

import numpy as np

from .errors import DimensionError, GeometryError, IoError, KernelEvaluationError


class LinearMap(ABC):
    """Linear operator from R^cols to R^rows with an explicit adjoint.

    Subclasses implement ``_apply`` and ``_apply_adjoint``; the public
    wrappers validate operand shapes and always return float64 arrays.
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

    @abstractmethod
    def _apply(self, v):
        ...

    @abstractmethod
    def _apply_adjoint(self, w):
        ...

    def column_abs_sums(self):
        """Per-column sums of absolute entries, computed via canonical basis vectors."""
        out = np.empty(self.cols)
        e = np.zeros(self.cols)
        for i in range(self.cols):
            e[i] = 1.0
            out[i] = np.abs(self.apply(e)).sum()
            e[i] = 0.0
        return out

    def as_dense(self):
        """Materialize the operator matrix column by column."""
        cols = np.empty((self.rows, self.cols))
        e = np.zeros(self.cols)
        for i in range(self.cols):
            e[i] = 1.0
            cols[:, i] = self.apply(e)
            e[i] = 0.0
        return cols

    def _check_vec(self, v, n, what):
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != n:
            raise DimensionError(
                f"{type(self).__name__}.{what} expects a vector of length {n}, "
                f"got shape {v.shape}"
            )
        return v

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class DenseMap(LinearMap):
    """Operator backed by an explicit matrix."""

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

    def column_abs_sums(self):
        return np.abs(self.entries).sum(axis=0)

    def as_dense(self):
        return self.entries.copy()


class DiagonalMap(LinearMap):
    """Entrywise scaling by a fixed diagonal."""

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=np.float64)
        if diag.ndim != 1:
            raise DimensionError(f"diagonal must be 1-d, got shape {diag.shape}")
        super().__init__(diag.shape[0], diag.shape[0])
        self.diag = diag

    def _apply(self, v):
        return self.diag * v

    def _apply_adjoint(self, w):
        return self.diag * w

    def column_abs_sums(self):
        return np.abs(self.diag)

    def as_dense(self):
        return np.diag(self.diag)


class PsfConvolutionMap(LinearMap):
    """Blur of a square image by a point-spread function, zero outside the frame.

    Vectors are row-major flattenings of side x side images. The forward
    action convolves with the kernel; the adjoint correlates with it. Both
    are computed by direct shifted accumulation, one full-image pass per
    nonzero tap of each factor in ``self.factors``.

    A kernel of numerical rank 1 (``gaussian_psf`` is ``outer(g, g)``) is
    kept as a ``kp x 1`` column factor and a ``1 x kq`` row factor, so a
    product costs kp + kq passes instead of kp * kq. The forward action
    runs the factors in order, the adjoint runs them in reverse order with
    the shifts negated. Any other kernel is a single factor. Each entry of
    the realized matrix is one rounded product of factor weights, summed
    with exact zeros only, so ``as_dense()`` of the adjoint is bitwise the
    transpose of ``as_dense()`` of the forward action; on a general vector
    the two actions agree with that matrix up to the rounding of their sums.
    The factored matrix differs from ``self.psf`` (the normalized kernel,
    as given) by at most ``8 * eps * max(psf)`` per entry.
    """

    def __init__(self, side, psf):
        side = int(side)
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
        self.factors = _rank1_factors(self.psf) or [self.psf]

    def _shifted_accumulate(self, img, flip, kernel):
        n = self.side
        kp, kq = kernel.shape
        cp, cq = kp // 2, kq // 2
        out = np.zeros_like(img)
        for p in range(kp):
            for q in range(kq):
                w = kernel[p, q]
                if w == 0.0:
                    continue
                dp, dq = p - cp, q - cq
                if flip:
                    dp, dq = -dp, -dq
                # out[i, j] += w * img[i - dp, j - dq], zero outside the frame
                r0, r1 = max(dp, 0), n + min(dp, 0)
                c0, c1 = max(dq, 0), n + min(dq, 0)
                if r0 >= r1 or c0 >= c1:
                    continue
                out[r0:r1, c0:c1] += w * img[r0 - dp:r1 - dp, c0 - dq:c1 - dq]
        return out

    def _apply(self, v):
        img = v.reshape(self.side, self.side)
        for kernel in self.factors:
            img = self._shifted_accumulate(img, False, kernel)
        return img.ravel()

    def _apply_adjoint(self, w):
        img = w.reshape(self.side, self.side)
        for kernel in reversed(self.factors):
            img = self._shifted_accumulate(img, True, kernel)
        return img.ravel()

    def column_abs_sums(self):
        # entries are products of nonnegative kernel weights, so the
        # absolute column sums are just the adjoint applied to ones
        return self.apply_adjoint(np.ones(self.rows))


def _rank1_factors(psf):
    """Column and row kernels whose outer product is psf, or None.

    The factors are the column and the row through the largest entry, the
    row divided by that entry; no SVD is involved, so the factors of
    ``outer(g, g)`` are ``g`` up to scale. They are accepted only if their
    outer product reproduces psf to 8 eps of its largest entry. A kernel
    that is already a single row or column gains nothing from a split.
    """
    if min(psf.shape) == 1:
        return None
    i, j = np.unravel_index(np.argmax(psf), psf.shape)
    peak = psf[i, j]
    col = psf[:, j]
    row = psf[i, :] / peak
    if np.max(np.abs(np.outer(col, row) - psf)) > 8.0 * np.finfo(np.float64).eps * peak:
        return None
    return [col[:, None], row[None, :]]


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


def build_fredholm_map(kernel, m, n, s_range=(1.0, 5.0), t_range=(0.0, 5.0)):
    """Discretize an integral operator on uniform grids into a DenseMap.

    The unknown lives on the n right-endpoint nodes of s_range and the data
    on the m right-endpoint nodes of t_range; each matrix entry is the
    kernel value times the s-grid spacing (left-endpoint node t=c is not
    used, so the data grid has exactly m nodes).
    """
    m, n = int(m), int(n)
    if m <= 0 or n <= 0:
        raise DimensionError(f"grid sizes must be positive, got m={m}, n={n}")
    a, b = map(float, s_range)
    c, d = map(float, t_range)
    if not (b > a and d > c):
        raise DimensionError(f"degenerate ranges s={s_range}, t={t_range}")
    ds = (b - a) / n
    s = a + ds * np.arange(1, n + 1)
    t = c + (d - c) / m * np.arange(1, m + 1)
    try:
        kfun = KERNELS[kernel]
    except KeyError:
        raise KernelEvaluationError(f"unknown kernel id {kernel!r}") from None
    # Overflow to inf is reported as KernelEvaluationError below, so the
    # intermediate floating-point warning carries no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        values = kfun(t, s)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise KernelEvaluationError(
            f"kernel value at t={t[bad[0]]:g}, s={s[bad[1]]:g} is not finite"
        )
    return DenseMap(values * ds), s, t


def gaussian_radius(width):
    """Default half-width in pixels of ``gaussian_psf``: three widths, at least one.

    Raises GeometryError for a width that is not positive, or so large
    (or non-finite) that the half-width is not a finite number.
    """
    width = float(width)
    if not (width > 0 and np.isfinite(3.0 * width)):
        raise GeometryError(f"psf width must be positive and finite, got {width}")
    return max(1, int(np.ceil(3.0 * width)))


def gaussian_psf(width, radius=None):
    """Isotropic Gaussian kernel, unit sum, on a (2*radius+1)^2 grid.

    radius defaults to ``gaussian_radius(width)``.
    """
    width = float(width)
    default_radius = gaussian_radius(width)  # also rejects a bad width
    if radius is None:
        radius = default_radius
    r = np.arange(-radius, radius + 1)
    with np.errstate(all="ignore"):  # a width whose square underflows gives 0/0
        g = np.exp(-(r**2) / (2.0 * width**2))
    g[radius] = 1.0  # equals exp(-0) at a normal width; makes a delta below it
    psf = np.outer(g, g)
    return psf / psf.sum()


def read_pgm(path):
    """Read an 8-bit binary graymap into a uint8 array of shape (height, width)."""
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
    if not 0 < maxval < 256:
        raise IoError(f"{path}: only 8-bit graymaps supported, maxval={maxval}")
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
