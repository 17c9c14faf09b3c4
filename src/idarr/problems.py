"""Benchmark problem construction, noise, error metrics, serialization."""

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .arrayio import read_array, write_array
from .errors import DimensionError, GeometryError, IoError
from .linops import (
    DenseMap,
    DiagonalMap,
    PsfConvolutionMap,
    build_fredholm_map,
    gaussian_psf,
    gaussian_radius,
    read_pgm,
    read_psf_text,
    write_psf_text,
)
from .rkhs import RkhsGeometry, generalized_eig, make_geometry

S_RANGE = (1.0, 5.0)
T_RANGE = (0.0, 5.0)
NSR_LADDER = (0.0625, 0.125, 0.25, 0.5, 1.0)


@dataclass
class FredholmSetup:
    """Discretized integral-equation instance with its grids and geometry."""

    linmap: DenseMap
    geom: RkhsGeometry
    s: np.ndarray
    t: np.ndarray
    dt: float
    kernel: str
    _decomp: object = None

    def decomposition(self):
        if self._decomp is None:
            a = self.linmap.entries
            self._decomp = generalized_eig(a.T @ a, self.geom.rho)
        return self._decomp


def make_fredholm(kernel="exp", m=500, n=100):
    linmap, s, t = build_fredholm_map(kernel, m, n, S_RANGE, T_RANGE)
    geom = make_geometry(linmap)
    dt = (T_RANGE[1] - T_RANGE[0]) / m
    return FredholmSetup(linmap=linmap, geom=geom, s=s, t=t, dt=dt, kernel=kernel)


def true_solution(setup, kind="in-range"):
    """Ground truth on the unknown's grid.

    "in-range" is the second eigenvector of the weighted spectral problem,
    which has unit L2(rho) norm by construction and is identifiable from
    noiseless data. "out-of-range" samples s^2 on the grid, which no
    explorable component reproduces exactly.
    """
    if kind in ("in-range", "in"):
        decomp = setup.decomposition()
        if decomp.rank < 2:
            raise GeometryError("operator rank below 2; no second eigenvector")
        return decomp.V[:, 1].copy()
    if kind in ("out-of-range", "out"):
        return setup.s**2
    raise ValueError(f"unknown truth kind {kind!r}")


@dataclass
class TestProblem:
    """Operator, geometry, truth, and (possibly noisy) observation."""

    linmap: object
    geom: RkhsGeometry
    x_true: np.ndarray
    b_clean: np.ndarray
    b: np.ndarray
    sigma: float
    dt: float
    nsr: float
    seed: int | None

    @property
    def noise_norm(self):
        """Root of the expected squared noise norm, sigma * sqrt(dt * m)."""
        return self.sigma * np.sqrt(self.dt * self.linmap.rows)


def clean_problem(setup, x_true):
    b_clean = setup.linmap.apply(x_true)
    return TestProblem(
        linmap=setup.linmap, geom=setup.geom, x_true=np.asarray(x_true, float),
        b_clean=b_clean, b=b_clean.copy(), sigma=0.0, dt=setup.dt, nsr=0.0, seed=None,
    )


def add_noise(problem, nsr, seed):
    """Fresh noisy observation: b = b_clean + sigma * sqrt(dt) * g, g standard normal.

    sigma scales with the clean data norm, so nsr fixes the noise-to-signal
    ratio; the per-entry variance sigma^2 * dt makes the expected squared
    noise norm sigma^2 * dt * m.
    """
    nsr = float(nsr)
    if not 0 <= nsr < np.inf:
        raise ValueError(f"noise-to-signal ratio must be nonnegative and finite, got {nsr}")
    sigma = float(np.linalg.norm(problem.b_clean)) * nsr
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(problem.b_clean.shape[0])
    b = problem.b_clean + sigma * np.sqrt(problem.dt) * g
    return replace(problem, b=b, sigma=sigma, nsr=nsr, seed=int(seed))


def l2rho_error(geom, x_hat, x_true):
    """Error in the exploration-weighted norm, sqrt(sum_i rho_i (dx_i)^2)."""
    return geom.weighted_norm(np.asarray(x_hat, float) - np.asarray(x_true, float))


# -- image deblurring --------------------------------------------------------


def synthetic_image(kind, side):
    """Grayscale test image in [0, 1]."""
    side = int(side)
    if side < 8:
        raise DimensionError(f"image side must be at least 8, got {side}")
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    if kind == "checkerboard":
        block = max(side // 8, 1)
        r, c = np.indices((side, side)) // block
        return np.where((r + c) % 2 == 0, 0.25, 0.85)
    if kind == "blobs":
        img = np.zeros((side, side))
        for cx, cy, w, h in ((0.3, 0.35, 0.12, 0.9), (0.7, 0.6, 0.18, 0.7),
                             (0.45, 0.75, 0.08, 0.5)):
            img += h * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * w**2))
        return np.clip(img, 0.0, 1.0)
    if kind == "ramp":
        return 0.1 + 0.8 * xx
    raise ValueError(f"unknown synthetic image kind {kind!r}")


def _resolve_image(image):
    if isinstance(image, np.ndarray):
        img = np.asarray(image, dtype=np.float64)
        if img.max() > 1.0:
            img = img / 255.0
    elif isinstance(image, str) and ":" in image and not os.path.exists(image):
        kind, _, s = image.partition(":")
        img = synthetic_image(kind, int(s))
    elif isinstance(image, str):
        img = read_pgm(image).astype(np.float64) / 255.0
    else:
        raise IoError(f"cannot interpret image spec {image!r}")
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise DimensionError(f"image must be square, got shape {img.shape}")
    return img


def _check_psf_size(shape, side):
    # taps farther than side - 1 pixels from the center never touch the frame
    if any(k > 2 * side - 1 for k in shape):
        raise ValueError(
            f"psf of shape {tuple(shape)} is wider than {2 * side - 1} pixels, "
            f"the widest kernel a {side}x{side} image can feel"
        )


def _resolve_psf(psf, side):
    """Kernel for a side x side image from an array, "gaussian[:WIDTH]" or a text grid.

    A bad width or an oversized kernel raises ValueError; a Gaussian is
    sized before its grid is allocated.
    """
    if isinstance(psf, str) and psf.startswith("gaussian"):
        _, _, w = psf.partition(":")
        width = float(w) if w else 2.0
        try:
            radius = gaussian_radius(width)
        except GeometryError as exc:
            raise ValueError(str(exc)) from None
        _check_psf_size((2 * radius + 1,) * 2, side)
        return gaussian_psf(width, radius)
    if isinstance(psf, np.ndarray):
        kernel = np.asarray(psf, dtype=np.float64)
    elif isinstance(psf, str):
        kernel = read_psf_text(psf)
    else:
        raise IoError(f"cannot interpret psf spec {psf!r}")
    _check_psf_size(kernel.shape, side)
    return kernel


def make_deblur(image, psf="gaussian:2", nsr=0.01, seed=0):
    """Square-image deblurring problem with zero boundary.

    The observation grid carries unit weight per pixel, so dt = 1/m here
    and the expected noise norm is sigma = nsr * ||b_clean||; nsr is then
    the relative noise magnitude, the usual convention for image data.
    A kernel wider than 2 * side - 1 pixels raises ValueError.
    """
    img = _resolve_image(image)
    n_side = img.shape[0]
    linmap = PsfConvolutionMap(n_side, _resolve_psf(psf, n_side))
    geom = make_geometry(linmap)
    x_true = img.ravel().astype(np.float64)
    b_clean = linmap.apply(x_true)
    base = TestProblem(
        linmap=linmap, geom=geom, x_true=x_true, b_clean=b_clean, b=b_clean.copy(),
        sigma=0.0, dt=1.0 / linmap.rows, nsr=0.0, seed=None,
    )
    # add_noise rejects a negative or non-finite ratio; only an exact zero
    # skips the noise
    return add_noise(base, nsr, seed) if nsr != 0 else base


# -- serialization -----------------------------------------------------------


def save_operator(linmap, dirpath, name="operator"):
    """Write an operator descriptor plus its payload files; returns the descriptor path."""
    os.makedirs(dirpath, exist_ok=True)
    desc_path = os.path.join(dirpath, f"{name}.json")
    if isinstance(linmap, PsfConvolutionMap):
        psf_file = f"{name}_psf.txt"
        write_psf_text(os.path.join(dirpath, psf_file), linmap.psf)
        desc = {"kind": "psf", "side": linmap.side, "psf": psf_file}
    elif isinstance(linmap, DiagonalMap):
        diag_file = f"{name}_diag.bin"
        write_array(os.path.join(dirpath, diag_file), linmap.diag)
        desc = {"kind": "diagonal", "diag": diag_file}
    elif isinstance(linmap, DenseMap):
        ent_file = f"{name}_entries.bin"
        write_array(os.path.join(dirpath, ent_file), linmap.entries)
        desc = {"kind": "dense", "rows": linmap.rows, "cols": linmap.cols,
                "entries": ent_file}
    else:
        raise IoError(f"cannot serialize operator of type {type(linmap).__name__}")
    with open(desc_path, "w", encoding="utf-8") as fh:
        json.dump(desc, fh, indent=1)
        fh.write("\n")
    return desc_path


def load_operator(desc_path):
    """The operator that a save_operator descriptor describes.

    An unreadable descriptor or payload, a missing or bad field, and a
    payload of the wrong shape for its kind all raise IoError.
    """
    try:
        with open(desc_path, "r", encoding="utf-8") as fh:
            desc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read operator descriptor {desc_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"{desc_path}: malformed descriptor: {exc}") from exc
    if not isinstance(desc, dict):
        raise IoError(f"{desc_path}: descriptor must be a JSON object")
    base = os.path.dirname(os.path.abspath(desc_path))
    kind = desc.get("kind")
    try:
        if kind == "dense":
            return DenseMap(read_array(os.path.join(base, desc["entries"])))
        if kind == "diagonal":
            return DiagonalMap(read_array(os.path.join(base, desc["diag"])))
        if kind == "psf":
            psf = read_psf_text(os.path.join(base, desc["psf"]))
            return PsfConvolutionMap(int(desc["side"]), psf)
    except KeyError as exc:
        raise IoError(f"{desc_path}: {kind} descriptor has no {exc} field") from None
    except (TypeError, ValueError, OverflowError, DimensionError) as exc:
        raise IoError(f"{desc_path}: bad {kind} descriptor: {exc}") from None
    raise IoError(f"{desc_path}: unknown operator kind {kind!r}")
