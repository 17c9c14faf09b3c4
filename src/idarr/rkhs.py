"""Data-adaptive weighted geometry and the dense spectral machinery.

The operator's normalized absolute column sums define a discrete measure
rho on the unknown's grid. The reproducing-kernel norm adapted to the
operator is the quadratic form of the pseudoinverse of

    C = B (A^T A)^+ B,      B = diag(rho),

whose own pseudoinverse has the closed form C^+ = B^-1 A^T A B^-1 and is
therefore applicable matrix-free. The dense routines here (generalized
eigendecomposition, norm evaluation, regularized direct solves) serve both
as baselines and as oracles for the iterative solver.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateColumnError, DimensionError, GeometryError, TrivialDataError
from .linops import LinearMap

_LOG_FLOOR = 1e-300  # clamp before taking logs so zero residuals stay finite
N_LAMBDAS = 64  # points on the regularization-strength ladder of the direct solvers


def compute_exploration_weights(linmap):
    """Normalized absolute column sums of the operator.

    The result is a strictly positive probability vector; a column with
    zero absolute sum means the corresponding unknown is never explored by
    the data and raises DegenerateColumnError.
    """
    sums = np.asarray(linmap.column_abs_sums(), dtype=np.float64)
    zero = np.flatnonzero(sums <= 0.0)
    if zero.size:
        raise DegenerateColumnError(zero[0], zero.size)
    return sums / sums.sum()


@dataclass
class RkhsGeometry:
    """An operator together with its exploration measure."""

    linmap: LinearMap
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.ndim != 1 or self.rho.shape[0] != self.linmap.cols:
            raise GeometryError(
                f"weights must have length {self.linmap.cols}, got shape {self.rho.shape}"
            )
        if np.any(self.rho <= 0) or not np.all(np.isfinite(self.rho)):
            raise GeometryError("weights must be strictly positive and finite")
        # Any positive diagonal weight is a valid geometry (uniform weights
        # of 1 recover the plain Euclidean metric); normalization to a
        # probability vector is the job of compute_exploration_weights.

    def solve_b(self, v):
        return v / self.rho

    def apply_crkhs_pinv(self, p):
        """Apply C^+ = B^-1 A^T A B^-1 without forming any matrix."""
        t = self.linmap.apply(p / self.rho)
        return self.linmap.apply_adjoint(t) / self.rho

    def weighted_norm(self, v):
        """Norm in L2(rho): sqrt(sum_i rho_i v_i^2)."""
        v = np.asarray(v, dtype=np.float64)
        return float(np.sqrt(np.sum(self.rho * v * v)))


def make_geometry(linmap):
    return RkhsGeometry(linmap, compute_exploration_weights(linmap))


@dataclass
class SpectralDecomposition:
    """Eigenpairs of A^T A V = B V Lam with V^T B V = I, eigenvalues descending."""

    V: np.ndarray
    lambdas: np.ndarray
    rank: int


def generalized_eig(gram, rho):
    """Solve the weighted eigenproblem by symmetric reduction.

    gram is the n x n normal matrix A^T A. With D = diag(sqrt(rho)), the
    symmetric matrix D^-1 (A^T A) D^-1 is diagonalized and eigenvectors are
    mapped back by D^-1, which enforces the B-orthonormality exactly.
    Eigenvalues are clamped at zero and the rank counts those above
    lambda_max * n * eps.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        raise GeometryError("weights must be strictly positive and finite")
    gram = np.asarray(gram, dtype=np.float64)
    n = rho.shape[0]
    if gram.shape != (n, n):
        raise DimensionError(f"normal matrix must be {n}x{n}, got {gram.shape}")
    d = np.sqrt(rho)
    sym = gram / d[:, None] / d[None, :]
    sym = 0.5 * (sym + sym.T)
    mu, q = np.linalg.eigh(sym)
    order = np.argsort(mu)[::-1]
    mu = np.maximum(mu[order], 0.0)
    v = q[:, order] / d[:, None]
    lam_max = mu[0] if mu.size else 0.0
    rank = int(np.count_nonzero(mu > lam_max * n * np.finfo(float).eps))
    return SpectralDecomposition(V=v, lambdas=mu, rank=rank)


def rkhs_norm_sq(decomp, rho, x):
    """Quadratic form x^T C^+ ... evaluated spectrally: x^T (V Lam V^T)^+ x.

    Uses the B-orthonormality inverse V^-1 = V^T B, truncated at the
    decomposition's rank; components outside the range contribute nothing.
    """
    rho = np.asarray(rho, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    r = decomp.rank
    if r == 0:
        return 0.0
    coeffs = decomp.V[:, :r].T @ (rho * x)
    return float(np.sum(coeffs**2 / decomp.lambdas[:r]))


@dataclass
class DirectResult:
    """Solution path of a regularized direct solve with its selected point.

    path[j] is the solution at strength lambdas[j]; x is a copy of
    path[corner_index], so keeping x alone does not keep the path alive.
    """

    x: np.ndarray
    lam: float
    corner_index: int
    lambdas: np.ndarray
    residual_sq: np.ndarray
    penalty_sq: np.ndarray
    path: np.ndarray = field(repr=False)
    weak_corner: bool = False


def _select_corner(residual_sq, penalty_sq):
    # curve ordered so residual decreases; corner logic shared with the
    # iterative selection rule
    from .solver import lcurve_corner

    pts = list(
        zip(
            np.log(np.maximum(residual_sq, _LOG_FLOOR)),
            np.log(np.maximum(penalty_sq, _LOG_FLOOR)),
        )
    )
    return lcurve_corner(pts)


def _lambda_grid(lam_max, lam_min):
    # The ladder spans the spectrum and extends a few decades below its
    # smallest positive value: for well-conditioned systems the best
    # strength sits far under the smallest eigenvalue (the noiseless
    # optimum is lambda -> 0), so stopping the sweep at lam_min would pin
    # the solution to an over-regularized point. The machine-precision
    # floor keeps the ladder finite when the spectrum is numerically
    # rank-deficient.
    lo = max(1e-4 * lam_min, 1e-14 * lam_max)
    return np.geomspace(lam_max, lo, N_LAMBDAS)


def _dense_problem(linmap, b):
    b = np.asarray(b, dtype=np.float64)
    if np.linalg.norm(b) == 0:
        raise TrivialDataError("data vector is identically zero")
    a = linmap.as_dense() if isinstance(linmap, LinearMap) else np.asarray(linmap, float)
    return a, b


def _ridge_path(k, b, ladder):
    """Corner-selected ridge path of min ||k y - b||^2 + lam ||y||^2.

    k is the operator in standard form, k = A T for the change of variables
    x = T y that turns the method's penalty into the plain squared norm.
    One eigendecomposition of k^T k serves the whole ladder; ladder maps its
    eigenvalues (ascending, clamped at zero) to the strengths to sweep, and
    every strength is evaluated at once as a (ladder x rank) array. The
    result's path and x are in y coordinates; the caller maps them to x.
    """
    gram = k.T @ k
    mu, q = np.linalg.eigh(0.5 * (gram + gram.T))
    mu = np.maximum(mu, 0.0)
    if mu[-1] == 0.0:
        raise TrivialDataError("operator is identically zero")
    lambdas = ladder(mu)
    g = q.T @ (k.T @ b)
    path = (g / (mu + lambdas[:, None])) @ q.T
    res = path @ k.T - b
    residual_sq = np.einsum("ij,ij->i", res, res)
    penalty_sq = np.einsum("ij,ij->i", path, path)
    corner, weak = _select_corner(residual_sq, penalty_sq)
    return DirectResult(
        x=path[corner],
        lam=float(lambdas[corner]),
        corner_index=int(corner),
        lambdas=lambdas,
        residual_sq=residual_sq,
        penalty_sq=penalty_sq,
        path=path,
        weak_corner=weak,
    )


def dartr_solve(linmap, rho, b):
    """Direct adaptive-norm regularization over a spectral coordinate ladder.

    Transforms the penalized normal equations with the square-root factor
    C_* = V Lam^(1/2) restricted to the numerical rank, where the penalty
    becomes the plain squared norm, sweeps a logarithmic ladder of
    regularization strengths spanning the generalized eigenvalue range, and
    picks the strength at the corner of the (log residual^2, log penalty^2)
    curve.
    """
    a, b = _dense_problem(linmap, b)
    rho = np.asarray(rho, dtype=np.float64)
    decomp = generalized_eig(a.T @ a, rho)
    r = decomp.rank
    if r == 0:
        raise TrivialDataError("operator has numerical rank zero")
    cstar = decomp.V[:, :r] * np.sqrt(decomp.lambdas[:r])[None, :]
    lambdas = _lambda_grid(decomp.lambdas[0], decomp.lambdas[r - 1])
    result = _ridge_path(a @ cstar, b, lambda mu: lambdas)
    path = result.path @ cstar.T
    return replace(result, x=path[result.corner_index].copy(), path=path)


def tikhonov_direct(linmap, b, weights=None):
    """Classical regularized least squares with a diagonal penalty.

    weights None penalizes the plain squared norm; a positive weight vector
    w penalizes sum_i w_i x_i^2. The strength ladder spans the squared
    singular value range of the (column-scaled) operator and the returned
    point is the corner of the (log residual^2, log penalty^2) curve.
    """
    a, b = _dense_problem(linmap, b)
    weights = np.ones(a.shape[1]) if weights is None else np.asarray(weights, np.float64)
    if np.any(weights <= 0):
        raise GeometryError("penalty weights must be strictly positive")
    scale = 1.0 / np.sqrt(weights)
    # the nonzero squared singular values are the top min(m, n) eigenvalues
    rank = min(a.shape)
    result = _ridge_path(a * scale[None, :], b, lambda mu: _lambda_grid(mu[-1], mu[-rank]))
    path = result.path * scale
    return replace(result, x=path[result.corner_index].copy(), path=path)
