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

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateColumnError, DimensionError, GeometryError,
                     NumericalBreakdownError, TrivialDataError)
from .linops import LinearMap

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
    n = rho.size
    if rho.ndim != 1 or gram.shape != (n, n):
        raise DimensionError(f"{gram.shape} normal matrix does not match {rho.shape} weights")
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


@dataclass
class DirectFactorization:
    """One operator factored under one weight vector, for any number of ladder solves.

    Holds the dense operator a, its generalized_eig under the weights, the
    change of variables x = T y that makes the method's penalty the plain
    squared norm and the problem diagonal, (A T)^T (A T) = diag(s2), and the
    strength ladder. dartr() and tikhonov() run one eigendecomposition, or
    none when given decomp, one of A^T A under the same weights; solve(b)
    costs products with A and T only.
    """

    a: np.ndarray
    decomp: SpectralDecomposition
    t: np.ndarray
    s2: np.ndarray
    lambdas: np.ndarray

    @staticmethod
    def _factor(linmap, weights, decomp):
        a = linmap.as_dense() if isinstance(linmap, LinearMap) else np.asarray(linmap, float)
        if decomp is None:
            decomp = generalized_eig(a.T @ a, np.ones(a.shape[1]) if weights is None else weights)
        if decomp.rank == 0:
            raise TrivialDataError("operator has numerical rank zero")
        return a, decomp

    @classmethod
    def dartr(cls, linmap, rho, decomp=None):
        """The adaptive-norm form: T = C_* = V_r Lam_r^(1/2) over the numerical rank r.

        Since V^T A^T A V = Lam, the standard form A C_* has the exact
        spectrum s2 = Lam_r^2, so each strength lam is the filter
        Lam / (Lam^2 + lam) on the generalized coordinates of A^T b. The
        ladder spans the generalized eigenvalue range.
        """
        a, decomp = cls._factor(linmap, rho, decomp)
        lam = decomp.lambdas[: decomp.rank]
        cstar = decomp.V[:, : decomp.rank] * np.sqrt(lam)
        return cls(a, decomp, cstar, lam**2, _lambda_grid(lam[0], lam[-1]))

    @classmethod
    def tikhonov(cls, linmap, weights=None, decomp=None):
        """The diagonal-penalty form: T = V, s2 = Lam, under weights w (None for w = 1).

        With A^T A V = W V Lam, V^T W V = I, each strength lam is the filter
        1 / (Lam + lam); the ladder spans the top min(m, n) eigenvalues.
        """
        a, decomp = cls._factor(linmap, weights, decomp)
        lam = decomp.lambdas
        return cls(a, decomp, decomp.V, lam, _lambda_grid(lam[0], lam[min(a.shape) - 1]))

    def solve(self, b):
        """Corner-selected ridge path of min ||A T y - b||^2 + lam ||y||^2, in x = T y.

        Every strength is the diagonal filter 1/(s2 + lam), evaluated at once
        as a (ladder x rank) array. The residual is formed explicitly from
        the path, which counts the part of b outside the range of A; A T is
        never formed. b must be a finite, nonzero vector of length m.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.a.shape[0],):
            raise DimensionError(f"data of shape {b.shape} does not match {self.a.shape} operator")
        if not np.all(np.isfinite(b)):
            raise NumericalBreakdownError("data vector has non-finite entries")
        if np.linalg.norm(b) == 0:
            raise TrivialDataError("data vector is identically zero")
        a, t, lambdas = self.a, self.t, self.lambdas
        y = (t.T @ (a.T @ b)) / (self.s2 + lambdas[:, None])
        path = y @ t.T
        res = path @ a.T - b
        residual_sq = np.einsum("ij,ij->i", res, res)
        penalty_sq = np.einsum("ij,ij->i", y, y)
        from .solver import select_corner  # solver imports this module

        corner, weak = select_corner(residual_sq, penalty_sq)
        return DirectResult(
            x=path[corner].copy(),
            lam=float(lambdas[corner]),
            corner_index=int(corner),
            lambdas=lambdas,
            residual_sq=residual_sq,
            penalty_sq=penalty_sq,
            path=path,
            weak_corner=weak,
        )


def dartr_solve(linmap, rho, b):
    """Adaptive-norm direct regularization, corner-selected: a cold one-shot.

    DirectFactorization.dartr(linmap, rho).solve(b), one eigendecomposition.
    """
    return DirectFactorization.dartr(linmap, rho).solve(b)


def tikhonov_direct(linmap, b, weights=None):
    """Ridge with penalty sum_i w_i x_i^2 (w = 1 for None), corner-selected: a cold one-shot.

    DirectFactorization.tikhonov(linmap, weights).solve(b), one eigendecomposition.
    """
    return DirectFactorization.tikhonov(linmap, weights).solve(b)
