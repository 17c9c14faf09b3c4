"""Data-adaptive weighted geometry and the dense spectral machinery.

The operator's normalized absolute column sums define a discrete measure
rho on the unknown's grid. The reproducing-kernel norm adapted to the
operator is the quadratic form of the pseudoinverse of

    C = B (A^T A)^+ B,      B = diag(rho),

whose own pseudoinverse has the closed form C^+ = B^-1 A^T A B^-1, applied
matrix-free as B^-1, apply_residual with no shift (A^T A v), then B^-1.
The dense routines here (generalized eigendecomposition, regularized direct
solves) serve both as baselines and as oracles for the iterative solver.
"""

from dataclasses import dataclass

import numpy as np

from .bidiag import check_data
from .errors import DegenerateColumnError, DimensionError, GeometryError, TrivialDataError
from .linops import LinearMap
from .solver import LCurve, SolveResult

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
        """Apply B^-1 to a vector (n,) or to the rows of a block (n, k)."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[0] != self.rho.size:
            raise DimensionError(f"expected shape ({self.rho.size},) or ({self.rho.size}, k), "
                                 f"got {v.shape}")
        return (v.T / self.rho).T

    def apply_crkhs_pinv(self, p):
        """Apply C^+ = B^-1 A^T A B^-1 without forming any matrix; p is checked once."""
        return (self.linmap.apply_residual(self.solve_b(p))[1].T / self.rho).T

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


def generalized_eig(a, rho):
    """Solve the weighted eigenproblem of the operator matrix a by symmetric reduction.

    With D = diag(sqrt(rho)), D^-1 (A^T A) D^-1 is formed and symmetrized in
    place, so one n x n matrix lives beside a (never written) and eigh's
    buffers. It is diagonalized and eigenvectors are mapped back by D^-1,
    which enforces the B-orthonormality exactly. Eigenvalues are clamped at
    zero and the rank counts those above lambda_max * n * eps.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        raise GeometryError("weights must be strictly positive and finite")
    a = np.asarray(a, dtype=np.float64)
    n = rho.size
    if rho.ndim != 1 or a.ndim != 2 or a.shape[1] != n:
        raise DimensionError(f"{a.shape} operator does not match {rho.shape} weights")
    d = np.sqrt(rho)
    g = a.T @ a
    g /= d[:, None]
    g /= d[None, :]
    g += g.T
    g *= 0.5
    mu, q = np.linalg.eigh(g)
    del g
    order = np.argsort(mu)[::-1]
    mu = np.maximum(mu[order], 0.0)
    v = q[:, order]
    v /= d[:, None]
    lam_max = mu[0] if mu.size else 0.0
    rank = int(np.count_nonzero(mu > lam_max * n * np.finfo(float).eps))
    return SpectralDecomposition(V=v, lambdas=mu, rank=rank)


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

    Holds the dense operator a (shared with a DenseMap's entries), its
    generalized_eig under the weights, the change of variables x = T y that
    makes the method's penalty the plain squared norm and the problem
    diagonal, (A T)^T (A T) = diag(s2), and the strength ladder. build()
    factors once per penalty norm; solve(b) costs products with A and T only.
    """

    a: np.ndarray
    decomp: SpectralDecomposition
    t: np.ndarray
    s2: np.ndarray
    lambdas: np.ndarray

    @classmethod
    def build(cls, linmap, norm, rho=None, decomp=None):
        """Factor linmap for the penalty norm "rkhs", "L2" or "l2".

        The weights are rho under "rkhs" and "L2", and 1 under "l2", which
        ignores rho. One eigendecomposition of A^T A runs under them, or none
        when decomp, one under the same weights, is given.

        "rkhs" (DARTR) takes T = C_* = V_r Lam_r^(1/2) over the numerical
        rank r. Since V^T A^T A V = Lam, s2 = Lam_r^2 exactly: each strength
        lam is the filter Lam / (Lam^2 + lam) on the generalized coordinates
        of A^T b, and the ladder spans the generalized eigenvalues. "L2" and
        "l2" (Tikhonov) take T = V, s2 = Lam, the filter 1 / (Lam + lam),
        and a ladder over the top min(m, n) eigenvalues.
        """
        if norm not in ("rkhs", "L2", "l2"):
            raise ValueError(f"norm must be rkhs, L2 or l2, got {norm!r}")
        a = linmap.as_dense()
        if decomp is None:
            weights = np.ones(a.shape[1]) if norm == "l2" else rho
            decomp = generalized_eig(a, weights)
        if decomp.rank == 0:
            raise TrivialDataError("operator has numerical rank zero")
        lam = decomp.lambdas
        if norm == "rkhs":
            lam = lam[: decomp.rank]
            t, s2, floor = decomp.V[:, : decomp.rank] * np.sqrt(lam), lam**2, lam[-1]
        else:
            t, s2, floor = decomp.V, lam, lam[min(a.shape) - 1]
        return cls(a, decomp, t, s2, _lambda_grid(lam[0], floor))

    def solve(self, b, stop=LCurve()):
        """Ridge path of min ||A T y - b||^2 + lam ||y||^2 in x = T y, at stop's point.

        Every strength is the diagonal filter 1/(s2 + lam), evaluated at once
        as a (ladder x rank) array. The residual is formed explicitly from
        the path, which counts the part of b outside the range of A; A T is
        never formed. stop selects on the ladder's norms, strongest first.
        b is checked by check_data against the operator's rows.
        """
        b, data_norm = check_data(b, self.a.shape[0])
        a, t, lambdas = self.a, self.t, self.lambdas
        y = (t.T @ (a.T @ b)) / (self.s2 + lambdas[:, None])
        path = y @ t.T
        res = path @ a.T - b
        history = np.sqrt(np.column_stack((np.einsum("ij,ij->i", res, res),
                                           np.einsum("ij,ij->i", y, y))))
        return SolveResult.from_path(stop, history, path, path[-1], None, data_norm, lambdas)


def dartr_solve(linmap, rho, b, stop=LCurve()):
    """Adaptive-norm direct regularization at stop's point: a cold one-shot.

    DirectFactorization.build(linmap, "rkhs", rho).solve(b, stop), one eigendecomposition.
    """
    return DirectFactorization.build(linmap, "rkhs", rho).solve(b, stop)


def tikhonov_direct(linmap, b, weights=None, stop=LCurve()):
    """Ridge with penalty sum_i w_i x_i^2 (w = 1 for None) at stop's point: a cold one-shot.

    DirectFactorization.build(linmap, "L2", weights).solve(b, stop) ("l2" for None), one
    eigendecomposition.
    """
    return DirectFactorization.build(linmap, "l2" if weights is None else "L2",
                                     weights).solve(b, stop)
