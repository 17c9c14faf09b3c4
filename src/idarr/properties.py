"""Structural properties of the adaptive bidiagonalization, as measures.

The builders draw instances with a known answer; each measure returns a
deviation that is zero in exact arithmetic. The acceptance tests and the
``oracle-check`` command share them; the tests also use the dense oracles.
"""

import numpy as np

from .bidiag import run_bidiag
from .linops import DenseMap
from .rkhs import RkhsGeometry, generalized_eig, make_geometry
from .solver import FixedIters, idarr_solve


def gaussian_instance(rng, m, n):
    """A standard normal m x n operator with its geometry, and normal data."""
    return make_geometry(DenseMap(rng.standard_normal((m, n)))), rng.standard_normal(m)


def _selection(rng, length, count):
    # Signed coordinate-selection block: orthonormal, and exact in floating
    # point, so the unhit projections of b are bitwise zero rather than
    # roundoff-sized (roundoff in a skipped dominant direction would get
    # amplified into spurious extra steps).
    mat = np.zeros((length, count))
    picks = rng.choice(length, size=count, replace=False)
    mat[picks, np.arange(count)] = rng.choice([-1.0, 1.0], count)
    return mat


def multiplicity_instance(rng, sigmas, hit_columns, m, n):
    """An m x n operator with the singular values sigmas, repeats allowed.

    The data is a random signed combination of the left singular vectors
    in hit_columns, so the process must take one step per distinct value
    among sigmas[hit_columns]. Needs m, n >= len(sigmas).
    """
    r = len(sigmas)
    u = _selection(rng, m, r)
    w = _selection(rng, n, r)
    rho = rng.uniform(0.5, 2.0, n)
    rho /= rho.sum()
    entries = (u * np.asarray(sigmas)) @ w.T @ np.diag(np.sqrt(rho))
    geom = RkhsGeometry(DenseMap(entries), rho)
    q = len(hit_columns)
    coeffs = rng.uniform(0.6, 1.4, q) * rng.choice([-1.0, 1.0], q)
    return geom, u[:, list(hit_columns)] @ coeffs


def rank_deficient_instance(rng, m, n, rank):
    """An m x n operator of the given rank, singular values 1 down to 0.2, and normal data."""
    u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    a = (u * np.geomspace(1.0, 0.2, rank)) @ v.T
    return make_geometry(DenseMap(a)), rng.standard_normal(m)


def orthonormality_loss(proc):
    """(max|U'U - I|, max|Z'Zbar - I|) of a bidiagonalization that kept its vectors."""
    u = np.column_stack(proc.U)
    u_dev = float(np.abs(u.T @ u - np.eye(u.shape[1])).max())
    z = np.column_stack(proc.Z)
    zbar = np.column_stack(proc.Zbar)
    pair_dev = float(np.abs(z.T @ zbar - np.eye(z.shape[1])).max())
    return u_dev, pair_dev


def residual_gaps(geom, b, steps):
    """|recursive residual - ||A x_k - b|||/||b|| for each of `steps` iDARR iterates."""
    result = idarr_solve(geom, b, FixedIters(steps), store_iterates=True)
    scale = np.linalg.norm(b)
    return [
        abs(res - np.linalg.norm(geom.linmap.apply(x) - b)) / scale
        for (res, _), x in zip(result.history, result.iterates)
    ]


def restricted_solution(geom, b):
    """Dense oracle: minimizer of ||Ax-b|| over the range of the adaptive
    quadratic form, via the factor whose outer product gives its pseudoinverse."""
    a = geom.linmap.as_dense()
    decomp = generalized_eig(a, geom.rho)
    factor = decomp.V[:, : decomp.rank] * np.sqrt(decomp.lambdas[: decomp.rank])
    coeffs, *_ = np.linalg.lstsq(a @ factor, b, rcond=None)
    return factor @ coeffs


def terminal_deviation(geom, b):
    """Relative distance of the terminal iterate from ``restricted_solution``;
    inf if the reorthogonalized run does not terminate within n + 10 steps."""
    result = idarr_solve(geom, b, FixedIters(geom.linmap.cols + 10), reorthogonalize=True)
    if not result.terminated:
        return np.inf
    oracle = restricted_solution(geom, b)
    return float(np.linalg.norm(result.x - oracle) / np.linalg.norm(oracle))


def subspace_deviation(geom, b, k, rng):
    """Relative distance of the k-th iterate from the least-squares solution
    over a random basis of the same subspace span(z_1, ..., z_k)."""
    result = idarr_solve(geom, b, FixedIters(k), reorthogonalize=True)
    z = np.column_stack(run_bidiag(geom, b, k, reorthogonalize=True).Z[:k])
    basis = z @ (rng.standard_normal((k, k)) + 3.0 * np.eye(k))
    coeffs, *_ = np.linalg.lstsq(geom.linmap.as_dense() @ basis, b, rcond=None)
    x_alt = basis @ coeffs
    return float(np.linalg.norm(result.x - x_alt) / np.linalg.norm(x_alt))
