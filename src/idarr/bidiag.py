"""Golub-Kahan bidiagonalization generalized to a semi-inner product.

The process couples the data space, carrying the Euclidean inner product,
with the unknown's space carrying the (semi-)inner product of a norm whose
pseudoinverse K^+ we can apply. Each solution-space direction z comes with
a shadow vector zbar = K z maintained by the recurrence itself, so inner
products <z, z'>_K = z^T zbar' never touch K. With K the adaptive kernel,
K^+ p = B^-1 A^T A B^-1 p; with K = B it is B^-1 p; with K = I it is p and
the process reduces to the classical bidiagonalization behind LSQR.

Scalars follow the usual convention: beta_i couple data-space vectors u,
alpha_i couple solution-space vectors, and the process stops when either
falls to roundoff scale, at which point the generated subspace is exhausted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError, StateError, TrivialDataError

_EPS = np.finfo(float).eps


def _finite(value, name):
    if not math.isfinite(value):
        raise NumericalBreakdownError(f"{name} is not finite ({value})")
    return value


@dataclass
class BidiagStep:
    """One advance of the process: scalars and (unless terminal) new directions.

    reason is None for an ordinary step, else "alpha" or "beta": the
    coupling that vanished and ended the process.
    """

    alpha: float
    beta: float
    z: np.ndarray | None
    zbar: np.ndarray | None
    reason: str | None = None

    @property
    def terminated(self):
        return self.reason is not None


class BidiagProcess:
    """Incremental bidiagonalization keeping O(n) state by default.

    alphas holds the diagonal couplings (alpha_1, alpha_2, ...) and betas
    the data-space couplings (beta_1 = data norm, beta_2, ...). U, Z, Zbar
    hold the generated directions when vectors are kept; Zbar[i] is the
    shadow K Z[i]. reason is None while the process runs and "alpha" or
    "beta" once that coupling vanished; terminated and k_t, the exhaustion
    step, are read from it. Once terminated, betas has one more entry than
    alphas (the closing coupling, zero if the data-space direction vanished).

    Parameters
    ----------
    linmap : LinearMap
        The forward operator.
    b : array
        Data vector; must be nonzero and finite. A non-finite data norm or
        coupling raises NumericalBreakdownError.
    pinv_apply : callable or None
        Action of K^+ on a vector; None means the identity metric.
    reorthogonalize : bool
        Re-project each new direction against all previous ones (twice,
        modified Gram-Schmidt). Implies keeping the full history.
    keep_vectors : bool
        Retain all generated vectors; reorthogonalize overrides False.
    """

    def __init__(self, linmap, b, pinv_apply=None, reorthogonalize=False, keep_vectors=False):
        b = np.asarray(b, dtype=np.float64)
        self.linmap = linmap
        self.pinv_apply = pinv_apply if pinv_apply is not None else lambda p: p
        self.reorthogonalize = bool(reorthogonalize)
        self.keep_vectors = bool(keep_vectors or reorthogonalize)

        beta1 = _finite(float(np.linalg.norm(b)), "data norm beta_1")
        if beta1 == 0.0:
            raise TrivialDataError("data vector is identically zero")
        self.beta1 = beta1
        self.reason = None
        self.alphas = []
        self.betas = [beta1]
        self.u = b / beta1
        self.U = [self.u]
        self.Z = []
        self.Zbar = []
        self.z = None
        self.zbar = None
        # only an exactly zero first pairing means the data carries no
        # component in the explorable range
        self._tol = 0.0
        self._extend(linmap.apply_adjoint(self.u))
        if not self.terminated:
            # roundoff floor for declaring a later coupling zero
            self._tol = max(linmap.rows, linmap.cols) * _EPS * max(self.alphas[0], beta1)

    @property
    def terminated(self):
        return self.reason is not None

    @property
    def k_t(self):
        return len(self.alphas) if self.terminated else None

    def _checked_pairing(self, s, p, abs_tol=0.0):
        # the exact pairing is a positive semidefinite quadratic form; a
        # negative value is roundoff unless it is large both relative to the
        # summands and on the termination scale
        sp = _finite(float(s @ p), "pairing s^T p")
        if sp < 0.0:
            rel_tol = s.shape[0] * _EPS * np.linalg.norm(s) * np.linalg.norm(p)
            if sp < -rel_tol and -sp > abs_tol * abs_tol:
                raise NumericalBreakdownError(
                    f"pairing s^T p = {sp:.3e} is negative beyond roundoff ({rel_tol:.3e})"
                )
            sp = 0.0
        return sp

    def _extend(self, p):
        """Turn p = A^T u - beta zbar into the next direction, unless alpha vanishes."""
        s = self.pinv_apply(p)
        if self.reorthogonalize:
            for _ in range(2):
                for zj, zbarj in zip(self.Z, self.Zbar):
                    c = float(s @ zbarj)
                    s -= c * zj
                    p -= c * zbarj
        alpha = float(np.sqrt(self._checked_pairing(s, p, self._tol)))
        if alpha <= self._tol:
            self.reason = "alpha"
            return
        self.z = s / alpha
        self.zbar = p / alpha
        self.alphas.append(alpha)
        if self.keep_vectors:
            self.Z.append(self.z)
            self.Zbar.append(self.zbar)

    def advance(self):
        """Produce couplings (alpha_{i+1}, beta_{i+1}) and the next directions.

        Returns a BidiagStep; when the process exhausts the subspace the
        step carries its reason (and the closing beta if the data-space
        direction was still valid) and the state freezes.
        """
        if self.terminated:
            raise StateError("process already terminated")
        r = self.linmap.apply(self.z) - self.alphas[-1] * self.u
        if self.reorthogonalize:
            for _ in range(2):
                for uj in self.U:
                    r -= (uj @ r) * uj
        beta = _finite(float(np.linalg.norm(r)), "coupling beta")
        if beta <= self._tol:
            self.reason = "beta"
            self.betas.append(0.0)
            return BidiagStep(0.0, 0.0, None, None, "beta")
        self.u = r / beta
        self.betas.append(beta)
        if self.keep_vectors:
            self.U.append(self.u)
        self._extend(self.linmap.apply_adjoint(self.u) - beta * self.zbar)
        if self.terminated:
            return BidiagStep(0.0, beta, None, None, self.reason)
        return BidiagStep(self.alphas[-1], beta, self.z, self.zbar)

    def bidiagonal_matrix(self, k=None):
        """The (k+1) x k lower bidiagonal coupling matrix."""
        if k is None:
            k = min(len(self.alphas), len(self.betas) - 1)
        mat = np.zeros((k + 1, k))
        for i in range(k):
            mat[i, i] = self.alphas[i]
            mat[i + 1, i] = self.betas[i + 1]
        return mat


def run_bidiag(geom, b, max_steps, reorthogonalize=False):
    """Run the adaptive-kernel process and return it, vectors kept.

    Stops after max_steps advances or at subspace exhaustion, whichever
    comes first.
    """
    proc = BidiagProcess(geom.linmap, b, pinv_apply=geom.apply_crkhs_pinv,
                         reorthogonalize=reorthogonalize, keep_vectors=True)
    for _ in range(int(max_steps)):
        if proc.terminated:
            break
        proc.advance()
    return proc
