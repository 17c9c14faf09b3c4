"""Shared fixtures and test oracles; thread pinning must happen before numpy loads."""

import os
import tracemalloc

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from idarr.problems import make_fredholm

# One (number, line) entry per acceptance criterion; echoed after the run so
# the pass/fail verdicts are visible even when pytest captures stdout.
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def record_acceptance():
    def _record(number, ok, detail):
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}  [{detail}]"
        print(line)
        _ACCEPTANCE_LINES.append((number, line))
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    latest = {}
    for number, line in _ACCEPTANCE_LINES:
        latest[number] = line
    terminalreporter.write_sep("-", "acceptance summary")
    for number in sorted(latest):
        terminalreporter.write_line(latest[number])


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


@pytest.fixture(scope="session")
def exp_setup():
    return make_fredholm("exp")


@pytest.fixture(scope="session")
def poly_setup():
    return make_fredholm("poly")


@pytest.fixture()
def rng():
    return np.random.default_rng(20260822)


def _traced_peak(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    """traced_peak(call): peak bytes NumPy and Python allocate during call(), above what was live."""
    return _traced_peak
