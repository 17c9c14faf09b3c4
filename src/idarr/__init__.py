"""Matrix-free iterative regularization in a data-adaptive weighted geometry.

The central solver builds a bidiagonal factorization adapted to the norm
induced by the operator and the data's exploration measure, updates the
subspace least-squares solution recursively, and stops early at the corner
of the residual/penalty trade-off curve or at a discrepancy crossing.
Dense spectral baselines and a benchmark harness ride along.
"""

from .arrayio import read_array, write_array
from .bidiag import BidiagProcess, run_bidiag
from .errors import (
    DegenerateColumnError,
    DimensionError,
    GeometryError,
    IdarrError,
    InsufficientHistoryError,
    IoError,
    KernelEvaluationError,
    NumericalBreakdownError,
    StateError,
    TrivialDataError,
    UsageError,
)
from .linops import (
    DenseMap,
    DiagonalMap,
    LinearMap,
    PsfConvolutionMap,
    build_fredholm_map,
    gaussian_psf,
    read_pgm,
    read_psf_text,
    write_pgm,
)
from .problems import (
    FredholmSetup,
    TestProblem,
    add_noise,
    clean_problem,
    l2rho_error,
    load_operator,
    make_deblur,
    make_fredholm,
    save_operator,
    synthetic_image,
    true_solution,
)
from .rkhs import (
    DirectFactorization,
    DirectResult,
    RkhsGeometry,
    SpectralDecomposition,
    compute_exploration_weights,
    dartr_solve,
    generalized_eig,
    make_geometry,
    rkhs_norm_sq,
    tikhonov_direct,
)
from .solver import (
    Discrepancy,
    FixedIters,
    LCurve,
    SolveResult,
    UpdateState,
    dp_stop,
    idarr_solve,
    irL2_solve,
    irl2_solve,
    lcurve_corner,
)

__version__ = "0.1.0"
