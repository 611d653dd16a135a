"""Hierarchical eigenpair solvers for symmetric positive operators with rough coefficients.

The package assembles bilinear finite element problems on uniform dyadic
grids, computes an operator-adapted wavelet decomposition of the stiffness
matrix, and solves for the leftmost generalized eigenpairs with a multilevel
correction scheme, a preconditioned LOBPCG iteration, or a hybrid of the two.
"""

__version__ = "0.1.0"

from .correction import (
    ConvergenceRecord,
    EigenSet,
    McParams,
    multilevel_correction,
)
from .errors import (
    DegenerateBasisError,
    GeigError,
    InvalidArgumentError,
    LoadError,
    NonConvergenceError,
    NotPositiveDefiniteError,
)
from .fem import CoefficientField, Grid, assemble, gen_anderson, gen_checkerboard
from .hierarchy import Hierarchy, build_hierarchy
from .lobpcg import (
    GambletPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    LobpcgParams,
    hybrid_solve,
    lobpcg,
)
from .multigrid import MgParams, mg, mg_solve, precondition
from .sparse import SparseOperator, dense_sym_geig, galerkin_triple, spmv
from .transform import GambletDecomposition, transform

__all__ = [
    "__version__",
    "GeigError",
    "InvalidArgumentError",
    "NotPositiveDefiniteError",
    "NonConvergenceError",
    "DegenerateBasisError",
    "LoadError",
    "SparseOperator",
    "spmv",
    "galerkin_triple",
    "dense_sym_geig",
    "Grid",
    "CoefficientField",
    "assemble",
    "gen_checkerboard",
    "gen_anderson",
    "Hierarchy",
    "build_hierarchy",
    "GambletDecomposition",
    "transform",
    "MgParams",
    "mg",
    "mg_solve",
    "precondition",
    "McParams",
    "EigenSet",
    "ConvergenceRecord",
    "multilevel_correction",
    "LobpcgParams",
    "lobpcg",
    "hybrid_solve",
    "GambletPreconditioner",
    "JacobiPreconditioner",
    "IdentityPreconditioner",
]
