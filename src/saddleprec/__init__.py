"""Alpha-robust block-diagonal preconditioning for multiple saddle-point systems.

The package has two halves. A dense laboratory (`blocksys`, `spectral`)
realizes small block-tridiagonal operators and measures the constants tying
well-posedness to block-diagonal spectral equivalence. A sparse production
path (`splines`, `assembly`, `precond`, `krylov`) discretizes space-time
optimal control of the heat and wave equations with tensor-product splines,
builds the block-diagonal preconditioner, and solves with preconditioned
MINRES; `verify` measures the discrete stability constants and `cli` drives
table reproduction, verification suites, and Matrix Market export.
"""

from .assembly import (
    DiscreteSpaces,
    DiscreteSystem,
    ProblemData,
    ProblemSpec,
    assemble_system,
    build_spaces,
    dof_count,
)
from .blocksys import BlockTridiagonalSystem
from .krylov import MinresConfig, MinresReport, minres, random_start
from .precond import BlockDiagPreconditioner, build_preconditioner, build_Ptilde_Y
from .splines import SplineSpace, make_space

__all__ = [
    "BlockDiagPreconditioner",
    "BlockTridiagonalSystem",
    "DiscreteSpaces",
    "DiscreteSystem",
    "MinresConfig",
    "MinresReport",
    "ProblemData",
    "ProblemSpec",
    "SplineSpace",
    "assemble_system",
    "build_Ptilde_Y",
    "build_preconditioner",
    "build_spaces",
    "dof_count",
    "make_space",
    "minres",
    "random_start",
]

__version__ = "0.1.0"
