"""Minimax fold: direct computation of maximal saddle-node bifurcation values.

The library solves the finite-dimensional minimax problem
``lambda* = sup_u min_i R(u, eta_i)`` for the extended Rayleigh quotient of a
cooperative elliptic system over the positive P1 finite-element cone, and
certifies the result (primal solution, adjoint null vector, Fritz John
multipliers, residual norms).
"""

from .mesh_fem import (
    Mesh1D,
    OperatorMatrix,
    assemble_stiffness,
    build_mesh,
)
from .model import (
    FEField,
    HypothesisReport,
    ProblemSpec,
    builtin_problem,
    check_hypotheses,
    eval_jacobian,
    eval_residual_terms,
)
from .rayleigh import InnerMinResult, inner_min
from .minimax_solver import (
    BranchPoint,
    ContinuationResult,
    MinimaxCertificate,
    NewtonResult,
    SolverOptions,
    continuation_sweep,
    continue_certificate,
    maximize,
    newton_solve,
)
from .verification import CertificateAudit, verify_certificate
from .perturbation import (
    PerturbationReport,
    PerturbationSpec,
    lower_shift,
    two_sided_example,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
