"""2D topology optimization with static condensation for problems whose
responses span several boundary-condition patterns.

Two equivalent response pipelines are provided: per-pattern solves against
the full system, and a single condensation onto the response-relevant DOFs
followed by small dense solves per pattern, with matching adjoint design
gradients, an operation-count model predicting the speedup, and two
ready-made benchmark problems.
"""
from .analysis import SetStates, solve_condensed, solve_elementary
from .condensation import EmptyPrimarySetError, ReducedModel, condense, recover_secondary
from .fem import DesignField, Filter, Grid, assemble, element_matrix, simp
from .optimizer import MMA, MMADualError, OptResult, optimize
from .partitions import (
    AnalysisSet,
    PartitionPlan,
    build_plan,
    gather_secondary,
)
from .perfmodel import (
    FlopModel,
    beta_dense,
    beta_sparse,
    gain_general,
    gain_problem1,
    gain_problem2,
    measure_runtime_gain,
)
from .problems import build_problem1, build_problem2, evaluate
from .sensitivity import (
    SensitivityBundle,
    UnresolvedGradientError,
    fd_verify,
    sens_case,
    sens_condensed_state,
    sens_elementary,
)
from .sparse import (
    BandStorageError,
    CostLedger,
    DenseCholesky,
    Factorization,
    IndexSet,
    SingularMatrixError,
    SymmetricSparse,
    extract,
    factorize,
    principal,
)

__version__ = "0.1.0"
