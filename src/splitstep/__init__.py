"""Operator-difference schemes for coupled first-order evolutionary systems.

The package integrates B du/dt + A u = f(t) on a direct sum of component
spaces with symmetric positive definite block operators A and B, using a
weighted two-level scheme, an alternating triangular factorized scheme for
block-diagonal B, and a three-level factorized scheme for non-diagonal B.
The verify module checks the level-wise stability estimates and convergence
orders the schemes are designed around.
"""

from .blockops import (
    BlockDims,
    BlockOperator,
    BlockVector,
    CertificateError,
    DimensionMismatchError,
    TriangularPair,
    certify,
    lincomb,
    read_block_operator,
    read_block_vector,
    symmetry_defect,
    triangular_split,
    weighted_inner,
    weighted_norm,
    write_block_operator,
    write_block_vector,
)
from .linsolve import (
    DiagFactorization,
    NotPositiveDefiniteError,
    SolveFailureError,
    SpdFactor,
    factor_spd,
    solve_block_lower,
    solve_block_upper,
    solve_spd_full,
)
from .problems import (
    DiffusionSpec,
    ManufacturedSolution,
    build_coupled_diffusion,
    example_coupled_spec,
    example_porosity_spec,
    laplacian_1d,
    laplacian_min_eig,
    manufactured_problem,
    sine_profile,
)
from .schemes import (
    EvolutionProblem,
    ExponentialSumForcing,
    RunLog,
    RunObserver,
    RunRecord,
    RunStepError,
    SchemeConfig,
    SchemeInapplicableError,
    SchemeKind,
    SchemeState,
    constant_forcing,
    factorized_step,
    forcing_sample,
    march,
    prepare,
    run,
    three_level_init,
    three_level_step,
    weighted_step,
    zero_forcing,
)
from .verify import (
    CompareReport,
    ConvergenceReport,
    EnergyObserver,
    EstimateObserver,
    UnsupportedForcingError,
    compare_schemes,
    convergence_study,
    reference_solution,
    run_slacks,
    tiny_step_reference,
)

__version__ = "0.1.0"
