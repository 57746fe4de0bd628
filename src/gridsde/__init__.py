"""Finite-level stochastic grid calculus.

Simulate grid equations driven by +-sqrt(n) coin-flip noise over the time
lattice {k/n}, take exact counting averages over exhaustive noise
ensembles, build empirical densities, and verify the discrete chain rule
and the weak-form density equation, with an independent finite-volume
solver for cross-checks.
"""

from .grids import (
    ConvergenceEstimate,
    GridError,
    GridFunction,
    GridLevel,
    UniformGrid,
    fundamental_theorem_check,
    grid_derivative,
    grid_integral,
    integral_function,
    multilevel_integral,
)
from .expr import (
    Expr,
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    TestFunction,
    as_expr,
    parse,
)
from .distrib import (
    DistributionError,
    EquivalenceReport,
    GridDistribution,
    default_bump_family,
    dirac,
    dirac_derivative,
    equivalent,
    pair,
    sample_distribution,
    split_dirac,
)
from .noise import (
    ConditionalEnsemble,
    ExpectationResult,
    NoiseAlphabet,
    NoiseEnsemble,
    NoiseError,
    NoisePath,
    conditional,
    enumerate_paths,
    expectation_detail,
    sample_paths,
)
from .sde import (
    CauchyProblem,
    DensityField,
    DependenceReport,
    DivergenceError,
    TrajectorySet,
    continuous_dependence_check,
    density,
    event_probability,
    solve_grid_ode,
)
from .identities import (
    IncrementReport,
    MomentReport,
    TowerReport,
    increment_report,
    moment_report,
    tower_property_report,
)
from .fokker_planck import (
    CrossValReport,
    FPSolution,
    FPStabilityError,
    ItoReport,
    VerificationError,
    WeakFormReport,
    cross_validate,
    fp_solve,
    ito_residual,
    weak_form_residual,
)

__version__ = "0.1.0"
