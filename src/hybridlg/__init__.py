"""Temporal-correlation toolkit for a dissipative qubit whose quantum-jump
record is only partially retained.

A detector-efficiency dial q in [0, 1] interpolates the generator between
trace-preserving dissipative dynamics (q = 1) and pure no-jump conditioning
(q = 0).  The package computes the three-time Leggett-Garg parameter under
the sequential sigma_y protocol, landscapes of its maximum over the
(dissipation, efficiency) plane, the generator's spectrum with its
eigenvalue-coalescence locus, closed-form reduced Bloch solutions, the
statistical macrorealism (signaling/arrow-of-time) diagnostics, and the
published tanh-in-log-efficiency landscape fit.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateRootsError,
    EigensolverError,
    HybridLGError,
    IntegrationDivergedError,
    OutOfDomainError,
    SingularCoefficientsError,
    TrajectoryExtinguishedError,
    UnsupportedConfigurationError,
)
from .numerics import (
    CubicCoefficients,
    CubicRoots,
    eigenvalues_4x4,
    expm,
    solve_cubic_cardano,
)
from .model import (
    BlochState,
    ModelParams,
    bloch_compose,
    bloch_decompose,
    hamiltonian,
    normalize,
)
from .dynamics import (
    EvolveConfig,
    KrausPair,
    Propagator,
    evolve_exact,
    evolve_kraus,
    evolve_rk4,
    kraus_pair,
    kraus_step,
    rhs,
)
from .spectrum import (
    EpLocusPoint,
    SpectrumReport,
    build_liouvillian,
    characteristic_cubic,
    discriminant,
    ep_locus,
    ep_radius,
    spectrum_report,
)
from .blochsol import (
    BranchSolution,
    ReducedSystem,
    analytic_branch,
    k3_closed_form,
    reduced_matrix,
)
from .lgi import (
    CorrelatorRecord,
    K3Optimum,
    OptimizeConfig,
    SweepResult,
    correlators,
    k3,
    optimize_k3,
    sweep,
)
from .macrorealism import (
    AotReport,
    JointProbTable,
    MacrorealismReport,
    check_aot,
    check_nsit,
    joint_probabilities,
)
from .fit import (
    FitCoefficients,
    ResidualReport,
    eval_fit,
    eval_polynomials,
    residual_report,
    select_log_base,
)

__all__ = [name for name in dir() if not name.startswith("_")]
