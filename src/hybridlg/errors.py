"""Exception hierarchy shared across the package.

``HybridLGError`` is the common base so callers (and the CLI) can separate
domain failures from programming errors.  ``TrajectoryExtinguishedError`` is
the one exception that is part of normal operation: under inefficient
detection the unnormalized trace decays and a conditioned state can become
unresolvable below the configured floor.
"""


class HybridLGError(Exception):
    """Base class for all numeric/domain errors raised by hybridlg."""


class TrajectoryExtinguishedError(HybridLGError):
    """Raised when a state's trace fell below the normalization floor.

    ``trace`` is None when no single trace is to blame, e.g. when every
    scanned time point of an optimization was extinguished.
    """

    def __init__(self, trace, context=""):
        self.trace = trace
        self.context = context
        where = f" ({context})" if context else ""
        level = "" if trace is None else f": trace {trace:.6e} below floor"
        super().__init__(f"trajectory extinguished{where}{level}")

    def __reduce__(self):
        # rebuild from the constructor's arguments, not from the message
        return type(self), (self.trace, self.context)


class IntegrationDivergedError(HybridLGError):
    """Raised when a fixed-step integrator produced NaN/Inf mid-run."""

    def __init__(self, step_index, message=""):
        self.step_index = step_index
        self.message = message
        detail = f": {message}" if message else ""
        super().__init__(f"integration diverged at step {step_index}{detail}")

    def __reduce__(self):
        return type(self), (self.step_index, self.message)


class NonFiniteStateError(HybridLGError):
    """Raised when a closed-form state overflowed to NaN or Inf."""


class DegenerateRootsError(HybridLGError):
    """Raised when closed-form mode expansions hit (near-)coalescing roots."""


class SingularCoefficientsError(HybridLGError):
    """Raised when closed-form coefficients are undefined (e.g. gamma = 0)."""


class UnsupportedConfigurationError(HybridLGError):
    """Raised when an operation only supports a restricted parameter regime."""


class OutOfDomainError(HybridLGError):
    """Raised when the tanh-fit polynomials are evaluated outside their domain."""


class EigensolverError(HybridLGError):
    """Raised when the dense eigensolver failed to converge."""


class WorkerPoolError(HybridLGError):
    """Raised when a grid map's worker pool lost a process mid-map."""
