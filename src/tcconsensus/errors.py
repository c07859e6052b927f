"""Exception types shared across the package: each is a
``TCConsensusError``, and each fault in a config or system record, the
weight-matrix faults included, a ``ConfigError``."""


class TCConsensusError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteStateError(TCConsensusError):
    """Raised when integration or evaluation encounters a non-finite state.

    ``partial`` may carry the trajectory accumulated before the blow-up, and
    ``time`` the integration time at which it was detected.
    """

    def __init__(self, message, partial=None, time=None):
        super().__init__(message)
        self.partial = partial
        self.time = time


class UnresolvableEnclosureError(TCConsensusError):
    """A fixed-point enclosure could not be certified: the scan window is
    unbounded or wider than the sample cap, or bisection did not confirm
    a sign change."""


class DimensionMismatchError(TCConsensusError):
    pass


class MissingWitnessError(TCConsensusError):
    """A trajectory check needs a box/ray spec or equilibrium that was not
    supplied."""


class NoInEdgeAgentError(TCConsensusError):
    """Equilibrium solving requires every agent to have at least one in-edge."""


class UnconvergedError(TCConsensusError):
    """No rung of the equilibrium ladder converged; ``best`` and
    ``residual`` carry the closest point found (``best`` is ``None`` when
    no residual was finite)."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class EmptyFixedPointSetError(TCConsensusError):
    pass


class ConfigError(TCConsensusError):
    pass


class ParseError(ConfigError):
    pass


class UnknownConstraintVariantError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


class NonSquareError(ValidationError):
    pass


class NegativeWeightError(ValidationError):
    pass


class NonzeroDiagonalError(ValidationError):
    pass


class NonFiniteError(ValidationError):
    pass
