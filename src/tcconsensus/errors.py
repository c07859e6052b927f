"""Exception types shared across the package."""


class TCConsensusError(Exception):
    """Base class for all package-specific errors."""


class NonSquareError(TCConsensusError):
    pass


class NegativeWeightError(TCConsensusError):
    pass


class NonzeroDiagonalError(TCConsensusError):
    pass


class NonFiniteError(TCConsensusError):
    pass


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
    """Bisection could not certify a fixed-point enclosure within budget."""


class DimensionMismatchError(TCConsensusError):
    pass


class MissingWitnessError(TCConsensusError):
    """A trajectory check needs a box/ray spec or equilibrium that was not
    supplied."""


class NoInEdgeAgentError(TCConsensusError):
    """Equilibrium solving requires every agent to have at least one in-edge."""


class UnconvergedError(TCConsensusError):
    """Solver budget exhausted; ``best`` and ``residual`` carry the closest
    point found."""

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
