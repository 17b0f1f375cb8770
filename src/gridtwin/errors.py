"""Exception types shared across the toolkit."""


class GridTwinError(Exception):
    """Base class for every error raised by gridtwin."""


# --- feeder model / power flow ---

class FeederError(GridTwinError):
    """Invalid feeder description."""


class DuplicateId(FeederError):
    pass


class CycleDetected(FeederError):
    pass


class DisconnectedBus(FeederError):
    pass


class SingularImpedance(FeederError):
    pass


class InvalidLoad(GridTwinError):
    pass


class NoConvergence(GridTwinError):
    """Iterative solve ran out of iterations or diverged.

    `step` is set when the failure happened in a batched power flow or a
    time-series build and identifies the offending time index (0 for a lone
    solve_power_flow, a batch of one).
    """

    def __init__(self, message, iterations=None, mismatch=None, step=None):
        super().__init__(message)
        self.iterations = iterations
        self.mismatch = mismatch
        self.step = step


# --- telemetry ---

class UnknownChannelTarget(GridTwinError):
    pass


class InvalidAlpha(GridTwinError):
    pass


class HeaderMismatch(GridTwinError):
    pass


class RaggedRows(GridTwinError):
    pass


class UnparseableNumber(GridTwinError):
    pass


# --- estimation ---

class RankDeficient(GridTwinError):
    """Remaining measurements no longer determine all states."""


# --- autodiff ---

class ShapeMismatch(GridTwinError):
    pass


class NonFiniteValue(GridTwinError):
    pass


class NotScalarLoss(GridTwinError):
    pass


class MissingGradient(GridTwinError):
    pass


# --- training ---

class NonFiniteLoss(GridTwinError):
    pass


# --- bench / CLI ---

class ConfigError(GridTwinError):
    pass


class LengthMismatch(GridTwinError):
    pass
