"""Exception types shared across the package."""


class BpsfairError(Exception):
    """Base class for all bpsfair errors."""


class InputShapeError(BpsfairError):
    """Vectors passed to a metric or model do not have compatible shapes."""


class EmptyInputError(BpsfairError):
    """An operation received no data to work on."""


class UndefinedMeasureError(BpsfairError):
    """A statistical measure has an empty conditioning class.

    Carries the measure kind and the group the measure was requested for.
    """

    def __init__(self, kind, group_id, message=None):
        self.kind = kind
        self.group_id = group_id
        super().__init__(
            message or f"measure {kind} undefined for group {group_id}: empty conditioning class"
        )


class SchemaError(BpsfairError):
    """A dataset file does not match its declared schema."""


class DataError(BpsfairError):
    """Row-level content errors (unparseable numerics, bad group codes)."""

    def __init__(self, message, rows=()):
        self.rows = tuple(rows)
        super().__init__(message)


class ConfigError(BpsfairError):
    """Invalid configuration values."""


class FormatError(BpsfairError):
    """Corrupt, truncated, or wrong-version model artifact."""


class StateError(BpsfairError):
    """Network state, cache, or gradients are mutually inconsistent."""


class NonFiniteOutputError(StateError):
    """A model's forward pass gave probabilities that are not finite."""


class DivergenceError(BpsfairError):
    """Training produced a non-finite loss or model output and was aborted.

    ``batch`` names the batch whose loss went non-finite; it is None when a
    forward pass after the epoch's training (validation or test) did.
    """

    def __init__(self, epoch, batch=None):
        self.epoch = epoch
        self.batch = batch
        if batch is None:
            super().__init__(f"non-finite model output at epoch {epoch}")
        else:
            super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
