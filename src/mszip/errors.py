"""Exception types shared across the package."""


class MszipError(Exception):
    """Base class for all package-specific errors."""


class ContractError(MszipError, ValueError):
    """An operation was called outside its documented preconditions."""


class FormatError(MszipError, ValueError):
    """Serialized bytes do not conform to the expected format."""


class IngestError(MszipError, ValueError):
    """Input data cannot be converted. Carries a human-readable position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{position}: {message}")
        self.position = position
