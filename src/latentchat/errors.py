"""Exception taxonomy shared across the package.

CLI exit codes (each class's ``exit_code``): ConfigError -> 1;
DataError, InputError, CheckpointError, ShapeError -> 2;
NumericError, TrainingError -> 3.
"""


class LatentChatError(Exception):
    exit_code = 2


class ShapeError(LatentChatError):
    """Operand dimensions do not agree."""


class ConfigError(LatentChatError):
    """Invalid configuration value or unknown key."""

    exit_code = 1


class DataError(LatentChatError):
    """Malformed corpus or batch contents."""


class InputError(LatentChatError):
    """Invalid runtime input (empty prompt, empty bag, ...)."""


class NumericError(LatentChatError):
    """Non-finite values where finite ones are required."""

    exit_code = 3


class TrainingError(LatentChatError):
    """Optimisation failure (non-finite gradient or loss)."""

    exit_code = 3


class CheckpointError(LatentChatError):
    """Checkpoint file malformed or incompatible with the config."""
