"""Exception types shared across the package."""


class UsageError(ValueError):
    """Raised when an operation is called with arguments that violate its contract."""


class IngestionError(ValueError):
    """Raised when an input file cannot be turned into a target density."""


class ConfigError(ValueError):
    """Raised when an experiment configuration fails validation."""


class DegenerateWeightsError(RuntimeError):
    """Raised when every particle weight underflows to -inf."""

    def __init__(self, temperature_index: int):
        super().__init__(f"all particle weights are -inf at temperature index {temperature_index}")
        self.temperature_index = temperature_index


class TrainingError(RuntimeError):
    """Raised when a training loop cannot continue (divergence, empty batch)."""
