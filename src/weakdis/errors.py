"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A parameter or configuration value violates a documented precondition."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured size/term budget."""


class CheckFailure(AssertionError):
    """A --check mode acceptance assertion failed (CLI exit code 4)."""
