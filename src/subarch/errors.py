"""Exception types shared across the toolkit, each with the CLI's exit code and stderr label."""


class SubarchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SubarchError):
    """Invalid configuration: bad search space, architecture, or option values."""

    exit_code = 2
    label = "config error"


class DataError(SubarchError):
    """Invalid or missing input data: measurement records, token files, metric lookups."""

    exit_code = 3
    label = "data error"


class VerificationError(SubarchError):
    """A cross-module consistency check found a counterexample."""

    exit_code = 4
    label = "verification failed"
