"""Exception types shared across the package, and the guarded read of an
input or cache file."""

from pathlib import Path


class LflowError(Exception):
    """Base class for every error raised by this package."""


class CatalogError(LflowError):
    """Catalog text could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None, line: str | None = None):
        if line_number is not None:
            detail = f" ({line.strip()!r})" if line else ""
            message = f"line {line_number}: {message}{detail}"
        super().__init__(message)
        self.line_number = line_number
        self.line = line


class SingularCurveError(CatalogError):
    """The a-invariants describe a singular cubic (discriminant zero)."""


class SamplingError(LflowError):
    """The sampling plan cannot be satisfied by the catalog."""


class ConsistencyError(LflowError):
    """A model's reduction types or traces disagree with its claimed conductor."""


class NumericError(LflowError):
    """A numeric routine failed to converge or left its validated domain."""


class CacheError(LflowError):
    """A coefficient cache file exists but its body is corrupt."""


class UndefinedCorrelationError(LflowError):
    """Rank correlation is undefined for the given inputs."""


class ConfigError(LflowError):
    """Run configuration is invalid or contradictory."""


def read_text(path, encoding: str = "ascii", error: type[LflowError] = LflowError) -> str:
    """An input or cache file; bytes that do not decode raise `error`."""
    try:
        return Path(path).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None
