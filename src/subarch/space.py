"""Architectural parameter space: validity rules and deterministic enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ConfigError

_AXIS_NAMES = ("depths", "heads", "hiddens", "intermediates")


def positive_int(value, what: str) -> int:
    """Return value when it is an int >= 1 and not a bool; otherwise raise ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{what} must be a positive integer (got {value!r})")
    return value


@dataclass(frozen=True, order=True)
class ArchParams:
    """One member of the encoder family: depth, attention heads, hidden and intermediate size.

    Ordering (and therefore enumeration and tie-breaking everywhere in the
    toolkit) is lexicographic on (depth, heads, hidden, intermediate).
    """

    depth: int
    heads: int
    hidden: int
    intermediate: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.depth, self.heads, self.hidden, self.intermediate)

    def __str__(self) -> str:
        return f"<{self.depth},{self.heads},{self.hidden},{self.intermediate}>"


def validate(arch: ArchParams) -> tuple[str, ...]:
    """Check every architecture constraint; returns the violations, empty when valid.

    Invalid input yields a verdict, never an exception.
    """
    violations = []
    for name in ("depth", "heads", "hidden", "intermediate"):
        value = getattr(arch, name)
        if value < 1:
            violations.append(f"{name} must be a positive integer (got {value})")
    if arch.depth >= 1 and arch.depth % 2 != 0:
        violations.append("depth must be even")
    if arch.heads >= 1 and arch.hidden >= 1 and arch.hidden % arch.heads != 0:
        violations.append(
            f"hidden ({arch.hidden}) is not divisible by heads ({arch.heads})"
        )
    return tuple(violations)


def is_valid(arch: ArchParams) -> bool:
    return not validate(arch)


def require_valid(arch: ArchParams) -> None:
    """Raise ConfigError listing every violated constraint."""
    violations = validate(arch)
    if violations:
        raise ConfigError(f"invalid architecture {arch}: " + "; ".join(violations))


@dataclass(frozen=True)
class SearchSpace:
    """Axis values for each architectural parameter.

    Axes are stored sorted ascending; empty axes and duplicates are rejected.
    """

    depths: tuple[int, ...]
    heads: tuple[int, ...]
    hiddens: tuple[int, ...]
    intermediates: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in _AXIS_NAMES:
            axis = tuple(getattr(self, name))
            if not axis:
                raise ConfigError(f"search-space axis '{name}' is empty")
            for value in axis:
                positive_int(value, f"search-space axis '{name}' value")
            if len(set(axis)) != len(axis):
                raise ConfigError(f"search-space axis '{name}' contains duplicates: {axis}")
            object.__setattr__(self, name, tuple(sorted(axis)))

    def size(self) -> int:
        """Number of grid points before validity filtering."""
        return (
            len(self.depths)
            * len(self.heads)
            * len(self.hiddens)
            * len(self.intermediates)
        )


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding-layer sizes and the nominal input geometry.

    vocab is the token vocabulary cardinality, typepos the row count of the
    position table (which must cover the sequence length), seq the input
    sequence length and batch the batch size.
    """

    vocab: int
    typepos: int
    seq: int = 512
    batch: int = 1024

    def __post_init__(self) -> None:
        for name in ("vocab", "typepos", "seq", "batch"):
            positive_int(getattr(self, name), name)


def enumerate_space(space: SearchSpace) -> list[ArchParams]:
    """All valid architectures in the space, ascending on (depth, heads, hidden, intermediate).

    Pure function: equal spaces produce identical sequences, with no duplicates.
    """
    out = []
    for depth, heads, hidden, intermediate in product(
        space.depths, space.heads, space.hiddens, space.intermediates
    ):
        arch = ArchParams(depth, heads, hidden, intermediate)
        if is_valid(arch):
            out.append(arch)
    return out


def stride_subsample(space: SearchSpace, epsilon: int) -> SearchSpace:
    """Keep every epsilon-th value of each axis, starting from the first.

    epsilon=1 is the identity; a stride at least as long as an axis leaves
    only that axis's first element.
    """
    if positive_int(epsilon, "epsilon") == 1:
        return space
    return SearchSpace(
        space.depths[::epsilon],
        space.heads[::epsilon],
        space.hiddens[::epsilon],
        space.intermediates[::epsilon],
    )
