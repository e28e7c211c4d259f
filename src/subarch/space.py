"""Architectural parameter space: validity rules and deterministic enumeration."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from itertools import product

from .errors import ConfigError


def positive_int(value, what: str) -> int:
    """Return value when it is an int >= 1 and not a bool; otherwise raise ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{what} must be a positive integer (got {value!r})")
    return value


@dataclass(frozen=True, order=True, slots=True)
class ArchParams:
    """One valid member of the encoder family: depth, attention heads, hidden and intermediate size.

    Construction raises ConfigError naming every violated constraint. Ordering
    (and therefore enumeration and tie-breaking everywhere in the toolkit) is
    lexicographic on (depth, heads, hidden, intermediate).
    """

    depth: int
    heads: int
    hidden: int
    intermediate: int

    def __post_init__(self) -> None:
        violations = validate(self.depth, self.heads, self.hidden, self.intermediate)
        if violations:
            raise ConfigError(f"invalid architecture {self}: " + "; ".join(violations))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.depth, self.heads, self.hidden, self.intermediate)

    def __str__(self) -> str:
        return f"<{self.depth},{self.heads},{self.hidden},{self.intermediate}>"


def arch_from_ints(value, what: str, exc: type[Exception]) -> ArchParams:
    """ArchParams of a list or tuple of four ints (bools are not ints); otherwise raise exc."""
    if not isinstance(value, (list, tuple)) or len(value) != 4 or any(
        not isinstance(v, int) or isinstance(v, bool) for v in value
    ):
        raise exc(f"{what} must be four integers (got {value!r})")
    return ArchParams(*value)


def validate(depth: int, heads: int, hidden: int, intermediate: int) -> tuple[str, ...]:
    """Each rule that <depth,heads,hidden,intermediate> breaks, empty when valid; never raises."""
    violations = []
    values = {"depth": depth, "heads": heads, "hidden": hidden, "intermediate": intermediate}
    for name, value in values.items():
        if value < 1:
            violations.append(f"{name} must be a positive integer (got {value})")
    if depth >= 1 and depth % 2 != 0:
        violations.append("depth must be even")
    if heads >= 1 and hidden >= 1 and hidden % heads != 0:
        violations.append(f"hidden ({hidden}) is not divisible by heads ({heads})")
    return tuple(violations)


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
        for name in (f.name for f in fields(self)):
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
        return math.prod(map(len, astuple(self)))


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
        for f in fields(self):
            positive_int(getattr(self, f.name), f.name)


def enumerate_space(space: SearchSpace) -> list[ArchParams]:
    """All valid architectures in the space, ascending on (depth, heads, hidden, intermediate).

    Pure function: equal spaces produce identical sequences, with no duplicates.
    """
    out = []
    for depth, heads, hidden, intermediate in product(
        space.depths, space.heads, space.hiddens, space.intermediates
    ):
        if not validate(depth, heads, hidden, intermediate):
            out.append(ArchParams(depth, heads, hidden, intermediate))
    return out


def stride_subsample(space: SearchSpace, epsilon: int) -> SearchSpace:
    """Keep every epsilon-th value of each axis, starting from the first.

    epsilon=1 is the identity; a stride at least as long as an axis leaves
    only that axis's first element.
    """
    if positive_int(epsilon, "epsilon") == 1:
        return space
    return SearchSpace(*(axis[::epsilon] for axis in astuple(space)))
