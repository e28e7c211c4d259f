"""Surrogate metric triples per candidate: analytic, ingested from files, or synthetic.

A candidate is scored on three surrogates: parameter size, latency and error.
Analytic mode derives the first two from the closed-form counts (latency in
FLOPs); ingested mode reads measured seconds-per-sample records from a
newline-delimited JSON file. The metric mode fixes the run's latency unit.
The error surrogate is always a stand-in, there is no trained model behind
it: in analytic mode it is `ErrorModel.error(param_size)`, a function of the
parameter count alone, and every report states which model produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .costs import flop_count, param_count
from .errors import ConfigError, DataError
from .space import ArchParams, EmbeddingConfig, arch_from_ints, positive_int

_RECORD_KEYS = ("arch", "latency_s", "error", "trials")


def finite_positive(value: float, what: str, exc: type[Exception] = ValueError) -> None:
    """Raise exc naming `what` unless value is finite and > 0 (a bool is not a number)."""
    if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
        raise exc(f"{what} must be finite and positive (got {value})")


def finite_number(value, what: str) -> float:
    """value as a float when it is a finite int or float (not a bool); else ConfigError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            result = float(value)
        except OverflowError:  # an int beyond the float range
            result = math.inf
        if math.isfinite(result):
            return result
    raise ConfigError(f"{what} must be a finite number (got {value!r})")


@dataclass(frozen=True, slots=True)
class MetricTriple:
    """Surrogate parameter size (an exact int of any size, or a finite float), latency and error."""

    param_size: float
    latency: float
    error: float

    def __post_init__(self) -> None:
        if isinstance(self.param_size, bool) or not 0 <= self.param_size < math.inf:
            raise ValueError(f"param_size must be finite and non-negative (got {self.param_size})")
        finite_positive(self.latency, "latency")
        finite_positive(self.error, "error")


@dataclass(frozen=True)
class MaxPoint:
    """The maximum-parameter, maximum-latency reference architecture.

    Its error slot is unused; candidates are normalized by its parameter size
    and latency only.
    """

    arch: ArchParams
    metrics: MetricTriple

    def __post_init__(self) -> None:
        if not self.metrics.param_size > 0:
            raise ValueError("maximum point must have positive param_size")


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured candidate: mean latency over `trials` runs, plus an error value."""

    arch: ArchParams
    latency: float
    error: float
    trials: int

    def __post_init__(self) -> None:
        finite_positive(self.latency, "latency")
        finite_positive(self.error, "error")
        positive_int(self.trials, "trials")


def _record_from_obj(obj: object, lineno: int) -> MeasurementRecord:
    if not isinstance(obj, dict):
        raise DataError(f"measurement line {lineno}: expected a JSON object")
    missing = [k for k in _RECORD_KEYS if k not in obj]
    unknown = [k for k in obj if k not in _RECORD_KEYS]
    if missing or unknown:
        raise DataError(
            f"measurement line {lineno}: record keys must be exactly {list(_RECORD_KEYS)}"
            f" (missing {missing}, unknown {unknown})"
        )
    try:
        return MeasurementRecord(
            arch=arch_from_ints(obj["arch"], f"measurement line {lineno}: 'arch'", DataError),
            latency=finite_number(obj["latency_s"], "'latency_s'"),
            error=finite_number(obj["error"], "'error'"),
            trials=obj["trials"],
        )
    except (ValueError, ConfigError) as exc:
        raise DataError(f"measurement line {lineno}: {exc}") from exc


def parse_measurements(source: str | Iterable[str]) -> list[MeasurementRecord]:
    """Parse newline-delimited JSON records; blank lines are skipped.

    Every diagnostic names the offending line number; a second record for an
    architecture also names the line of the first.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    records = []
    first_line: dict[ArchParams, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
            raise DataError(f"measurement line {lineno}: invalid JSON: {exc}") from exc
        record = _record_from_obj(obj, lineno)
        if record.arch in first_line:
            raise DataError(
                f"measurement line {lineno}: duplicate record for architecture {record.arch}"
                f" (first on line {first_line[record.arch]})"
            )
        first_line[record.arch] = lineno
        records.append(record)
    return records


def serialize_measurements(records: Iterable[MeasurementRecord]) -> str:
    """Inverse of parse_measurements: one JSON object per line, schema key order."""
    lines = []
    for rec in records:
        values = (list(rec.arch.as_tuple()), rec.latency, rec.error, rec.trials)
        lines.append(json.dumps(dict(zip(_RECORD_KEYS, values))))
    return "\n".join(lines) + ("\n" if lines else "")


def ingest_measurements(
    source: str | Iterable[str], emb: EmbeddingConfig
) -> dict[ArchParams, MetricTriple]:
    """Parse a measurement stream and key it by architecture, with the closed-form param_size."""
    return {
        rec.arch: MetricTriple(param_count(rec.arch, emb), rec.latency, rec.error)
        for rec in parse_measurements(source)
    }


def analytic_metrics(
    arch: ArchParams, emb: EmbeddingConfig, error_of: Callable[[int], float]
) -> MetricTriple:
    """Closed-form parameter and FLOP surrogates, plus error_of(parameter count).

    An exact count that a float cannot hold, in the error or in the FLOP
    count's finiteness check, is a ConfigError naming the architecture.
    """
    param_size = param_count(arch, emb)
    try:
        error = error_of(param_size)
    except OverflowError as exc:
        raise ConfigError(
            f"surrogate error for architecture {arch}: its parameter count is too large for a float"
        ) from exc
    except Exception as exc:
        raise DataError(f"error provider failed for architecture {arch}: {exc}") from exc
    finite_positive(error, f"surrogate error for architecture {arch}", DataError)
    try:
        return MetricTriple(param_size, flop_count(arch), error)
    except OverflowError as exc:
        raise ConfigError(f"the FLOP count of architecture {arch} is too large for a float") from exc


@dataclass(frozen=True)
class ConstantErrorModel:
    """Same error value for every candidate."""

    value: float

    def __post_init__(self) -> None:
        finite_positive(self.value, "constant error value", ConfigError)

    def error(self, param_size: int) -> float:
        return self.value

    def describe(self) -> str:
        return f"constant({self.value:g})"


@dataclass(frozen=True)
class SyntheticErrorModel:
    """Capacity-driven error c0 + c1 / param_count."""

    c0: float
    c1: float

    def __post_init__(self) -> None:
        finite_positive(self.c0, "c0", ConfigError)
        if not (math.isfinite(self.c1) and self.c1 >= 0):
            raise ConfigError(f"c1 must be finite and non-negative (got {self.c1})")

    def error(self, param_size: int) -> float:
        return self.c0 + self.c1 / param_size

    def describe(self) -> str:
        return f"synthetic(c0={self.c0:g}, c1={self.c1:g})"


# Both models read the parameter count alone, which no head count changes,
# so a candidate's error is the same for every head count.
ErrorModel = ConstantErrorModel | SyntheticErrorModel

