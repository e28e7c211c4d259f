"""Surrogate metric triples per candidate: analytic, ingested from files, or synthetic.

A candidate is scored on three surrogates: parameter size, latency and error.
Analytic mode derives the first two from the closed-form counts (latency in
FLOPs); ingested mode reads measured seconds-per-sample records from a
newline-delimited JSON file. The error surrogate is always a stand-in, there
is no trained model behind it, so every report states which provider produced
it. Latency values carry a unit tag and units are never mixed within a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .costs import flop_count, param_count
from .errors import ConfigError, DataError
from .space import ArchParams, EmbeddingConfig, positive_int, require_valid, validate

SECONDS_PER_SAMPLE = "seconds_per_sample"
FLOPS = "flops"
LATENCY_UNITS = (SECONDS_PER_SAMPLE, FLOPS)

_RECORD_KEYS = ("arch", "latency_s", "error", "trials")

ErrorProvider = Callable[[ArchParams], float]


def finite_positive(value: float, what: str, exc: type[Exception] = ValueError) -> None:
    """Raise exc naming `what` unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise exc(f"{what} must be finite and positive (got {value})")


@dataclass(frozen=True)
class MetricTriple:
    """Surrogate parameter size, latency (with unit) and error for one candidate."""

    param_size: float
    latency: float
    error: float
    latency_unit: str = FLOPS

    def __post_init__(self) -> None:
        if not self.param_size >= 0:
            raise ValueError(f"param_size must be non-negative (got {self.param_size})")
        finite_positive(self.latency, "latency")
        finite_positive(self.error, "error")
        if self.latency_unit not in LATENCY_UNITS:
            raise ValueError(
                f"latency_unit must be one of {LATENCY_UNITS} (got {self.latency_unit!r})"
            )


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
    raw_arch = obj["arch"]
    if (
        not isinstance(raw_arch, list)
        or len(raw_arch) != 4
        or any(not isinstance(v, int) or isinstance(v, bool) for v in raw_arch)
    ):
        raise DataError(f"measurement line {lineno}: 'arch' must be a list of 4 integers")
    arch = ArchParams(*raw_arch)
    violations = validate(arch)
    if violations:
        raise DataError(
            f"measurement line {lineno}: invalid architecture {arch}: " + "; ".join(violations)
        )
    for field in ("latency_s", "error"):
        if not isinstance(obj[field], (int, float)) or isinstance(obj[field], bool):
            raise DataError(f"measurement line {lineno}: '{field}' must be a number")
    try:
        return MeasurementRecord(
            arch=arch,
            latency=float(obj["latency_s"]),
            error=float(obj["error"]),
            trials=obj["trials"],
        )
    except (TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"measurement line {lineno}: {exc}") from exc


def parse_measurements(source: str | Iterable[str]) -> list[MeasurementRecord]:
    """Parse newline-delimited JSON records; blank lines are skipped.

    Every diagnostic names the offending line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"measurement line {lineno}: invalid JSON: {exc}") from exc
        records.append(_record_from_obj(obj, lineno))
    return records


def serialize_measurements(records: Iterable[MeasurementRecord]) -> str:
    """Inverse of parse_measurements: one JSON object per line, schema key order."""
    lines = []
    for rec in records:
        lines.append(
            json.dumps(
                {
                    "arch": list(rec.arch.as_tuple()),
                    "latency_s": rec.latency,
                    "error": rec.error,
                    "trials": rec.trials,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def build_metric_map(
    records: Iterable[MeasurementRecord], emb: EmbeddingConfig
) -> dict[ArchParams, MetricTriple]:
    """Key records by architecture, filling param_size from the closed-form count."""
    out: dict[ArchParams, MetricTriple] = {}
    for rec in records:
        if rec.arch in out:
            raise DataError(f"duplicate measurement record for architecture {rec.arch}")
        out[rec.arch] = MetricTriple(
            param_size=param_count(rec.arch, emb),
            latency=rec.latency,
            error=rec.error,
            latency_unit=SECONDS_PER_SAMPLE,
        )
    return out


def ingest_measurements(
    source: str | Iterable[str], emb: EmbeddingConfig
) -> dict[ArchParams, MetricTriple]:
    """Parse a measurement stream and key it by exact architecture tuple."""
    return build_metric_map(parse_measurements(source), emb)


def analytic_metrics(
    arch: ArchParams, emb: EmbeddingConfig, error_provider: ErrorProvider
) -> MetricTriple:
    """Closed-form parameter and FLOP surrogates, plus the provider's error value.

    param_count runs first: it raises ConfigError for an invalid architecture
    before the provider is consulted.
    """
    param_size = param_count(arch, emb)
    try:
        error = error_provider(arch)
    except Exception as exc:
        raise DataError(f"error provider failed for architecture {arch}: {exc}") from exc
    finite_positive(error, f"surrogate error for architecture {arch}", DataError)
    return MetricTriple(
        param_size=param_size,
        latency=flop_count(arch),
        error=error,
        latency_unit=FLOPS,
    )


def synthetic_error(arch: ArchParams, emb: EmbeddingConfig, c0: float, c1: float) -> float:
    """Test-only error surrogate c0 + c1 / param_count: positive, shrinking with capacity."""
    return SyntheticErrorModel(c0, c1).provider(emb)(arch)


@dataclass(frozen=True)
class ConstantErrorModel:
    """Same error value for every candidate."""

    value: float

    def __post_init__(self) -> None:
        finite_positive(self.value, "constant error value", ConfigError)

    def provider(self, emb: EmbeddingConfig) -> ErrorProvider:
        return lambda arch: self.value

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

    def provider(self, emb: EmbeddingConfig) -> ErrorProvider:
        return lambda arch: self.c0 + self.c1 / param_count(arch, emb)

    def describe(self) -> str:
        return f"synthetic(c0={self.c0:g}, c1={self.c1:g})"


ErrorModel = ConstantErrorModel | SyntheticErrorModel


def analytic_maxpoint(arch: ArchParams, emb: EmbeddingConfig) -> MaxPoint:
    """Maximum point with closed-form parameter and FLOP metrics."""
    require_valid(arch)
    # The error slot is unused for the maximum point; 1.0 is a placeholder.
    triple = MetricTriple(
        param_size=param_count(arch, emb),
        latency=flop_count(arch),
        error=1.0,
        latency_unit=FLOPS,
    )
    return MaxPoint(arch, triple)


def maxpoint_from_measurements(
    arch: ArchParams, metric_map: Mapping[ArchParams, MetricTriple]
) -> MaxPoint:
    """Resolve the maximum point from an ingested metric map."""
    triple = metric_map.get(arch)
    if triple is None:
        raise DataError(f"maximum-point architecture {arch} has no measurement record")
    return MaxPoint(arch, triple)
