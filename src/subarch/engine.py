"""Candidate scalarization against the maximum point, and deterministic ranking.

The scalarizer rewards the relative parameter and latency savings of a
candidate f against the maximum point T, damped by the candidate's surrogate
error:

    w(f, T) = (params(T) - params(f)) * (latency(T) - latency(f))
              / (params(T) * latency(T) * error(f))

Larger is better. Candidates exceeding T in parameters or latency would turn
both savings terms negative and multiply into a spuriously positive value, so
they are excluded from the ranking (flagged, and listed in the report
appendix) instead of being scored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice
from typing import Mapping

from .errors import ConfigError, DataError
from .metrics import (
    ErrorModel,
    MaxPoint,
    MetricTriple,
    analytic_metrics,
)
from .space import (
    ArchParams,
    EmbeddingConfig,
    SearchSpace,
    enumerate_space,
    positive_int,
    stride_subsample,
)

ANALYTIC = "analytic"
INGESTED = "ingested"
METRIC_MODES = (ANALYTIC, INGESTED)

EXCEEDS_PARAMS = "exceeds_maxpoint_params"
EXCEEDS_LATENCY = "exceeds_maxpoint_latency"


def w_coefficient(candidate: MetricTriple, maxpoint: MaxPoint) -> float:
    """Raw scalarizer value for one candidate; see the module docstring.

    This is the bare evaluation: callers apply the maximum-point exclusion
    rule. Both latencies must carry the same unit tag; MetricTriple already
    guarantees a finite, positive error.
    """
    t = maxpoint.metrics
    if candidate.latency_unit != t.latency_unit:
        raise ConfigError(
            f"latency unit mismatch: candidate is {candidate.latency_unit!r},"
            f" maximum point is {t.latency_unit!r}"
        )
    return ((t.param_size - candidate.param_size) * (t.latency - candidate.latency)) / (
        t.param_size * t.latency * candidate.error
    )


def exceed_flags(candidate: MetricTriple, maxpoint: MaxPoint) -> frozenset[str]:
    """Flags for a candidate that exceeds the maximum point (empty when it does not)."""
    flags = set()
    if candidate.param_size > maxpoint.metrics.param_size:
        flags.add(EXCEEDS_PARAMS)
    if candidate.latency > maxpoint.metrics.latency:
        flags.add(EXCEEDS_LATENCY)
    return frozenset(flags)


@dataclass(frozen=True)
class SearchConfig:
    """Everything one extraction run depends on.

    n_steps is recorded provenance only: no surrogate training happens here.
    top_k of None returns the full ranking.
    """

    space: SearchSpace
    maxpoint: MaxPoint
    emb: EmbeddingConfig
    epsilon: int = 1
    metric_mode: str = ANALYTIC
    error_model: ErrorModel | None = None
    top_k: int | None = None
    n_steps: int = 3

    def __post_init__(self) -> None:
        if self.metric_mode not in METRIC_MODES:
            raise ConfigError(
                f"metric_mode must be one of {METRIC_MODES} (got {self.metric_mode!r})"
            )
        if self.top_k is not None:
            positive_int(self.top_k, "top_k")
        positive_int(self.n_steps, "n_steps")
        if self.metric_mode == ANALYTIC and self.error_model is None:
            raise ConfigError("analytic mode requires an error model")

    @cached_property
    def candidates(self) -> list[ArchParams]:
        """The valid architectures of the strided space, ascending; enumerated once per config.

        stride_subsample rejects an invalid epsilon here, on first use.
        """
        return enumerate_space(stride_subsample(self.space, self.epsilon))


@dataclass(frozen=True)
class CandidateReport:
    """One report row: ranked, or excluded by the maximum-point rule.

    An excluded row has rank None, its exceed flags set, and the raw,
    unranked w_coefficient.
    """

    arch: ArchParams
    metrics: MetricTriple
    w_coefficient: float
    rank: int | None
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class RankingResult:
    ranked: tuple[CandidateReport, ...]
    excluded: tuple[CandidateReport, ...]
    total_ranked: int
    candidates_evaluated: int


def rank_candidates(
    config: SearchConfig, metrics: Mapping[ArchParams, MetricTriple]
) -> RankingResult:
    """Enumerate, score and sort the candidates of one run.

    Sort order is w_coefficient descending with ties broken ascending on
    (depth, heads, hidden, intermediate); ranks are contiguous from 1. The
    top_k slice applies after ranking, and only the shown rows become
    reports. Candidates exceeding the maximum point are collected separately,
    in architecture order.
    """
    candidates = config.candidates
    scored: list[tuple[float, ArchParams, MetricTriple]] = []
    excluded: list[CandidateReport] = []
    for arch in candidates:
        triple = metrics.get(arch)
        if triple is None:
            raise DataError(f"no metric entry for candidate architecture {arch}")
        w = w_coefficient(triple, config.maxpoint)
        flags = exceed_flags(triple, config.maxpoint)
        if flags:
            excluded.append(CandidateReport(arch, triple, w, None, flags))
        else:
            scored.append((w, arch, triple))
    if not scored:
        raise DataError("no candidates remain after maximum-point exclusion")
    scored.sort(key=lambda row: (-row[0], row[1]))
    ranked = tuple(
        CandidateReport(arch, triple, w, position)
        for position, (w, arch, triple) in enumerate(islice(scored, config.top_k), start=1)
    )
    return RankingResult(
        ranked=ranked,
        excluded=tuple(excluded),
        total_ranked=len(scored),
        candidates_evaluated=len(candidates),
    )


@dataclass(frozen=True)
class ExtractionReport:
    """Provenance header plus the ranking; renders to JSON or aligned text."""

    header: dict
    result: RankingResult


def _surrogate_note(config: SearchConfig, error_source: str) -> str:
    latency_basis = (
        "the closed-form FLOP count"
        if config.metric_mode == ANALYTIC
        else "measured seconds per sample"
    )
    return (
        "surrogates: param_size is the closed-form parameter count; latency is "
        f"{latency_basis}; error comes from {error_source}, a stand-in, not a "
        "trained-model error signal"
    )


def run_extraction(
    config: SearchConfig,
    measurements: Mapping[ArchParams, MetricTriple] | None = None,
) -> ExtractionReport:
    """Full pipeline: stride, enumerate, attach metrics, rank, wrap with provenance.

    Deterministic: identical inputs produce an identical report object and
    byte-identical renderings.
    """
    if config.metric_mode == ANALYTIC:
        provider = config.error_model.provider(config.emb)
        metric_map: Mapping[ArchParams, MetricTriple] = {
            arch: analytic_metrics(arch, config.emb, provider) for arch in config.candidates
        }
        error_source = config.error_model.describe()
    else:
        if measurements is None:
            raise ConfigError("ingested mode requires a measurement source")
        metric_map = measurements
        error_source = "ingested measurement records"

    result = rank_candidates(config, metric_map)
    t = config.maxpoint
    header = {
        "report": "optimal-subarchitecture ranking",
        "metric_mode": config.metric_mode,
        "latency_unit": t.metrics.latency_unit,
        "epsilon": config.epsilon,
        "n_steps": config.n_steps,
        "maxpoint": {
            "arch": list(t.arch.as_tuple()),
            "param_size": t.metrics.param_size,
            "latency": t.metrics.latency,
        },
        "embedding": asdict(config.emb),
        "error_provider": error_source,
        "surrogate_note": _surrogate_note(config, error_source),
        "top_k": config.top_k,
        "candidates_evaluated": result.candidates_evaluated,
        "candidates_ranked": result.total_ranked,
        "candidates_excluded": len(result.excluded),
    }
    return ExtractionReport(header=header, result=result)


def _row_dict(row: CandidateReport) -> dict:
    return {
        "arch": list(row.arch.as_tuple()),
        "param_size": row.metrics.param_size,
        "latency": row.metrics.latency,
        "latency_unit": row.metrics.latency_unit,
        "error": row.metrics.error,
        "w_coefficient": row.w_coefficient,
        "flags": sorted(row.flags),
    }


def render_json(report: ExtractionReport) -> str:
    """Machine-readable rendering; byte-deterministic for identical reports."""
    doc = {
        "header": report.header,
        "ranking": [{"rank": row.rank, **_row_dict(row)} for row in report.result.ranked],
        "excluded": [_row_dict(row) for row in report.result.excluded],
    }
    return json.dumps(doc, indent=2)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


_TEXT_COLUMNS = (
    "rank", "depth", "heads", "hidden", "inter",
    "param_size", "latency", "unit", "error", "w_coefficient", "flags",
)


def _text_row(row: CandidateReport) -> list[str]:
    """The cells of every column but rank, in _row_dict's order."""
    arch, *values, flags = _row_dict(row).values()
    return [*map(str, arch), *map(_format_cell, values), ",".join(flags) or "-"]


def _aligned(rows: list[list[str]]) -> list[str]:
    """Right-align each column to its widest cell, two spaces apart."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def render_text(report: ExtractionReport) -> str:
    """Human-readable rendering: provenance lines, then aligned columns."""
    header = dict(report.header)
    lines = [f"# {header.pop('report')}"]
    lines += [f"# {key}: {value}" for key, value in header.items() if not isinstance(value, dict)]
    mp = header["maxpoint"]
    lines.append(
        "# maxpoint: arch=<{},{},{},{}> param_size={} latency={}".format(
            *mp["arch"], _format_cell(mp["param_size"]), _format_cell(mp["latency"])
        )
    )
    lines.append("# embedding: " + " ".join(f"{k}={v}" for k, v in header["embedding"].items()))

    lines += _aligned(
        [list(_TEXT_COLUMNS)]
        + [[str(row.rank), *_text_row(row)] for row in report.result.ranked]
    )
    lines.append(f"# excluded by maximum-point rule: {len(report.result.excluded)}")
    if report.result.excluded:
        lines += _aligned(
            [list(_TEXT_COLUMNS[1:])] + [_text_row(row) for row in report.result.excluded]
        )
    return "\n".join(lines)
