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
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from operator import itemgetter
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

EXCEEDS_PARAMS = "exceeds_maxpoint_params"
EXCEEDS_LATENCY = "exceeds_maxpoint_latency"
NO_FLAGS: frozenset[str] = frozenset()


def w_coefficient(candidate: MetricTriple, maxpoint: MaxPoint) -> float:
    """Raw scalarizer value for one candidate; see the module docstring.

    This is the bare evaluation: callers apply the maximum-point exclusion
    rule. Both latencies are in the run's one unit; MetricTriple already
    guarantees a finite, positive error.
    """
    t = maxpoint.metrics
    return ((t.param_size - candidate.param_size) * (t.latency - candidate.latency)) / (
        t.param_size * t.latency * candidate.error
    )


def exceed_flags(candidate: MetricTriple, maxpoint: MaxPoint) -> frozenset[str]:
    """Flags for a candidate that exceeds the maximum point; the shared NO_FLAGS when none."""
    over_params = candidate.param_size > maxpoint.metrics.param_size
    over_latency = candidate.latency > maxpoint.metrics.latency
    if not (over_params or over_latency):
        return NO_FLAGS
    return frozenset(
        flag
        for flag, over in ((EXCEEDS_PARAMS, over_params), (EXCEEDS_LATENCY, over_latency))
        if over
    )


@dataclass(frozen=True)
class SearchConfig:
    """Everything one extraction run depends on.

    maxpoint is the maximum point's architecture: its metrics come from the
    run's own metric map, so they are in the candidates' units. n_steps is
    recorded provenance only: no surrogate training happens here. top_k of
    None returns the full ranking.
    """

    space: SearchSpace
    maxpoint: ArchParams
    emb: EmbeddingConfig
    epsilon: int = 1
    error_model: ErrorModel | None = None
    top_k: int | None = None
    n_steps: int = 3

    def __post_init__(self) -> None:
        if self.top_k is not None:
            positive_int(self.top_k, "top_k")
        positive_int(self.n_steps, "n_steps")

    @cached_property
    def candidates(self) -> list[ArchParams]:
        """The valid architectures of the strided space, ascending; enumerated once per config.

        stride_subsample rejects an invalid epsilon here, on first use.
        """
        return enumerate_space(stride_subsample(self.space, self.epsilon))


@dataclass(frozen=True, slots=True)
class CandidateReport:
    """One report row: ranked, or excluded by the maximum-point rule.

    An excluded row has rank None, its exceed flags set, and the raw,
    unranked w_coefficient.
    """

    arch: ArchParams
    metrics: MetricTriple
    w_coefficient: float
    rank: int | None
    flags: frozenset[str] = NO_FLAGS


@dataclass(frozen=True)
class RankingResult:
    ranked: tuple[CandidateReport, ...]
    excluded: tuple[CandidateReport, ...]
    total_ranked: int
    candidates_evaluated: int


def rank_candidates(
    config: SearchConfig, metrics: Mapping[ArchParams, MetricTriple]
) -> RankingResult:
    """Score and sort the candidates of one run against metrics[config.maxpoint].

    A metric map without the maximum point is a DataError, raised before the
    candidates are enumerated. Sort order is w_coefficient descending with
    ties broken ascending on (depth, heads, hidden, intermediate); ranks are
    contiguous from 1. The top_k slice applies after ranking, and only the
    shown rows become reports. Candidates exceeding the maximum point are
    collected separately, in architecture order. A w_coefficient that a float
    cannot hold is an error naming the candidate: ConfigError when an exact
    count is too large to convert, DataError when the arithmetic overflows to
    inf or NaN.
    """
    t = metrics.get(config.maxpoint)
    if t is None:
        raise DataError(f"maximum-point architecture {config.maxpoint} has no measurement record")
    maxpoint = MaxPoint(config.maxpoint, t)
    candidates = config.candidates
    scored: list[tuple[float, ArchParams, MetricTriple]] = []
    excluded: list[CandidateReport] = []
    for arch in candidates:
        triple = metrics.get(arch)
        if triple is None:
            raise DataError(f"no metric entry for candidate architecture {arch}")
        try:
            w = w_coefficient(triple, maxpoint)
        except OverflowError as exc:
            raise ConfigError(
                f"w_coefficient of architecture {arch}: a parameter count is too large"
                " for a float"
            ) from exc
        if not math.isfinite(w):
            raise DataError(
                f"w_coefficient of architecture {arch} is not finite ({w}): its parameter"
                " and latency values overflow a float"
            )
        flags = exceed_flags(triple, maxpoint)
        if flags:
            excluded.append(CandidateReport(arch, triple, w, None, flags))
        else:
            scored.append((w, arch, triple))
    if not scored:
        raise DataError("no candidates remain after maximum-point exclusion")
    # Candidates ascend by architecture and list.sort is stable (also with
    # reverse=True), so tied w values stay in ascending architecture order.
    scored.sort(key=itemgetter(0), reverse=True)
    ranked = tuple(
        CandidateReport(arch, triple, w, position)
        for position, (w, arch, triple) in enumerate(scored[: config.top_k], start=1)
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


def run_extraction(
    config: SearchConfig,
    measurements: Mapping[ArchParams, MetricTriple] | None = None,
) -> ExtractionReport:
    """Full pipeline: stride, enumerate, attach metrics, rank, wrap with provenance.

    Without measurements the run is analytic and needs config.error_model; with
    them it is ingested and takes none, as each measurement carries its own error.
    The mode fixes the whole run's latency unit, and the header records it. The
    maximum point's metrics come from the same map as the candidates': analytic
    mode puts its closed-form triple there first, and ingested mode reads its
    record. Identical inputs give an identical report and renderings.
    """
    if measurements is None:
        if config.error_model is None:
            raise ConfigError("analytic mode requires an error model")
        metric_mode, error_of = ANALYTIC, config.error_model.error
        # The maximum point first, so its faults come before any of the candidates'.
        metric_map = {config.maxpoint: analytic_metrics(config.maxpoint, config.emb, error_of)}
        metric_map.update(
            (arch, analytic_metrics(arch, config.emb, error_of)) for arch in config.candidates
        )
        error_source = config.error_model.describe()
        latency_unit, latency_basis = "flops", "the closed-form FLOP count"
    else:
        if config.error_model is not None:
            raise ConfigError("ingested mode takes no error model: measurements carry their own")
        metric_mode, metric_map = INGESTED, measurements
        error_source = "ingested measurement records"
        latency_unit, latency_basis = "seconds_per_sample", "measured seconds per sample"

    result = rank_candidates(config, metric_map)
    t = metric_map[config.maxpoint]
    header = {
        "report": "optimal-subarchitecture ranking",
        "metric_mode": metric_mode,
        "latency_unit": latency_unit,
        "epsilon": config.epsilon,
        "n_steps": config.n_steps,
        "maxpoint": {
            "arch": list(config.maxpoint.as_tuple()),
            "param_size": t.param_size,
            "latency": t.latency,
        },
        "embedding": asdict(config.emb),
        "error_provider": error_source,
        "surrogate_note": (
            "surrogates: param_size is the closed-form parameter count; latency is "
            f"{latency_basis}; error comes from {error_source}, a stand-in, not a "
            "trained-model error signal"
        ),
        "top_k": config.top_k,
        "candidates_evaluated": result.candidates_evaluated,
        "candidates_ranked": result.total_ranked,
        "candidates_excluded": len(result.excluded),
    }
    return ExtractionReport(header=header, result=result)


# The fields of a report row, in output order: the JSON row templates take
# their keys from here, and _text_row writes its cells in the same order.
# Every row repeats the run's unit.
_ROW_FIELDS = ("arch", "param_size", "latency", "latency_unit", "error", "w_coefficient", "flags")


def _json_number(value) -> str:
    """value as json.dumps(value, allow_nan=False) writes it: float.__repr__ or int.__repr__.

    Anything else, a non-finite float included, goes to json.dumps itself,
    which raises ValueError for NaN and infinities.
    """
    if type(value) is float:
        if math.isfinite(value):
            return float.__repr__(value)
    elif type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, allow_nan=False)


def _json_row_template(keys: tuple[str, ...]) -> str:
    """%-template of one row object, laid out as json.dumps(doc, indent=2) lays out a list item.

    rank and the arch ints are %d; every other value is passed pre-rendered.
    """
    arch = "[\n" + ",\n".join(["        %d"] * len(fields(ArchParams))) + "\n      ]"
    placeholder = {"rank": "%d", "arch": arch}
    lines = ",\n".join(f'      "{key}": {placeholder.get(key, "%s")}' for key in keys)
    return "    {\n" + lines + "\n    }"


_RANKED_ROW_JSON = _json_row_template(("rank", *_ROW_FIELDS))
# An excluded row's rank is None; "%.0s" consumes it and writes nothing.
_EXCLUDED_ROW_JSON = "%.0s" + _json_row_template(_ROW_FIELDS)


def _json_rows(rows: tuple[CandidateReport, ...], template: str, unit_json: str) -> str:
    """The JSON list of report rows, each written from `template` with no intermediate dict."""
    if not rows:
        return "[]"
    number = _json_number
    flag_lists: dict[frozenset[str], str] = {}
    items = []
    for row in rows:
        m = row.metrics
        flags = flag_lists.get(row.flags)
        if flags is None:
            flags = flag_lists[row.flags] = json.dumps(sorted(row.flags), indent=2).replace(
                "\n", "\n      "
            )
        items.append(template % (
            row.rank, *row.arch.as_tuple(), number(m.param_size), number(m.latency), unit_json,
            number(m.error), number(row.w_coefficient), flags,
        ))
    return "[\n" + ",\n".join(items) + "\n  ]"


def render_json(report: ExtractionReport) -> str:
    """Machine-readable rendering; byte-deterministic for identical reports.

    The text is exactly json.dumps(doc, indent=2, allow_nan=False) of
    {"header", "ranking", "excluded"}, with each ranked row keyed "rank" then
    _ROW_FIELDS and each excluded row keyed _ROW_FIELDS; a non-finite float
    raises ValueError.
    Only the small header goes through json.dumps.
    """
    unit = json.dumps(report.header["latency_unit"])
    header = json.dumps(report.header, indent=2, allow_nan=False).replace("\n", "\n  ")
    ranking = _json_rows(report.result.ranked, _RANKED_ROW_JSON, unit)
    excluded = _json_rows(report.result.excluded, _EXCLUDED_ROW_JSON, unit)
    return f'{{\n  "header": {header},\n  "ranking": {ranking},\n  "excluded": {excluded}\n}}'


_TEXT_COLUMNS = (
    "rank", "depth", "heads", "hidden", "inter",
    "param_size", "latency", "unit", "error", "w_coefficient", "flags",
)


def _text_row(row: CandidateReport, unit: str) -> list[str]:
    """The cells of every column but rank, in _ROW_FIELDS order."""
    m = row.metrics
    values = (*row.arch.as_tuple(), m.param_size, m.latency, unit, m.error, row.w_coefficient)
    return [*map(str, values), ",".join(sorted(row.flags)) or "-"]


def _aligned(rows: list[list[str]]) -> list[str]:
    """Right-align each column to its widest cell, two spaces apart."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def render_text(report: ExtractionReport) -> str:
    """Human-readable rendering: provenance lines, then aligned columns."""
    header = dict(report.header)
    unit = header["latency_unit"]
    lines = [f"# {header.pop('report')}"]
    lines += [f"# {key}: {value}" for key, value in header.items() if not isinstance(value, dict)]
    mp = header["maxpoint"]
    arch = ",".join(map(str, mp["arch"]))
    lines.append(f"# maxpoint: arch=<{arch}> param_size={mp['param_size']} latency={mp['latency']}")
    lines.append("# embedding: " + " ".join(f"{k}={v}" for k, v in header["embedding"].items()))

    lines += _aligned(
        [list(_TEXT_COLUMNS)]
        + [[str(row.rank), *_text_row(row, unit)] for row in report.result.ranked]
    )
    lines.append(f"# excluded by maximum-point rule: {len(report.result.excluded)}")
    if report.result.excluded:
        lines += _aligned(
            [list(_TEXT_COLUMNS[1:])] + [_text_row(row, unit) for row in report.result.excluded]
        )
    return "\n".join(lines)
