"""Output checks behind the benchmark's failed count. None of them runs inside a timed region.

Each check takes the exact stdout text of one operation and returns a
Verdict: the problems found (empty when the output is correct) and the
ranked and excluded counts the output reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from workloads import MAXPOINT_PARAMS, TOY_ARCH, TOY_SEQ, TOY_SEQUENCES

SOFTMAX_DEVIATION_LIMIT = 1e-9


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    ranked: int = 0
    excluded: int = 0


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""

    def reject(token: str):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _row_problem(row: dict, position: int, previous: dict | None, mp_params, mp_latency) -> str:
    """What is wrong with one ranked row, or an empty string."""
    p, latency = row["param_size"], row["latency"]
    # Same order of int and float operations as engine.w_coefficient.
    w = ((mp_params - p) * (mp_latency - latency)) / (mp_params * mp_latency * row["error"])
    if row["rank"] != position:
        return f"rank {row['rank']}, ranks must run 1, 2, ..."
    if w != row["w_coefficient"]:
        return f"w {row['w_coefficient']!r} != recomputed {w!r}"
    if row["flags"] or p > mp_params or latency > mp_latency:
        return "exceeds the maximum point but is ranked"
    if previous is not None:
        before = previous["w_coefficient"]
        if w > before or (w == before and row["arch"] <= previous["arch"]):
            return f"out of order after {previous['arch']}"
    return ""


def check_rank_json(text: str, candidates: int) -> Verdict:
    """`rank --format json` output of a full ranking of `candidates` candidates."""
    try:
        doc = strict_loads(text)
        header = doc["header"]
        verdict = Verdict(ranked=header["candidates_ranked"],
                          excluded=header["candidates_excluded"])
        problems = verdict.problems
        mp_params = header["maxpoint"]["param_size"]
        mp_latency = header["maxpoint"]["latency"]
        if mp_params != MAXPOINT_PARAMS:
            problems.append(f"maximum point param_size {mp_params} != {MAXPOINT_PARAMS}")
        evaluated = header["candidates_evaluated"]
        if evaluated != candidates:
            problems.append(f"candidates_evaluated {evaluated} != {candidates}")
        # The maximum point is the largest value on every axis, so nothing may exceed it.
        if verdict.excluded != 0 or doc["excluded"]:
            problems.append(f"{verdict.excluded} candidates excluded, expected none")
        if verdict.ranked + verdict.excluded != evaluated:
            problems.append(
                f"ranked {verdict.ranked} + excluded {verdict.excluded} != evaluated {evaluated}"
            )
        if len(doc["ranking"]) != verdict.ranked:
            problems.append(f"{len(doc['ranking'])} rows ranked, header says {verdict.ranked}")

        previous = None
        for position, row in enumerate(doc["ranking"], start=1):
            problem = _row_problem(row, position, previous, mp_params, mp_latency)
            if problem:
                problems.append(f"ranked row {position} {row['arch']}: {problem}")
                break
            previous = row
        return verdict
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict([f"unreadable rank JSON: {exc!r}"])


def check_toy(text: str, expected_params: int, seed: int) -> Verdict:
    """`toy-forward` JSON output."""
    verdict = Verdict()
    problems = verdict.problems
    try:
        doc = strict_loads(text)
        shape = [TOY_SEQUENCES, TOY_SEQ, TOY_ARCH[2]]
        if doc["output_shape"] != shape:
            problems.append(f"output shape {doc['output_shape']} != {shape}")
        if not -1.0 <= doc["min"] <= doc["max"] <= 1.0:
            problems.append(f"output range [{doc['min']}, {doc['max']}] leaves [-1, 1]")
        if doc["instantiated_params"] != expected_params:
            problems.append(
                f"instantiated_params {doc['instantiated_params']} != param_count {expected_params}"
            )
        if not doc["softmax_row_sum_max_deviation"] <= SOFTMAX_DEVIATION_LIMIT:
            problems.append(
                f"softmax deviation {doc['softmax_row_sum_max_deviation']} > {SOFTMAX_DEVIATION_LIMIT}"
            )
        if doc["seed"] != seed:
            problems.append(f"seed {doc['seed']} != {seed}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable toy-forward JSON: {exc!r}")
    return verdict
