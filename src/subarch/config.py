"""The JSON config file shared by every subcommand: schema, defaults, overrides.

Schema (all keys optional unless a subcommand needs them; unknown keys are
rejected):

    {
      "depths": [2, 4, ...],          search-space axes (enumerate / rank)
      "heads": [...],
      "hiddens": [...],
      "intermediates": [...],
      "epsilon": 1,                   per-axis stride; 1 = exhaustive
      "vocab": 50265,                 embedding sizes and input geometry
      "typepos": 514,
      "seq": 512,
      "batch": 1024,
      "metric_mode": "analytic",      or "ingested"
      "top_k": null,                  null = full ranking
      "n_steps": 3,                   provenance only
      "maxpoint": [24, 16, 1024, 4096],
      "error": {"mode": "constant", "value": 1.0},
                                      or {"mode": "synthetic", "c0": ..., "c1": ...}
      "arch": [4, 8, 1024, 768],      single architecture (cost / toy-forward)
      "seed": 0,                      toy-forward
      "dropout": 0.0,
      "layernorm_eps": 1e-5
    }

Command-line flags override file values, which override the defaults below.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, SubarchError
from .metrics import ConstantErrorModel, ErrorModel, SyntheticErrorModel, finite_number
from .space import ArchParams, EmbeddingConfig, SearchSpace, arch_from_ints

DEFAULTS: dict = {
    "epsilon": 2,
    "vocab": 50265,
    "typepos": 514,
    "seq": 512,
    "batch": 1024,
    "metric_mode": "analytic",
    "top_k": None,
    "n_steps": 3,
    "maxpoint": [24, 16, 1024, 4096],
    "error": {"mode": "constant", "value": 1.0},
    "seed": 0,
    "dropout": 0.0,
    "layernorm_eps": 1e-5,
}

_AXIS_KEYS = tuple(f.name for f in fields(SearchSpace))
KNOWN_KEYS = frozenset(DEFAULTS) | frozenset(_AXIS_KEYS) | {"arch"}

_ERROR_KEYS = {"constant": {"mode", "value"}, "synthetic": {"mode", "c0", "c1"}}

# Demo grid used by the bundled self-checks, the example config and the docs:
# 300 of its 360 points are valid.
REFERENCE_SPACE = SearchSpace(
    depths=(2, 4, 6, 8, 10, 12),
    heads=(4, 8, 12, 16),
    hiddens=(512, 768, 1024),
    intermediates=(256, 512, 768, 1024, 3072),
)
REFERENCE_EMBEDDING = EmbeddingConfig(vocab=50265, typepos=514, seq=512, batch=1024)


def read_input(path: str | Path, what: str, error: type[SubarchError]) -> str:
    """The text of the input file at `path`; a failed read raises `error` naming the file."""
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or text not UTF-8
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path | None) -> dict:
    """Read and validate a config file; returns defaults when no path is given."""
    settings = dict(DEFAULTS)
    if path is None:
        return settings
    text = read_input(path, "config file", ConfigError)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    settings.update(raw)
    return settings


def apply_overrides(settings: dict, pairs: Iterable[str]) -> dict:
    """Apply key=value overrides; dotted keys reach into the error object.

    Values parse as JSON where possible ("[2,4]", "null", "0.5") and fall
    back to plain strings ("analytic"). Switching error.mode drops the keys
    of the previous mode, regardless of override order.
    """
    out = dict(settings)
    parsed = []
    for pair in pairs:
        key, sep, raw_value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        try:
            value = json.loads(raw_value)
        except ValueError:  # not JSON, or an integer too long to parse; the key's check names it
            value = raw_value
        except RecursionError as exc:  # named here: the value is too long to echo
            raise ConfigError(f"override {key!r} is nested too deeply to parse") from exc
        head, dot, rest = key.partition(".")
        if dot and head != "error":
            raise ConfigError(f"unknown override key {key!r}")
        if not dot and head not in KNOWN_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        parsed.append((head, rest if dot else None, value))
    for head, rest, value in parsed:
        if head == "error" and rest == "mode":
            current = out.get("error")
            if not isinstance(current, dict) or current.get("mode") != value:
                out["error"] = {"mode": value}
    for head, rest, value in parsed:
        if rest is None:
            out[head] = value
        elif rest != "mode":
            current = out.get("error")
            error_obj = dict(current) if isinstance(current, dict) else {}
            error_obj[rest] = value
            out["error"] = error_obj
    return out


# An integer in text: an optional '-' then ASCII digits. int() alone also
# reads '1_0', '+1' and other scripts' digits, such as '٣'.
_INT_TEXT = re.compile(r"-?[0-9]+")


def int_from_text(text: str) -> int:
    """text without surrounding whitespace as an int; ValueError unless it matches _INT_TEXT."""
    if not _INT_TEXT.fullmatch(text := text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)  # also ValueError past 4,300 digits


def parse_arch(value) -> ArchParams:
    """Accept [D,A,H,I] lists (config) or 'D,A,H,I' strings (flags)."""
    if isinstance(value, str):
        parts = value.split(",")
        try:
            value = [int_from_text(part) for part in parts]
        except ValueError as exc:
            raise ConfigError(f"architecture {value!r} must be four comma-separated integers") from exc
    return arch_from_ints(value, "architecture", ConfigError)


def space_from(settings: dict) -> SearchSpace:
    missing = [key for key in _AXIS_KEYS if key not in settings]
    if missing:
        raise ConfigError(
            "config must define the search-space axes: missing " + ", ".join(missing)
        )
    axes = {}
    for key in _AXIS_KEYS:
        value = settings[key]
        if not isinstance(value, list):
            raise ConfigError(f"config key '{key}' must be an array of integers")
        axes[key] = tuple(value)
    return SearchSpace(**axes)


def embedding_from(settings: dict) -> EmbeddingConfig:
    return EmbeddingConfig(**{f.name: settings[f.name] for f in fields(EmbeddingConfig)})


def error_model_from(settings: dict) -> ErrorModel:
    obj = settings["error"]
    if not isinstance(obj, dict) or "mode" not in obj:
        raise ConfigError("config key 'error' must be an object with a 'mode'")
    mode = obj["mode"]
    allowed = _ERROR_KEYS.get(mode) if isinstance(mode, str) else None
    if allowed is None:
        raise ConfigError(f"error mode must be 'constant' or 'synthetic' (got {mode!r})")
    unknown = sorted(set(obj) - allowed)
    missing = sorted(allowed - set(obj))
    if unknown or missing:
        raise ConfigError(
            f"error object for mode {mode!r} must have keys {sorted(allowed)}"
            f" (missing {missing}, unknown {unknown})"
        )
    if mode == "constant":
        return ConstantErrorModel(value=finite_number(obj["value"], "error.value"))
    return SyntheticErrorModel(
        c0=finite_number(obj["c0"], "error.c0"), c1=finite_number(obj["c1"], "error.c1")
    )
