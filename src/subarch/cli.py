"""Command-line front door wiring the modules into reproducible runs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 failed
verification check. Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import selfcheck
from .costs import cost_breakdown, dominance_report
from .engine import (
    ANALYTIC,
    INGESTED,
    SearchConfig,
    render_json,
    render_text,
    run_extraction,
)
from .errors import ConfigError, DataError, VerificationError
from .metrics import analytic_maxpoint, ingest_measurements, maxpoint_from_measurements
from .space import ArchParams, enumerate_space, stride_subsample
from .toynet import ToyNet, ToyNetConfig, count_instantiated_params, forward_with_stats

# Emitted by `cost` for the one architecture whose closed-form count is known
# to disagree with the size reported for it elsewhere; surfaced, not reconciled.
_DISCREPANCY_ARCH = (4, 8, 1024, 768)
_DISCREPANCY_NOTE = (
    "closed-form count for <4,8,1024,768> with vocab=50265, typepos=514 is"
    " 76,161,024 parameters (embedding component 52,003,840); the size reported"
    " elsewhere for this architecture is 56.14M with a 39M embedding block."
    " The closed form is kept as normative (it reproduces the 355M reference"
    " architecture exactly); the discrepancy is surfaced rather than reconciled."
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable; dotted keys reach the error object)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subarch",
        description="Enumerate, cost and rank encoder subarchitectures against a maximum point.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_enum = sub.add_parser("enumerate", help="list the valid architectures of a search space")
    _add_common(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_cost = sub.add_parser("cost", help="parameter and FLOP breakdown for one architecture")
    _add_common(p_cost)
    p_cost.add_argument("--arch", metavar="D,A,H,I", help="architecture tuple")
    p_cost.set_defaults(func=_cmd_cost)

    p_rank = sub.add_parser("rank", help="score and rank candidates against the maximum point")
    _add_common(p_rank)
    p_rank.add_argument(
        "--measurements",
        metavar="PATH",
        help="newline-delimited JSON measurement records (switches to ingested mode)",
    )
    p_rank.add_argument("--top-k", type=int, metavar="K", help="limit the ranking to K rows")
    p_rank.set_defaults(func=_cmd_rank)

    p_toy = sub.add_parser("toy-forward", help="run the toy network on a token-id file")
    _add_common(p_toy)
    p_toy.add_argument("tokens", metavar="TOKEN_FILE", help="newline-delimited integer token ids")
    p_toy.add_argument("--arch", metavar="D,A,H,I", help="architecture tuple")
    p_toy.add_argument("--seed", type=int, help="weight seed")
    p_toy.set_defaults(func=_cmd_toy_forward)

    p_verify = sub.add_parser("verify", help="run the cross-module consistency checks")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _settings(args: argparse.Namespace) -> dict:
    settings = config_mod.load_config(args.config)
    return config_mod.apply_overrides(settings, args.overrides)


def _emit(text: str, args: argparse.Namespace) -> None:
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.output}: {exc}") from exc
    else:
        print(text)


def _arch_from(args: argparse.Namespace, settings: dict) -> ArchParams:
    """The --arch flag, else the config's 'arch' key; cost and toy-forward need one."""
    raw_arch = args.arch if args.arch is not None else settings.get("arch")
    if raw_arch is None:
        raise ConfigError(
            f"{args.subcommand} needs an architecture: pass --arch D,A,H,I or set 'arch'"
        )
    return config_mod.parse_arch(raw_arch)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    space = stride_subsample(config_mod.space_from(settings), settings["epsilon"])
    archs = enumerate_space(space)
    if args.format == "json":
        _emit(
            json.dumps(
                {"count": len(archs), "candidates": [list(a.as_tuple()) for a in archs]},
                indent=2,
            ),
            args,
        )
    else:
        lines = ["depth heads hidden intermediate"]
        lines += [" ".join(str(v) for v in a.as_tuple()) for a in archs]
        lines.append(f"count: {len(archs)}")
        _emit("\n".join(lines), args)
    return 0


def _cost_note(arch, emb) -> str | None:
    if arch.as_tuple() == _DISCREPANCY_ARCH and emb.vocab == 50265 and emb.typepos == 514:
        return _DISCREPANCY_NOTE
    return None


def _cmd_cost(args: argparse.Namespace) -> int:
    settings = _settings(args)
    arch = _arch_from(args, settings)
    emb = config_mod.embedding_from(settings)
    breakdown = cost_breakdown(arch, emb)
    dominance = dominance_report(arch, emb)
    doc = {"arch": list(arch.as_tuple()), "embedding": {"vocab": emb.vocab, "typepos": emb.typepos}}
    for kind in ("params", "flops"):
        doc[kind] = {
            part: getattr(breakdown, f"{part}_{kind}")
            for part in ("embedding", "encoder", "pooler", "total")
        }
    doc["dominance"] = {
        "encoder_param_ratio": dominance.encoder_param_ratio,
        "encoder_flop_ratio": dominance.encoder_flop_ratio,
    }
    note = _cost_note(arch, emb)
    if note:
        doc["note"] = note
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args)
        return 0
    lines = [
        f"architecture: depth={arch.depth} heads={arch.heads}"
        f" hidden={arch.hidden} intermediate={arch.intermediate}",
        f"embedding-config: vocab={emb.vocab} typepos={emb.typepos}",
    ]
    for kind in ("params", "flops"):
        lines.append(f"{kind}:")
        lines += [f"  {part:<10} {value}" for part, value in doc[kind].items()]
    lines.append(
        "dominance (encoder / embedding+pooler):"
        f" params={dominance.encoder_param_ratio!r} flops={dominance.encoder_flop_ratio!r}"
    )
    if note:
        lines.append(f"note: {note}")
    _emit("\n".join(lines), args)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.measurements is not None:
        settings["metric_mode"] = INGESTED
    if args.top_k is not None:
        settings["top_k"] = args.top_k
    mode = settings["metric_mode"]
    space = config_mod.space_from(settings)
    emb = config_mod.embedding_from(settings)
    maxpoint_arch = config_mod.parse_arch(settings["maxpoint"])

    measurements = None
    if mode == INGESTED:
        if args.measurements is None:
            raise ConfigError("ingested mode requires --measurements PATH")
        try:
            text = Path(args.measurements).read_text()
        except OSError as exc:
            raise DataError(f"cannot read measurements file {args.measurements}: {exc}") from exc
        measurements = ingest_measurements(text, emb)
        maxpoint = maxpoint_from_measurements(maxpoint_arch, measurements)
    else:
        maxpoint = analytic_maxpoint(maxpoint_arch, emb)

    run_config = SearchConfig(
        space=space,
        maxpoint=maxpoint,
        emb=emb,
        epsilon=settings["epsilon"],
        metric_mode=mode,
        error_model=config_mod.error_model_from(settings) if mode == ANALYTIC else None,
        top_k=settings["top_k"],
        n_steps=settings["n_steps"],
    )
    report = run_extraction(run_config, measurements)
    _emit(render_json(report) if args.format == "json" else render_text(report), args)
    return 0


def _read_tokens(path: str, seq: int) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read token file {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError as exc:
            raise DataError(f"token file line {lineno}: not an integer: {line!r}") from exc
    if not values or len(values) % seq != 0:
        raise DataError(
            f"token file holds {len(values)} ids, which is not a positive multiple"
            f" of the sequence length {seq}"
        )
    return np.array(values, dtype=np.int64).reshape(-1, seq)


def _cmd_toy_forward(args: argparse.Namespace) -> int:
    settings = _settings(args)
    arch = _arch_from(args, settings)
    emb = config_mod.embedding_from(settings)
    seed = args.seed if args.seed is not None else settings["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer (got {seed!r})")
    net_config = ToyNetConfig(
        arch=arch,
        emb=emb,
        dropout=float(settings["dropout"]),
        layernorm_eps=float(settings["layernorm_eps"]),
        seed=seed,
    )
    tokens = _read_tokens(args.tokens, emb.seq)
    net = ToyNet.build(net_config)
    out, stats = forward_with_stats(net, tokens)
    doc = {
        "output_shape": list(out.shape),
        "min": float(out.min()),
        "max": float(out.max()),
        "softmax_row_sum_max_deviation": stats.softmax_row_dev,
        "instantiated_params": count_instantiated_params(net),
        "seed": seed,
    }
    _emit(json.dumps(doc, indent=2), args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = selfcheck.run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failures = [r for r in results if not r.passed]
    if failures:
        raise VerificationError(failures[0].detail)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
