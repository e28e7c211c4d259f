"""Command-line front door wiring the modules into reproducible runs.

Exit codes: 0 on success, else the `exit_code` of the `subarch.errors` type
raised (2, 3 or 4). Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import TYPE_CHECKING

from . import config as config_mod
from .costs import cost_breakdown, dominance_report, param_count
from .engine import (
    SearchConfig,
    render_json,
    render_text,
    run_extraction,
)
from .errors import ConfigError, DataError, VerificationError
from .metrics import ingest_measurements
from .space import ArchParams, EmbeddingConfig, enumerate_space, stride_subsample

if TYPE_CHECKING:
    import numpy as np

# numpy loads only with the toy network: toy-forward and verify import it on
# use, and the two toy-net names this module used to export resolve on access.
_TOYNET_NAMES = ("ToyNet", "ToyNetConfig")


def __getattr__(name: str):
    if name in _TOYNET_NAMES:
        from . import toynet

        return getattr(toynet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# `cost` notes the one architecture whose closed-form count disagrees with the
# size reported for it elsewhere, at the reference vocab and typepos. The note
# computes both readings of the tuple; the discrepancy is surfaced, not reconciled.
_DISCREPANCY_ARCH = ArchParams(4, 8, 1024, 768)
_REPORTED_TOTAL, _REPORTED_EMBEDDING_M = "56.14M", 39


# The flags that set one config key each, named by it; _settings applies them after every --set.
_FLAG_KEYS = ("arch", "top_k", "seed")


def _add_common(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    """--config, --set and --output; --format too where the command renders text or JSON."""
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable; dotted keys reach the error object)",
    )
    if formats:
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
    p_cost.add_argument("--arch", metavar="D,A,H,I", help="architecture tuple (sets arch)")
    p_cost.set_defaults(func=_cmd_cost)

    p_rank = sub.add_parser("rank", help="score and rank candidates against the maximum point")
    _add_common(p_rank)
    p_rank.add_argument(
        "--measurements",
        metavar="PATH",
        help="newline-delimited JSON measurement records (switches to ingested mode)",
    )
    p_rank.add_argument("--top-k", metavar="K", help="limit the ranking to K rows (sets top_k)")
    p_rank.set_defaults(func=_cmd_rank)

    p_toy = sub.add_parser("toy-forward", help="run the toy network on a token-id file")
    _add_common(p_toy, formats=False)
    p_toy.add_argument("tokens", metavar="TOKEN_FILE", help="newline-delimited integer token ids")
    p_toy.add_argument("--arch", metavar="D,A,H,I", help="architecture tuple (sets arch)")
    p_toy.add_argument("--seed", help="weight seed (sets seed)")
    p_toy.set_defaults(func=_cmd_toy_forward)
    for p_arch in (p_cost, p_toy):  # as from Python 3.13, read '--arch -2,8,1024,768' as a value
        p_arch._negative_number_matcher = re.compile(r"-\.?\d")

    p_verify = sub.add_parser("verify", help="run the cross-module consistency checks")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _settings(args: argparse.Namespace) -> dict:
    """The config file, then each --set, then each flag of _FLAG_KEYS, so a flag wins."""
    settings = config_mod.load_config(args.config)
    flags = [f"{key}={value}" for key in _FLAG_KEYS if (value := vars(args).get(key)) is not None]
    return config_mod.apply_overrides(settings, [*args.overrides, *flags])


def _emit(text: str, args: argparse.Namespace) -> None:
    """The one writer of command output: text and a newline to --output, else stdout."""
    path = getattr(args, "output", None)
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
            out.write(text)  # two writes, as print makes: text + "\n" would copy the report
            out.write("\n")
            out.flush()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        if not path:  # the interpreter flushes stdout again at exit: point fd 1 at devnull
            with contextlib.suppress(OSError, ValueError):  # an in-process stream has no fd
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = f"file {path}" if path else "to stdout"
        raise ConfigError(f"cannot write output {where}: {exc}") from exc


def _arch_from(args: argparse.Namespace, settings: dict) -> ArchParams:
    """The 'arch' setting, which --arch also sets; cost and toy-forward need one."""
    if settings.get("arch") is None:
        raise ConfigError(
            f"{args.subcommand} needs an architecture: pass --arch D,A,H,I or set 'arch'"
        )
    return config_mod.parse_arch(settings["arch"])


def _cmd_enumerate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    space = stride_subsample(config_mod.space_from(settings), settings["epsilon"])
    archs = enumerate_space(space)
    if args.format == "json":
        doc = {"count": len(archs), "candidates": [list(a.as_tuple()) for a in archs]}
        text = json.dumps(doc, indent=2)
    else:
        lines = ["depth heads hidden intermediate"]
        lines += [" ".join(str(v) for v in a.as_tuple()) for a in archs]
        lines.append(f"count: {len(archs)}")
        text = "\n".join(lines)
    _emit(text, args)
    return 0


def _cost_text(arch: ArchParams, emb: EmbeddingConfig, fmt: str) -> str:
    dominance = dominance_report(arch, emb)
    doc = {"arch": list(arch.as_tuple()), "embedding": {"vocab": emb.vocab, "typepos": emb.typepos}}
    for kind in ("params", "flops"):
        doc[kind] = {
            part: getattr(dominance.breakdown, f"{part}_{kind}")
            for part in ("embedding", "encoder", "pooler", "total")
        }
    doc["dominance"] = {
        "encoder_param_ratio": dominance.encoder_param_ratio,
        "encoder_flop_ratio": dominance.encoder_flop_ratio,
    }
    ref = config_mod.REFERENCE_EMBEDDING
    if arch == _DISCREPANCY_ARCH and (emb.vocab, emb.typepos) == (ref.vocab, ref.typepos):
        d, a, h, i = arch.as_tuple()
        swapped = ArchParams(d, a, i, h)
        given, other = dominance.breakdown, cost_breakdown(swapped, emb)
        block = _REPORTED_EMBEDDING_M * 10**6
        nearer = abs(other.embedding_params - block) < abs(given.embedding_params - block)
        doc["note"] = (
            f"closed-form count for {arch} with vocab={emb.vocab}, typepos={emb.typepos} is"
            f" {given.total_params:,} parameters (embedding component {given.embedding_params:,});"
            f" read with hidden and intermediate swapped, {swapped} is {other.total_params:,}"
            f" (embedding component {other.embedding_params:,}). The size reported elsewhere for"
            f" this architecture is {_REPORTED_TOTAL} with a {_REPORTED_EMBEDDING_M}M embedding"
            f" block, which matches the {swapped if nearer else arch} reading. The closed form is"
            " kept as normative (it reproduces the 355M reference architecture exactly); the"
            " discrepancy is surfaced rather than reconciled."
        )
    if fmt == "json":
        return json.dumps(doc, indent=2)
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
    if "note" in doc:
        lines.append(f"note: {doc['note']}")
    return "\n".join(lines)


def _cmd_cost(args: argparse.Namespace) -> int:
    settings = _settings(args)
    arch = _arch_from(args, settings)
    emb = config_mod.embedding_from(settings)
    try:
        text = _cost_text(arch, emb, args.format)
    except (OverflowError, ValueError) as exc:
        # The counts are exact ints: a ratio of them can overflow a float, and
        # one can have more digits than int-to-str conversion writes.
        raise ConfigError(
            f"the counts of architecture {arch} are too large to report: {exc}"
        ) from exc
    _emit(text, args)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    settings = _settings(args)
    space = config_mod.space_from(settings)
    emb = config_mod.embedding_from(settings)
    maxpoint = config_mod.parse_arch(settings["maxpoint"])

    measurements = None
    if args.measurements is not None:
        if settings["error"] != config_mod.DEFAULTS["error"]:
            raise ConfigError(
                "config key 'error' is set, but ingested mode takes no error model:"
                " measurements carry their own"
            )
        text = config_mod.read_input(args.measurements, "measurements file", DataError)
        measurements = ingest_measurements(text, emb)

    run_config = SearchConfig(
        space=space,
        maxpoint=maxpoint,
        emb=emb,
        epsilon=settings["epsilon"],
        error_model=config_mod.error_model_from(settings) if measurements is None else None,
        top_k=settings["top_k"],
        n_steps=settings["n_steps"],
    )
    report = run_extraction(run_config, measurements)
    _emit(render_json(report) if args.format == "json" else render_text(report), args)
    return 0


def _read_tokens(path: str, seq: int) -> np.ndarray:
    import numpy as np

    text = config_mod.read_input(path, "token file", DataError)
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values.append(config_mod.int_from_text(line))
        except ValueError as exc:
            raise DataError(f"token file line {lineno}: not an integer: {line!r}") from exc
    if not values or len(values) % seq != 0:
        raise DataError(
            f"token file holds {len(values)} ids, which is not a positive multiple"
            f" of the sequence length {seq}"
        )
    try:
        return np.array(values, dtype=np.int64).reshape(-1, seq)
    except OverflowError as exc:
        raise DataError(f"token file {path}: a token id does not fit in int64: {exc}") from exc


def _byte_size(n_bytes: int) -> str:
    """n_bytes in bytes and GiB, or only a bound past 2**1000, where a float overflows."""
    if n_bytes.bit_length() > 1000:
        return "more than 2**1000 bytes"
    return f"{n_bytes:,} bytes ({n_bytes / 2**30:,.1f} GiB)"


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _cmd_toy_forward(args: argparse.Namespace) -> int:
    import numpy as np

    from .toynet import (
        ToyNet,
        ToyNetConfig,
        check_tokens,
        count_instantiated_params,
        forward_with_stats,
        streamed_forward_bytes,
    )

    settings = _settings(args)
    arch = _arch_from(args, settings)
    emb = config_mod.embedding_from(settings)
    net_config = ToyNetConfig(
        arch=arch,
        emb=emb,
        dropout=settings["dropout"],
        layernorm_eps=settings["layernorm_eps"],
        seed=settings["seed"],
    )
    # A bad token fails before any weight is drawn.
    tokens = check_tokens(_read_tokens(args.tokens, emb.seq), emb)
    does_not_fit = f"toy network {arch} does not fit in memory"
    # The forward draws only the token-table rows read: the count less the rows left out.
    read = np.unique(tokens).size
    weight_size = _byte_size((param_count(arch, emb) - (emb.vocab - read) * arch.hidden) * 8)
    try:
        net = ToyNet.build(net_config, streamed=True)
        # The streamed forward holds one group of weights at a time: the embedding,
        # half an encoder layer or the pooler. A forward that would hold more than
        # physical memory fails before its first allocation, not after its last.
        held_bytes = streamed_forward_bytes(net_config, *tokens.shape)
        physical = _physical_memory()
        if held_bytes > physical:
            raise ConfigError(
                f"{does_not_fit}: a streamed forward holds {_byte_size(held_bytes)} at once,"
                f" more than the {_byte_size(physical)} of physical memory (its float64"
                f" weights take {weight_size} in all)"
            )
        out, stats = forward_with_stats(net, tokens)
    except (MemoryError, ValueError) as exc:  # ValueError: numpy refuses a size past its limits
        weights = f"its float64 weights alone take {weight_size}"
        raise ConfigError(f"{does_not_fit}: {weights}") from exc
    doc = {
        "output_shape": list(out.shape),
        "min": float(out.min()),
        "max": float(out.max()),
        "softmax_row_sum_max_deviation": stats.softmax_row_dev,
        "instantiated_params": count_instantiated_params(net),
        "seed": net_config.seed,
    }
    _emit(json.dumps(doc, indent=2), args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import selfcheck

    results = selfcheck.run_all()
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    _emit("\n".join(lines), args)
    failures = [r for r in results if not r.passed]
    if failures:
        raise VerificationError(failures[0].detail)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, VerificationError) as exc:
        try:
            print(f"{exc.label}: {exc}", file=sys.stderr)
        except (OSError, ValueError):  # the exit flush must not fail too: fd 2 to devnull
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
