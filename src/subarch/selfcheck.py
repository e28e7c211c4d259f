"""Cross-module equivalence checks behind the `verify` subcommand.

Every check returns a CheckResult; the first counterexample found is named in
the detail string. Formula lookups go through the module objects so a
perturbed formula (fault injection in tests) is caught and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs, engine, metrics, toynet
from .config import REFERENCE_EMBEDDING, REFERENCE_MAXPOINT, REFERENCE_SPACE
from .space import ArchParams, EmbeddingConfig, SearchSpace, enumerate_space, validate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Small valid configurations exercising different depths, head counts and widths.
TOY_CONFIGS: tuple[tuple[ArchParams, EmbeddingConfig], ...] = (
    (ArchParams(2, 1, 1, 1), EmbeddingConfig(1, 1, 1, 1)),
    (ArchParams(2, 2, 8, 16), EmbeddingConfig(32, 16, 8, 1)),
    (ArchParams(2, 2, 4, 8), EmbeddingConfig(8, 4, 2, 1)),
    (ArchParams(4, 4, 8, 4), EmbeddingConfig(16, 8, 4, 2)),
    (ArchParams(2, 4, 16, 32), EmbeddingConfig(24, 12, 6, 1)),
    (ArchParams(6, 2, 6, 24), EmbeddingConfig(10, 6, 3, 1)),
    (ArchParams(4, 1, 3, 5), EmbeddingConfig(7, 5, 2, 1)),
    (ArchParams(2, 3, 9, 2), EmbeddingConfig(11, 9, 4, 1)),
    (ArchParams(8, 2, 2, 2), EmbeddingConfig(5, 3, 2, 1)),
    (ArchParams(2, 8, 16, 64), EmbeddingConfig(40, 20, 10, 2)),
    (ArchParams(4, 2, 10, 7), EmbeddingConfig(13, 11, 5, 1)),
)


def check_param_formula_vs_shape_oracle() -> CheckResult:
    name = "parameter formula vs shape oracle"
    archs = enumerate_space(REFERENCE_SPACE)
    cases = [(arch, REFERENCE_EMBEDDING) for arch in archs] + list(TOY_CONFIGS)
    for arch, emb in cases:
        expected = costs.shape_oracle_params(arch, emb)
        got = costs.param_count(arch, emb)
        if got != expected:
            return CheckResult(
                name, False, f"counterexample {arch}: formula {got} != shape oracle {expected}"
            )
    return CheckResult(name, True, f"exact agreement on {len(cases)} configurations")


def check_flop_formula_vs_layer_oracle() -> CheckResult:
    name = "FLOP formula vs per-layer oracle"
    archs = enumerate_space(REFERENCE_SPACE) + [arch for arch, _ in TOY_CONFIGS]
    for arch in archs:
        expected = costs.flop_oracle(arch)
        got = costs.flop_count(arch)
        if got != expected:
            return CheckResult(
                name, False, f"counterexample {arch}: formula {got} != layer oracle {expected}"
            )
    return CheckResult(name, True, f"exact agreement on {len(archs)} configurations")


def check_head_invariance() -> CheckResult:
    name = "head-count invariance of both counts"
    for arch in enumerate_space(REFERENCE_SPACE):
        d, _, h, i = arch.as_tuple()
        for alt_heads in (4, 8, 16):
            if alt_heads == arch.heads or validate(d, alt_heads, h, i):
                continue
            alt = ArchParams(d, alt_heads, h, i)
            if costs.param_count(arch, REFERENCE_EMBEDDING) != costs.param_count(
                alt, REFERENCE_EMBEDDING
            ):
                return CheckResult(name, False, f"parameter count differs between {arch} and {alt}")
            if costs.flop_count(arch) != costs.flop_count(alt):
                return CheckResult(name, False, f"FLOP count differs between {arch} and {alt}")
            if costs.flop_oracle(arch) != costs.flop_oracle(alt):
                return CheckResult(name, False, f"FLOP oracle differs between {arch} and {alt}")
    return CheckResult(name, True, "counts unchanged under head-count swaps across the grid")


def _random_ranking_instance(rng: np.random.Generator):
    """One synthetic run: a tiny space, and random metrics beside a dominating maximum point's."""
    space = SearchSpace(
        depths=tuple(sorted(rng.choice(np.arange(2, 13, 2), size=2, replace=False).tolist())),
        heads=(1, 2),
        hiddens=tuple(sorted(rng.choice(np.arange(2, 17, 2), size=2, replace=False).tolist())),
        intermediates=tuple(sorted(rng.choice(np.arange(1, 9), size=2, replace=False).tolist())),
    )
    archs = enumerate_space(space)
    metric_map = {REFERENCE_MAXPOINT: metrics.MetricTriple(200.0, 200.0, 1.0)}
    for arch in archs:
        metric_map[arch] = metrics.MetricTriple(
            param_size=float(rng.uniform(1.0, 100.0)),
            latency=float(rng.uniform(1.0, 100.0)),
            error=float(rng.uniform(0.05, 5.0)),
        )
    config = engine.SearchConfig(
        space=space,
        maxpoint=REFERENCE_MAXPOINT,
        emb=REFERENCE_EMBEDDING,
        epsilon=1,
    )
    return config, metric_map


def _selection_sort_oracle(rows):
    """Independent ordering: repeated extraction of the best (w, arch) row."""
    remaining = list(rows)
    ordered = []
    while remaining:
        best = remaining[0]
        for row in remaining[1:]:
            if row[0] > best[0] or (row[0] == best[0] and row[1] < best[1]):
                best = row
        ordered.append(best)
        remaining.remove(best)
    return ordered


def check_ranking_vs_sort_oracle(sets: int = 200, seed: int = 20240) -> CheckResult:
    name = "ranking vs independent sort oracle"
    rng = np.random.default_rng(seed)
    for iteration in range(sets):
        config, metric_map = _random_ranking_instance(rng)
        result = engine.rank_candidates(config, metric_map)
        t = metric_map[config.maxpoint]
        rows = []
        for arch in config.candidates:
            triple = metric_map[arch]
            if triple.param_size > t.param_size or triple.latency > t.latency:
                continue
            w = (t.param_size - triple.param_size) * (t.latency - triple.latency) / (
                t.param_size * t.latency * triple.error
            )
            rows.append((w, arch))
        expected = [arch for _w, arch in _selection_sort_oracle(rows)]
        got = [row.arch for row in result.ranked]
        if got != expected:
            return CheckResult(name, False, f"set {iteration}: engine order {got[:4]}... != oracle")
        if [row.rank for row in result.ranked] != list(range(1, len(got) + 1)):
            return CheckResult(name, False, f"set {iteration}: ranks are not contiguous from 1")
    return CheckResult(name, True, f"identical orderings on {sets} random metric sets")


def check_w_properties(seed: int = 71) -> CheckResult:
    name = "w-coefficient properties"
    rng = np.random.default_rng(seed)
    t = metrics.analytic_metrics(REFERENCE_MAXPOINT, REFERENCE_EMBEDDING, lambda _size: 1.0)
    maxpoint = metrics.MaxPoint(REFERENCE_MAXPOINT, t)
    if engine.w_coefficient(t, maxpoint) != 0.0:
        return CheckResult(name, False, "w(T, T) != 0")
    for trial in range(200):
        p = float(rng.uniform(1.0, t.param_size))
        lat = float(rng.uniform(1.0, t.latency))
        err = float(rng.uniform(0.01, 10.0))
        triple = metrics.MetricTriple(p, lat, err)
        w = engine.w_coefficient(triple, maxpoint)
        if p < t.param_size and lat < t.latency and not w > 0:
            return CheckResult(
                name, False, f"trial {trial}: w not positive for sub-maximal candidate"
            )
        scale = float(rng.uniform(0.1, 10.0))
        scaled = engine.w_coefficient(
            metrics.MetricTriple(p * scale, lat, err),
            metrics.MaxPoint(
                maxpoint.arch,
                metrics.MetricTriple(t.param_size * scale, t.latency, 1.0),
            ),
        )
        if abs(scaled - w) > 1e-9 * max(1.0, abs(w)):
            return CheckResult(
                name, False, f"trial {trial}: not invariant under parameter rescaling"
            )
        error_scale = float(rng.uniform(0.1, 10.0))
        rescaled = engine.w_coefficient(metrics.MetricTriple(p, lat, err * error_scale), maxpoint)
        if abs(rescaled * error_scale - w) > 1e-9 * max(1.0, abs(w)):
            return CheckResult(name, False, f"trial {trial}: error rescaling does not divide w")
    return CheckResult(name, True, "zero at the maximum point, scale invariances, positivity")


def check_toynet_counts() -> CheckResult:
    name = "instantiated weights vs closed-form count"
    for arch, emb in TOY_CONFIGS:
        net = toynet.ToyNet.build(toynet.ToyNetConfig(arch=arch, emb=emb))
        instantiated = toynet.count_instantiated_params(net)
        oracle = costs.shape_oracle_params(arch, emb)
        formula = costs.param_count(arch, emb)
        if not (instantiated == oracle == formula):
            return CheckResult(
                name, False, f"counterexample {arch}: instantiated {instantiated},"
                f" oracle {oracle}, formula {formula}",
            )
    return CheckResult(name, True, f"equality on {len(TOY_CONFIGS)} toy configurations")


def check_toynet_invariants() -> CheckResult:
    name = "toy-net numeric invariants"
    if toynet.gelu(0.0) != 0.0:
        return CheckResult(name, False, "gelu(0) != 0")
    for x in (8.0, 10.0):
        if abs(toynet.gelu(x) - x) > 1e-6 or abs(toynet.gelu(-x)) > 1e-6:
            return CheckResult(name, False, f"gelu saturation violated at |x| = {x}")
    grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
    slopes = np.diff(toynet.gelu(grid)) / 1e-4
    if np.max(np.abs(np.diff(slopes))) > 1e-3:
        return CheckResult(name, False, "gelu finite-difference derivative jumps above 1e-3")

    rng = np.random.default_rng(7)
    rows = rng.normal(size=(64, 16))
    ones, zeros = np.ones(16), np.zeros(16)
    normalized = toynet.layer_norm(rows, ones, zeros, eps=1e-5)
    if np.max(np.abs(normalized.mean(axis=-1))) > 1e-6:
        return CheckResult(name, False, "layer-norm pre-affine mean above 1e-6")
    if np.max(np.abs(normalized.var(axis=-1) - 1.0)) > 1e-3:
        return CheckResult(name, False, "layer-norm pre-affine variance off 1 by more than 1e-3")

    cfg = toynet.ToyNetConfig(
        arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 2), seed=11
    )
    net = toynet.ToyNet.build(cfg)
    tokens = rng.integers(0, 32, size=(2, 8))
    out, stats = toynet.forward_with_stats(net, tokens)
    if stats.softmax_row_dev > 1e-9:
        return CheckResult(name, False, f"softmax rows deviate from 1 by {stats.softmax_row_dev}")
    if out.shape != (2, 8, 8) or np.max(np.abs(out)) > 1.0:
        return CheckResult(name, False, "forward output out of [-1, 1] or mis-shaped")
    if not np.array_equal(out, toynet.forward(net, tokens)):
        return CheckResult(name, False, "repeated forward passes are not bitwise identical")
    drawn = toynet.ToyNet.build(cfg, tokens=tokens, streamed=True)
    if toynet.forward(drawn, tokens).tobytes() != out.tobytes():
        return CheckResult(
            name, False, "a streamed net of only the token rows read gives another output"
        )

    for classes in (2, 10, 100):
        logits = np.zeros((3, classes))
        value = toynet.kd_loss(logits, logits, mlm_loss=0.0, weight=0.5, temperature=2.0)
        if abs(value - 0.5 * np.log(classes)) > 1e-9:
            return CheckResult(name, False, f"uniform-identical kd loss != 0.5*ln({classes})")
    return CheckResult(name, True, "gelu, layer norm, softmax, bounds, determinism, kd loss")


def run_all() -> list[CheckResult]:
    """Every cross-module check, in a fixed order."""
    return [
        check_param_formula_vs_shape_oracle(),
        check_flop_formula_vs_layer_oracle(),
        check_head_invariance(),
        check_w_properties(),
        check_ranking_vs_sort_oracle(),
        check_toynet_counts(),
        check_toynet_invariants(),
    ]
