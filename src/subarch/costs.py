"""Closed-form parameter and FLOP counts, their decomposition, and independent oracles.

All counts are exact integers (Python integers never overflow). The normative
closed forms, per architecture (depth D, hidden H, intermediate I) and
embedding sizes (vocab V, typepos S), are

    params = D*(4*H^2 + 2*H*I + 9*H + I) + H^2 + (V + S + 6)*H
    flops  = D*(4*(2*H - 1)*H + H^2 + (2*H - 1)*I + 7*I^2) + (2*H - 1)*H + 3*H

Neither count depends on the head count: the attention projections are
full-width linears, and activation units are costed at zero except the
tanh-form GeLU, whose allowance is folded into the 7*I^2 term. Embedding
lookups are table reads and contribute no multiply FLOPs; the 3*H additive
term is the cost of summing the three lookup results per position.

Two oracles certify the closed forms through different code paths:
``shape_oracle_params`` enumerates every trainable tensor shape and sums the
sizes, and ``flop_oracle`` prices each encoder layer's linears individually
and sums layer by layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .space import ArchParams, EmbeddingConfig

# The type-lookup table is carried with three rows: together with the
# embedding norm pair and the pooler bias row this makes the enumerated
# shape total equal the closed form's H^2 + (V + S + 6)*H global group.
TYPE_TABLE_ROWS = 3


@dataclass(frozen=True)
class LayerShape:
    """A linear layer with `rows` outputs of `cols` inputs."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"layer shape must be at least 1x1 (got {self.rows}x{self.cols})")


def linear_flops(shape: LayerShape) -> int:
    """Add-multiply operations of a linear layer: (2*cols - 1) per output row."""
    return (2 * shape.cols - 1) * shape.rows


def _param_groups(arch: ArchParams, emb: EmbeddingConfig) -> tuple[int, int, int]:
    """The (embedding, encoder, pooler) groups of the parameter closed form."""
    d, h, i = arch.depth, arch.hidden, arch.intermediate
    return (emb.vocab + emb.typepos + 6) * h, d * (4 * h * h + 2 * h * i + 9 * h + i), h * h


def _flop_groups(arch: ArchParams) -> tuple[int, int, int]:
    """The (embedding, encoder, pooler) groups of the FLOP closed form."""
    d, h, i = arch.depth, arch.hidden, arch.intermediate
    per_layer = 4 * (2 * h - 1) * h + h * h + (2 * h - 1) * i + 7 * i * i
    return 3 * h, d * per_layer, (2 * h - 1) * h


def param_count(arch: ArchParams, emb: EmbeddingConfig) -> int:
    """Total trainable parameters from the closed form."""
    return sum(_param_groups(arch, emb))


def flop_count(arch: ArchParams) -> int:
    """Total forward-pass FLOPs per position from the closed form."""
    return sum(_flop_groups(arch))


def embedding_params(arch: ArchParams, emb: EmbeddingConfig) -> int:
    """Parameter size of the embedding lookup block: V*H + S*H + 3*H.

    This is the lookup-table figure; the embedding component reported by
    cost_breakdown groups 3*H of bias rows on top of it, per the closed form.
    """
    return (emb.vocab + emb.typepos + 3) * arch.hidden


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component split of the closed-form counts; components sum to the totals exactly."""

    embedding_params: int
    encoder_params: int
    pooler_params: int
    total_params: int
    embedding_flops: int
    encoder_flops: int
    pooler_flops: int
    total_flops: int


def cost_breakdown(arch: ArchParams, emb: EmbeddingConfig) -> CostBreakdown:
    """Split both closed forms into embedding, encoder and pooler components.

    Grouping follows the closed forms: the embedding parameter group is
    (V + S + 6)*H, the pooler group is H^2, and the encoder group is the
    depth-repeated term. The embedding FLOP group is the 3*H lookup-sum cost.
    """
    params = _param_groups(arch, emb)
    flops = _flop_groups(arch)
    # CostBreakdown's fields are the three groups then the total, params before FLOPs.
    return CostBreakdown(*params, sum(params), *flops, sum(flops))


def shape_list(arch: ArchParams, emb: EmbeddingConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every trainable tensor of the functional pipeline, as (name, shape) pairs.

    This is the auditable grouping behind the closed-form parameter count:

    * embedding: token table (V, H), position table (S, H), type table
      (TYPE_TABLE_ROWS, H), and a norm scale/shift pair. The pooler bias row
      below completes the (V + S + 6)*H embedding group of the closed form.
    * each encoder layer: query/key/value/output projections (H, H) with
      biases, a norm pair after attention, the widening linear (H, I) with
      bias, the return projection (I, H) with bias, and a second norm pair.
      Per layer this is 4*H^2 + 2*H*I + 9*H + I.
    * pooler: one (H, H) linear with bias.
    """
    h, i = arch.hidden, arch.intermediate
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("embedding.token_table", (emb.vocab, h)),
        ("embedding.position_table", (emb.typepos, h)),
        ("embedding.type_table", (TYPE_TABLE_ROWS, h)),
        ("embedding.norm.scale", (h,)),
        ("embedding.norm.shift", (h,)),
    ]
    for layer in range(arch.depth):
        base = f"encoder.{layer}"
        for proj in ("query", "key", "value", "output"):
            shapes.append((f"{base}.attention.{proj}.weight", (h, h)))
            shapes.append((f"{base}.attention.{proj}.bias", (h,)))
        shapes.append((f"{base}.attention_norm.scale", (h,)))
        shapes.append((f"{base}.attention_norm.shift", (h,)))
        shapes.append((f"{base}.intermediate.weight", (h, i)))
        shapes.append((f"{base}.intermediate.bias", (i,)))
        shapes.append((f"{base}.projection.weight", (i, h)))
        shapes.append((f"{base}.projection.bias", (h,)))
        shapes.append((f"{base}.output_norm.scale", (h,)))
        shapes.append((f"{base}.output_norm.shift", (h,)))
    shapes.append(("pooler.weight", (h, h)))
    shapes.append(("pooler.bias", (h,)))
    return shapes


def shape_oracle_params(arch: ArchParams, emb: EmbeddingConfig) -> int:
    """Parameter total obtained by enumerating tensor shapes, never the polynomial.

    Must equal param_count on every architecture; this is the
    anti-regression oracle for the closed form.
    """
    return sum(math.prod(shape) for _name, shape in shape_list(arch, emb))


def flop_oracle(arch: ArchParams) -> int:
    """FLOP total summed layer by layer, pricing each linear individually.

    Per encoder layer: the four attention projections, the H^2 attended-value
    mixing, the return projection out of the intermediate width, and the
    7*I^2 widening-plus-activation allowance. The pooler linear and the 3*H
    lookup-sum cost are added once.
    """
    h, i = arch.hidden, arch.intermediate
    full_width = LayerShape(h, h)
    return_projection = LayerShape(i, h)
    total = 0
    for _layer in range(arch.depth):
        total += 4 * linear_flops(full_width)
        total += h * h
        total += linear_flops(return_projection)
        total += 7 * i * i
    total += linear_flops(full_width)
    total += 3 * h
    return total


@dataclass(frozen=True)
class DominanceReport:
    """How strongly the encoder block dominates the input and output blocks.

    Ratios are informational: dominance is an asymptotic property, so no
    threshold judgment is attached.
    """

    breakdown: CostBreakdown
    encoder_param_ratio: float
    encoder_flop_ratio: float


def dominance_report(arch: ArchParams, emb: EmbeddingConfig) -> DominanceReport:
    """Per-component counts plus encoder/(embedding + pooler) ratios."""
    b = cost_breakdown(arch, emb)
    return DominanceReport(
        breakdown=b,
        encoder_param_ratio=b.encoder_params / (b.embedding_params + b.pooler_params),
        encoder_flop_ratio=b.encoder_flops / (b.embedding_flops + b.pooler_flops),
    )
