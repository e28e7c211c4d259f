"""Desk-scale numeric implementation of the encoder pipeline.

Forward-only: an embedding lookup with layer norm, a stack of encoder blocks
(multi-head attention, widen/narrow feed-forward with GeLU, residuals and a
norm after each half), and a tanh pooler applied at every position. The
network exists to witness the cost formulas numerically, so evaluation is
deterministic: dropout slots are run as the identity and a fixed seed fully
determines the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import TYPE_TABLE_ROWS
from .errors import ConfigError, DataError
from .metrics import finite_number
from .space import ArchParams, EmbeddingConfig, require_valid

GELU_CUBIC = 0.44715
_GELU_SCALE = math.sqrt(2.0 / math.pi)
# Elements per gelu block: whole rows of the last axis, one row at least.
_GELU_BLOCK = 1 << 15


def gelu(x, out=None):
    """tanh-form GeLU approximation; accepts scalars or arrays.

    A float array is computed over blocks of whole rows of the last axis, with
    the same ufuncs on the same operands as the expression, so the result is
    bitwise equal and only one block's cube is held at a time. Without `out`
    the result is a fresh array and `x` is never written; `out` (a C-contiguous
    array of x's shape and dtype, `x` itself included) receives the result and
    is returned. Each block of `x` is read before the same block of `out` is
    written, so `gelu(x, out=x)` is safe.
    """
    if not (isinstance(x, np.ndarray) and x.ndim and x.dtype.kind == "f"):
        return 0.5 * x * (1.0 + np.tanh(_GELU_SCALE * (x + GELU_CUBIC * x**3)))
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif out.shape != x.shape or out.dtype != x.dtype or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the input's shape and dtype")
    width = x.shape[-1]
    rows = math.prod(x.shape[:-1])
    x_rows = x.reshape(rows, width)
    out_rows = out.reshape(rows, width)
    step = max(1, _GELU_BLOCK // max(width, 1))
    scratch = np.empty((min(step, rows), width), dtype=x.dtype)
    for start in range(0, rows, step):
        xb = x_rows[start : start + step]
        ob = out_rows[start : start + step]
        inner = scratch[: len(xb)]
        np.power(xb, 3, out=inner)
        inner *= GELU_CUBIC
        inner += xb
        inner *= _GELU_SCALE
        np.tanh(inner, out=inner)
        inner += 1.0
        np.multiply(0.5, xb, out=ob)
        ob *= inner
    return out


def softmax(x, axis: int = -1):
    """Numerically stable softmax; rows sum to 1 and entries lie in (0, 1].

    The exponent and the division reuse the buffer of shifted values (a
    float one); the input is never written.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    weights = np.exp(shifted, out=shifted if shifted.dtype.kind == "f" else None)
    weights /= np.sum(weights, axis=axis, keepdims=True)
    return weights


def layer_norm(x, scale, shift, eps: float = 1e-5):
    """Normalize along the last axis to zero mean and (near) unit variance, then affine.

    Uses population variance; eps guards the zero-variance case, in which the
    pre-affine output is exactly zero. The pre-affine variance is
    var / (var + eps), so it approaches 1 only for inputs whose variance is
    large against eps.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive (got {eps})")
    x = np.asarray(x, dtype=float)
    scale = np.asarray(scale, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if x.shape[-1] < 1 or scale.shape != (x.shape[-1],) or shift.shape != (x.shape[-1],):
        raise ValueError("scale and shift must match the last axis of x")
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    out = x - mean
    out /= np.sqrt(var + eps)
    out *= scale
    out += shift
    return out


class ForwardStats:
    """Numeric diagnostics collected during a forward pass."""

    def __init__(self) -> None:
        self.softmax_row_dev = 0.0

    def record_softmax(self, probs: np.ndarray) -> None:
        dev = float(np.max(np.abs(probs.sum(axis=-1) - 1.0)))
        self.softmax_row_dev = max(self.softmax_row_dev, dev)


def attention(x, query, key, value, heads: int, stats: ForwardStats | None = None):
    """Multi-head scaled dot-product attention over a (..., sequence, hidden) input.

    query/key/value are (weight, bias) pairs of full-width projections; the
    softmax runs per head over blocks of width hidden/heads, with scores
    divided by sqrt(hidden/heads). Scores are formed one (sequence, head)
    block at a time, so only one sequence-by-sequence matrix is live; each
    block makes the same 2-D matmul calls, with the same strides, as a
    batched product over all heads.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError(f"attention needs a (..., sequence, hidden) input (got shape {x.shape})")
    hidden = x.shape[-1]
    if heads < 1 or hidden % heads != 0:
        raise ValueError(f"hidden ({hidden}) must be divisible by heads ({heads})")
    head_dim = hidden // heads

    def project(pair):
        weight, bias = pair
        out = x @ weight
        out += bias
        # (..., seq, hidden) -> (..., seq, heads, head_dim), a view
        return out.reshape(*out.shape[:-1], heads, head_dim)

    q = project(query)
    k = project(key)
    v = project(value)
    attended = np.empty_like(q)
    for idx in np.ndindex(x.shape[:-2]):
        for h in range(heads):
            block = q[idx][:, h] @ k[idx][:, h].T
            block /= math.sqrt(head_dim)
            # Rebinding frees the raw scores once the probabilities exist.
            block = softmax(block, axis=-1)
            if stats is not None:
                stats.record_softmax(block)
            np.matmul(block, v[idx][:, h], out=attended[idx][:, h])
    return attended.reshape(x.shape)


@dataclass(frozen=True)
class ToyNetConfig:
    """Architecture, embedding sizes and evaluation knobs for one toy network, all checked here."""

    arch: ArchParams
    emb: EmbeddingConfig
    dropout: float = 0.0
    layernorm_eps: float = 1e-5
    seed: int = 0

    def __post_init__(self) -> None:
        require_valid(self.arch)
        if self.emb.seq > self.emb.typepos:
            raise ConfigError(
                f"sequence length ({self.emb.seq}) exceeds the position table size"
                f" ({self.emb.typepos})"
            )
        for name in ("dropout", "layernorm_eps"):  # frozen: set the checked float directly
            object.__setattr__(self, name, finite_number(getattr(self, name), name))
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1) (got {self.dropout})")
        if not self.layernorm_eps > 0:
            raise ConfigError(f"layernorm_eps must be positive (got {self.layernorm_eps})")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer (got {self.seed!r})")


class ToyNet:
    """One instantiated network: a config plus named weight arrays.

    Immutable after construction; forward passes never mutate it, so a net is
    safe to share across threads.
    """

    def __init__(self, config: ToyNetConfig, weights: dict[str, np.ndarray]) -> None:
        self.config = config
        self.weights = dict(weights)

    @classmethod
    def build(cls, config: ToyNetConfig) -> "ToyNet":
        """Instantiate all weights from a seeded uniform(-1/2, 1/2) draw.

        Creation order is fixed, so a seed fully determines every array.
        """
        rng = np.random.default_rng(config.seed)
        weights: dict[str, np.ndarray] = {}

        def add(name: str, *shape: int) -> None:
            weights[name] = rng.uniform(-0.5, 0.5, size=shape)

        hidden, inter = config.arch.hidden, config.arch.intermediate
        add("embedding.token_table", config.emb.vocab, hidden)
        add("embedding.position_table", config.emb.typepos, hidden)
        add("embedding.type_table", TYPE_TABLE_ROWS, hidden)
        add("embedding.norm.scale", hidden)
        add("embedding.norm.shift", hidden)
        for layer in range(config.arch.depth):
            base = f"encoder.{layer}"
            for proj in ("query", "key", "value", "output"):
                add(f"{base}.attention.{proj}.weight", hidden, hidden)
                add(f"{base}.attention.{proj}.bias", hidden)
            add(f"{base}.attention_norm.scale", hidden)
            add(f"{base}.attention_norm.shift", hidden)
            add(f"{base}.intermediate.weight", hidden, inter)
            add(f"{base}.intermediate.bias", inter)
            add(f"{base}.projection.weight", inter, hidden)
            add(f"{base}.projection.bias", hidden)
            add(f"{base}.output_norm.scale", hidden)
            add(f"{base}.output_norm.shift", hidden)
        add("pooler.weight", hidden, hidden)
        add("pooler.bias", hidden)
        return cls(config, weights)


def count_instantiated_params(net: ToyNet) -> int:
    """Total elements across all weight arrays; matches the closed-form count."""
    return int(sum(array.size for array in net.weights.values()))


def _encoder_block(x, weights, base: str, heads: int, eps: float, stats):
    # One working name, rebound at each step, so every activation is freed
    # once the next step has read it; the in-place adds are the same np.add
    # calls on the same operands as the expression form.
    h = attention(
        x,
        (weights[f"{base}.attention.query.weight"], weights[f"{base}.attention.query.bias"]),
        (weights[f"{base}.attention.key.weight"], weights[f"{base}.attention.key.bias"]),
        (weights[f"{base}.attention.value.weight"], weights[f"{base}.attention.value.bias"]),
        heads,
        stats,
    )
    h = h @ weights[f"{base}.attention.output.weight"]
    h += weights[f"{base}.attention.output.bias"]
    h += x
    mixed = layer_norm(
        h, weights[f"{base}.attention_norm.scale"], weights[f"{base}.attention_norm.shift"], eps
    )
    h = mixed @ weights[f"{base}.intermediate.weight"]
    h += weights[f"{base}.intermediate.bias"]
    h = gelu(h, out=h)
    h = h @ weights[f"{base}.projection.weight"]
    h += weights[f"{base}.projection.bias"]
    h += mixed
    return layer_norm(
        h, weights[f"{base}.output_norm.scale"], weights[f"{base}.output_norm.shift"], eps
    )


def forward(net: ToyNet, tokens, stats: ForwardStats | None = None) -> np.ndarray:
    """Run the pipeline on integer token ids of shape (batch,
    sequence); returns (batch, sequence, hidden) with every value in [-1, 1].

    Dropout slots run as the identity, so repeated calls on the same net and
    input are bitwise identical.
    """
    cfg = net.config
    weights = net.weights
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise DataError(f"token input must be a (batch, sequence) matrix (got shape {tokens.shape})")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise DataError(f"token ids must be integers (got dtype {tokens.dtype})")
    _batch, seq = tokens.shape
    if seq > cfg.emb.typepos:
        raise DataError(
            f"sequence length {seq} exceeds the position table size {cfg.emb.typepos}"
        )
    out_of_range = (tokens < 0) | (tokens >= cfg.emb.vocab)
    if out_of_range.any():
        row, col = np.argwhere(out_of_range)[0]
        raise DataError(
            f"token id {tokens[row, col]} out of range [0, {cfg.emb.vocab})"
            f" at batch {row}, position {col}"
        )

    # Position indices run 0..seq-1 and all type indices are 0.
    x = (
        weights["embedding.token_table"][tokens]
        + weights["embedding.position_table"][:seq]
        + weights["embedding.type_table"][0]
    )
    x = layer_norm(
        x, weights["embedding.norm.scale"], weights["embedding.norm.shift"], cfg.layernorm_eps
    )
    for layer in range(cfg.arch.depth):
        x = _encoder_block(x, weights, f"encoder.{layer}", cfg.arch.heads, cfg.layernorm_eps, stats)
    return np.tanh(x @ weights["pooler.weight"] + weights["pooler.bias"])


def forward_with_stats(net: ToyNet, tokens) -> tuple[np.ndarray, ForwardStats]:
    """Forward pass that also reports numeric diagnostics."""
    stats = ForwardStats()
    return forward(net, tokens, stats), stats


def distillation_loss(student_logits, teacher_logits, temperature: float = 2.0) -> float:
    """Mean over rows of the cross-entropy between temperature-softened distributions.

    Both logit sets are divided by the temperature; the student's softened
    distribution is scored under the teacher's. For any fixed teacher the
    minimum over students is attained when the softened distributions match.
    """
    student = np.asarray(student_logits, dtype=float)
    teacher = np.asarray(teacher_logits, dtype=float)
    if student.ndim != 2 or student.shape != teacher.shape:
        raise ValueError(
            f"student and teacher logits must share an (examples, classes) shape"
            f" (got {student.shape} and {teacher.shape})"
        )
    if not temperature > 0:
        raise ValueError(f"temperature must be positive (got {temperature})")
    teacher_soft = softmax(teacher / temperature, axis=1)
    scaled = student / temperature
    shifted = scaled - np.max(scaled, axis=1, keepdims=True)
    log_student = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    per_row = -(teacher_soft * log_student).sum(axis=1)
    return float(per_row.mean())


def kd_loss(
    student_logits,
    teacher_logits,
    mlm_loss: float,
    weight: float = 0.5,
    temperature: float = 2.0,
) -> float:
    """Blend a masked-prediction loss with the distillation cross-entropy.

    Returns (1 - weight) * mlm_loss + weight * distillation term. No
    temperature-squared gradient rescaling is applied.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1] (got {weight})")
    if mlm_loss < 0:
        raise ValueError(f"mlm_loss must be non-negative (got {mlm_loss})")
    distill = distillation_loss(student_logits, teacher_logits, temperature)
    return (1.0 - weight) * mlm_loss + weight * distill
