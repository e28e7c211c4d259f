"""Desk-scale numeric implementation of the encoder pipeline.

Forward-only: an embedding lookup with layer norm, a stack of encoder blocks
(multi-head attention, widen/narrow feed-forward with GeLU, residuals and a
norm after each half), and a tanh pooler applied at every position. The
network exists to witness the cost formulas numerically, so evaluation is
deterministic: dropout slots are run as the identity and a fixed seed fully
determines the weights.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
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
# For finite x at or below this, _GELU_SCALE * (x + GELU_CUBIC * x**3) <= -26.0,
# whose tanh rounds to exactly -1.0, so gelu(x) is -0.0 whatever the cube is.
_GELU_FIXED_AT = -4.0
# Elements per weight-fill chunk (8 MiB of float64): many chunks keep the
# threads evenly loaded, and seeding one generator per chunk costs little.
_FILL_CHUNK = 1 << 20


def _workers() -> int:
    """Threads for the weight fill and gelu: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parts(fn, parts) -> None:
    """Call fn(part) for every part, on up to one thread per CPU plus this one.

    This thread runs the first part while the pool runs the rest; a failure
    is raised here. Each pool part runs in its own copy of this thread's
    context, so numpy's errstate, a context variable, holds there too. fn must
    call numpy only, never a kernel of this module: the tracer in
    perfbench/spans.py patches those names and is not thread-safe. numpy
    releases the GIL in its ufuncs and generators, so the threads overlap.
    With one CPU or one part, the parts run in order in this thread.
    """
    if _workers() <= 1 or len(parts) <= 1:
        for part in parts:
            fn(part)
        return
    with ThreadPoolExecutor(min(_workers(), len(parts) - 1)) as pool:
        rest = [pool.submit(contextvars.copy_context().run, fn, part) for part in parts[1:]]
        fn(parts[0])
        for future in rest:  # reading every result re-raises a worker's exception
            future.result()


def gelu(x, out=None):
    """tanh-form GeLU approximation; accepts scalars or arrays.

    A float array with at least one axis is computed over blocks of whole rows
    of the last axis, with the same ufuncs on the same operands as the
    expression, so the result is bitwise equal and only one block's cube is
    held per thread. The one exception changes no bit: finite lanes at or
    below _GELU_FIXED_AT, where the expression is -0.0, cube 0.0 instead (a
    fast np.power operand) and are then set to -0.0. The blocks are dealt out
    to one thread per CPU and the calling thread, each with its own scratch.
    Without `out` the result is a fresh array and `x` is never written; `out`
    (a C-contiguous array of x's shape and dtype, `x` itself included)
    receives the result and is returned, and any other input with `out` is a
    ValueError. Each block of `x` is read before the same block of `out` is
    written, so `gelu(x, out=x)` is safe.
    """
    if not (isinstance(x, np.ndarray) and x.ndim and x.dtype.kind == "f"):
        if out is not None:
            raise ValueError("out needs a float array input with at least one axis")
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
    starts = range(0, rows, step)

    def run(part_starts):
        scratch = np.empty((min(step, rows), width), dtype=x.dtype)
        fixed_scratch = np.empty(scratch.shape, dtype=bool)
        for start in part_starts:
            xb = x_rows[start : start + step]
            ob = out_rows[start : start + step]
            inner = scratch[: len(xb)]
            fixed = fixed_scratch[: len(xb)]
            np.less_equal(xb, _GELU_FIXED_AT, out=fixed)
            fixed &= xb != -np.inf  # -inf gives NaN, as in the expression
            np.copyto(inner, xb)
            np.copyto(inner, 0.0, where=fixed)
            np.power(inner, 3, out=inner)
            inner *= GELU_CUBIC
            inner += xb
            inner *= _GELU_SCALE
            np.tanh(inner, out=inner)
            inner += 1.0
            np.multiply(0.5, xb, out=ob)
            ob *= inner
            np.copyto(ob, -0.0, where=fixed)

    workers = min(_workers() + 1, len(starts))
    _run_parts(run, [starts[i::workers] for i in range(workers)])
    return out


def softmax(x, axis: int = -1):
    """Numerically stable softmax; rows sum to 1 and entries lie in (0, 1].

    The exponent and the division reuse the buffer of shifted values (a
    float one); the input is never written.
    """
    if np.ndim(x) == 0:
        raise ValueError(f"softmax needs an input with at least one axis (got shape {np.shape(x)})")
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
    if x.ndim == 0:
        raise ValueError(f"layer_norm needs an input with at least one axis (got shape {x.shape})")
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
    """One instantiated network: a config, named weight arrays and the token ids held.

    Immutable after construction; forward passes never mutate it, so a net is
    safe to share across threads.
    """

    def __init__(self, config: ToyNetConfig, weights: dict[str, np.ndarray]) -> None:
        self.config = config
        self.weights = dict(weights)
        # The ids of the token-table rows held, ascending, as build sets them; None: every row.
        self.token_ids: np.ndarray | None = None

    @classmethod
    def build(cls, config: ToyNetConfig, tokens=None) -> "ToyNet":
        """Instantiate all weights from a seeded uniform(-1/2, 1/2) draw.

        Creation order is fixed, so a seed fully determines every array: the
        arrays are consecutive stretches of one Generator(PCG64(seed)) stream,
        bitwise equal to default_rng(seed).uniform(-0.5, 0.5, shape) drawn for
        each in turn. Every array is allocated here, before any thread starts.
        Fixed-size chunks are then filled on threads, each from its own
        generator advanced to the chunk's offset in the stream; that is exact
        because each double takes one 64-bit draw and u - 0.5 is exact.

        tokens, a token matrix as forward takes it, makes the token table hold
        only the rows of its distinct ids, ascending, each drawn from its own
        stretch of the full table's span; every other array and its stream
        offset are unchanged. check_tokens raises its DataError for a bad matrix.
        """
        vocab = config.emb.vocab
        token_ids = None
        if tokens is not None:  # a fresh array the caller cannot change
            token_ids = np.unique(check_tokens(tokens, config.emb)).astype(np.int64)
            token_ids.flags.writeable = False
        weights: dict[str, np.ndarray] = {}

        def add(name: str, *shape: int) -> None:
            weights[name] = np.empty(shape)

        hidden, inter = config.arch.hidden, config.arch.intermediate
        add("embedding.token_table", vocab if token_ids is None else token_ids.size, hidden)
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

        stretches = []  # (stream offset, flat view) of each stretch to fill
        offset = 0
        for name, array in weights.items():
            if name == "embedding.token_table" and token_ids is not None:
                # Row r is the stretch at r * hidden of the whole table's span.
                rows = zip(token_ids.tolist(), array)
                stretches += [(offset + r * hidden, row) for r, row in rows]
                offset += vocab * hidden
            else:
                stretches.append((offset, array.reshape(-1)))
                offset += array.size
        chunks = [
            (at + start, flat[start : start + _FILL_CHUNK])
            for at, flat in stretches
            for start in range(0, flat.size, _FILL_CHUNK)
        ]

        def fill(part):
            chunk_offset, chunk = part
            bits = np.random.PCG64(config.seed).advance(chunk_offset)
            np.random.Generator(bits).random(out=chunk)
            chunk -= 0.5

        _run_parts(fill, chunks)
        net = cls(config, weights)
        net.token_ids = token_ids
        return net


def count_instantiated_params(net: ToyNet) -> int:
    """Total elements across all weight arrays; matches the closed-form count.

    A net that holds only some token rows counts its table at the full
    vocab x hidden shape, as the closed form does.
    """
    total = sum(array.size for array in net.weights.values())
    if net.token_ids is not None:
        total += (net.config.emb.vocab - net.token_ids.size) * net.config.arch.hidden
    return int(total)


def check_tokens(tokens, emb: EmbeddingConfig) -> np.ndarray:
    """tokens as an array, once it is a (batch, sequence) matrix of integer
    ids in [0, vocab) no longer than the position table; else a DataError
    naming the first fault."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] == 0:
        raise DataError(
            f"token input must be a (batch, sequence) matrix with a sequence of at least one id"
            f" (got shape {tokens.shape})"
        )
    if not np.issubdtype(tokens.dtype, np.integer):
        raise DataError(f"token ids must be integers (got dtype {tokens.dtype})")
    if tokens.shape[1] > emb.typepos:
        raise DataError(
            f"sequence length {tokens.shape[1]} exceeds the position table size {emb.typepos}"
        )
    out_of_range = (tokens < 0) | (tokens >= emb.vocab)
    if out_of_range.any():
        row, col = np.argwhere(out_of_range)[0]
        raise DataError(
            f"token id {tokens[row, col]} out of range [0, {emb.vocab})"
            f" at batch {row}, position {col}"
        )
    return tokens


def _held_rows(token_ids: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """The row of a partial token table that holds each id of tokens, or a
    DataError naming the first id it does not hold."""
    held = np.isin(tokens, token_ids)
    if not held.all():
        row, col = np.argwhere(~held)[0]
        raise DataError(
            f"token id {tokens[row, col]} at batch {row}, position {col} is not among the"
            f" {token_ids.size} token-table rows this net holds"
        )
    return np.searchsorted(token_ids, tokens)


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
    tokens = check_tokens(tokens, cfg.emb)
    rows = tokens if net.token_ids is None else _held_rows(net.token_ids, tokens)

    # One sequence at a time: every step works per sequence or per row, so
    # the bits match the whole-batch pipeline and only the output grows with
    # the batch. Position indices run 0..seq-1 and all type indices are 0.
    batch, seq = tokens.shape
    out = np.empty((batch, seq, cfg.arch.hidden))
    for ids, row in zip(rows, out):
        x = (
            weights["embedding.token_table"][ids]
            + weights["embedding.position_table"][:seq]
            + weights["embedding.type_table"][0]
        )
        x = layer_norm(
            x, weights["embedding.norm.scale"], weights["embedding.norm.shift"], cfg.layernorm_eps
        )
        for layer in range(cfg.arch.depth):
            x = _encoder_block(
                x, weights, f"encoder.{layer}", cfg.arch.heads, cfg.layernorm_eps, stats
            )
        np.matmul(x, weights["pooler.weight"], out=row)
        row += weights["pooler.bias"]
        np.tanh(row, out=row)
    return out


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
    if not 0.0 <= mlm_loss < math.inf:
        raise ValueError(f"mlm_loss must be non-negative and finite (got {mlm_loss})")
    distill = distillation_loss(student_logits, teacher_logits, temperature)
    return (1.0 - weight) * mlm_loss + weight * distill
