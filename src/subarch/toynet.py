"""Desk-scale numeric implementation of the encoder pipeline.

Forward-only: an embedding lookup with layer norm, a stack of encoder blocks
(multi-head attention, widen/narrow feed-forward with GeLU, residuals and a
norm after each half), and a tanh pooler applied at every position. The
network exists to witness the cost formulas numerically, so evaluation is
deterministic: dropout slots are run as the identity and a fixed seed fully
determines the weights.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .costs import TYPE_TABLE_ROWS
from .errors import ConfigError, DataError
from .metrics import finite_number
from .space import ArchParams, EmbeddingConfig

# The tanh form's cubic coefficient (Hendrycks & Gimpel, arXiv 1606.08415).
GELU_CUBIC = 4.4715e-2
_GELU_SCALE = math.sqrt(2.0 / math.pi)
# Elements per gelu or layer_norm block: whole rows of the last axis, one row at least.
_GELU_BLOCK = 1 << 15
# Elements per weight-fill chunk (8 MiB of float64): many chunks keep the
# threads evenly loaded, and seeding one generator per chunk costs little.
_FILL_CHUNK = 1 << 20


def _workers() -> int:
    """Threads for the weight fill: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parts(fn, parts) -> None:
    """Call fn(part) for every part, on up to one thread per CPU plus this one.

    This thread runs the first part while the pool runs the rest; a failure
    is raised here. fn must call numpy only, never a kernel of this module:
    the tracer in perfbench/spans.py patches those names and is not
    thread-safe. numpy releases the GIL in its generators, so the threads
    overlap. With one CPU or one part, the parts run in order in this thread.
    """
    if _workers() <= 1 or len(parts) <= 1:
        for part in parts:
            fn(part)
        return
    with ThreadPoolExecutor(min(_workers(), len(parts) - 1)) as pool:
        rest = [pool.submit(fn, part) for part in parts[1:]]
        fn(parts[0])
        for future in rest:  # reading every result re-raises a worker's exception
            future.result()


def _check_out(x, out) -> bool:
    """Whether x is a float array with at least one axis; with `out` given, a
    ValueError unless it is and `out` is a C-contiguous array of its shape and
    dtype (x itself included). gelu, softmax and layer_norm write their result
    to `out` and return it; without `out` it is a fresh array, x never written.
    """
    floats = isinstance(x, np.ndarray) and x.ndim > 0 and x.dtype.kind == "f"
    if out is None:
        return floats
    if not floats:
        raise ValueError("out needs a float array input with at least one axis")
    if not (isinstance(out, np.ndarray) and out.shape == x.shape and out.dtype == x.dtype
            and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous array of the input's shape and dtype")
    return True


def gelu(x, out=None):
    """tanh-form GeLU approximation; accepts scalars or arrays.

    The cube is x * x * x: two correctly rounded multiplies, whose bits no
    SIMD width changes, where np.power falls back to a slow per-lane loop for
    negative bases. A float array with at least one axis is computed over
    blocks of whole rows of the last axis, in order on the calling thread,
    with the same ufuncs on the same operands as the expression, so the
    result is bitwise equal and only one block's cube is held. A NaN input is
    the one exception: its lane holds x's NaN or tanh's, as numpy's multiply
    picks either NaN operand by the lane's place in its SIMD loop.
    `out` is as _check_out says. Each block of `x` is read before the same
    block of `out` is written, so `gelu(x, out=x)` is safe; any other `out`
    that overlaps `x` is written from a copy of `x`.
    """
    if not _check_out(x, out):
        return 0.5 * x * (1.0 + np.tanh(_GELU_SCALE * (x + GELU_CUBIC * (x * x * x))))
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif out is not x and np.may_share_memory(x, out):
        x = x.copy()
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
        np.multiply(xb, xb, out=inner)
        inner *= xb
        inner *= GELU_CUBIC
        inner += xb
        inner *= _GELU_SCALE
        np.tanh(inner, out=inner)
        inner += 1.0
        np.multiply(0.5, xb, out=ob)
        ob *= inner
    return out


def softmax(x, axis: int = -1, out=None):
    """Numerically stable softmax; rows sum to 1 and entries lie in (0, 1].

    The exponent and the division reuse the buffer of shifted values (a
    float one), which is `out` when given (see _check_out).
    """
    if np.ndim(x) == 0:
        raise ValueError(f"softmax needs an input with at least one axis (got shape {np.shape(x)})")
    _check_out(x, out)
    shifted = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    weights = np.exp(shifted, out=shifted if shifted.dtype.kind == "f" else None)
    weights /= np.sum(weights, axis=axis, keepdims=True)
    return weights


def layer_norm(x, scale, shift, eps: float = 1e-5, out=None):
    """Normalize along the last axis to zero mean and (near) unit variance, then affine.

    Uses population variance; eps guards the zero-variance case, in which the
    pre-affine output is exactly zero. The pre-affine variance is
    var / (var + eps), so it approaches 1 only for inputs whose variance is
    large against eps. var repeats x.var's steps on the centred output, bit
    for bit: each row's squares are summed alone, so squaring blocks of rows
    into one small scratch gives the same sums. With `out` (see _check_out)
    the arithmetic runs in x's dtype.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive (got {eps})")
    _check_out(x, out)
    x = np.asarray(x, dtype=float) if out is None else x
    scale = np.asarray(scale, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if x.ndim == 0:
        raise ValueError(f"layer_norm needs an input with at least one axis (got shape {x.shape})")
    if x.shape[-1] < 1 or scale.shape != (x.shape[-1],) or shift.shape != (x.shape[-1],):
        raise ValueError("scale and shift must match the last axis of x")
    out = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
    width = x.shape[-1]
    rows = out.reshape(-1, width)
    var = np.empty(len(rows), dtype=out.dtype)
    step = max(1, _GELU_BLOCK // width)
    scratch = np.empty((min(step, len(rows)), width), dtype=out.dtype)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        np.sum(np.square(block, out=scratch[: len(block)]), axis=-1, out=var[start : start + step])
    var = var.reshape(*out.shape[:-1], 1)
    var /= width
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
    block at a time into one sequence-by-sequence scratch, where softmax
    turns them into probabilities in place; each block makes the same 2-D
    matmul calls, with the same strides, as a batched product over all heads.
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
    scores = np.empty((x.shape[-2], x.shape[-2]))
    for idx in np.ndindex(x.shape[:-2]):
        for h in range(heads):
            np.matmul(q[idx][:, h], k[idx][:, h].T, out=scores)
            scores /= math.sqrt(head_dim)
            softmax(scores, axis=-1, out=scores)
            if stats is not None:
                stats.record_softmax(scores)
            np.matmul(scores, v[idx][:, h], out=attended[idx][:, h])
    return attended.reshape(x.shape)


@dataclass(frozen=True)
class ToyNetConfig:
    """Architecture, embedding sizes and evaluation knobs for one toy network."""

    arch: ArchParams
    emb: EmbeddingConfig
    dropout: float = 0.0
    layernorm_eps: float = 1e-5
    seed: int = 0

    def __post_init__(self) -> None:
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
    """One instantiated network: a config, named weight arrays and the token ids
    held. A streamed net holds no array: forward draws each group as it runs.

    Immutable after construction; forward passes never mutate it, so a net is
    safe to share across threads.
    """

    def __init__(self, config: ToyNetConfig, weights: dict[str, np.ndarray]) -> None:
        self.config = config
        self.weights = dict(weights)
        # The ids of the token-table rows held, ascending, as build sets them; None: every row.
        self.token_ids: np.ndarray | None = None

    @classmethod
    def build(cls, config: ToyNetConfig, tokens=None, *, streamed: bool = False) -> "ToyNet":
        """Instantiate all weights from a seeded uniform(-1/2, 1/2) draw.

        Creation order is fixed, so a seed fully determines every array: the
        arrays are consecutive stretches of one Generator(PCG64(seed)) stream,
        bitwise equal to default_rng(seed).uniform(-0.5, 0.5, shape) drawn for
        each in turn. Every array is allocated here, before any thread starts,
        and filled by _draw.

        tokens, a token matrix as forward takes it, makes the token table hold
        only the rows of its distinct ids, ascending, each drawn from its own
        stretch of the full table's span; every other array and its stream
        offset are unchanged. check_tokens raises its DataError for a bad matrix.

        streamed=True draws nothing and holds no array, only the token ids:
        forward draws each group of _layout, with the same bits, when it
        reaches it.
        """
        token_ids = None
        if tokens is not None:  # a fresh array the caller cannot change
            token_ids = np.unique(check_tokens(tokens, config.emb))
            token_ids.flags.writeable = False
        weights, stretches = {}, []  # arrays by name; (stream offset, flat view) to fill
        for prefix, shapes, start in [] if streamed else _layout(config):
            arrays, group_stretches = _carve(shapes, start, token_ids)
            weights.update((f"{prefix}.{name}", array) for name, array in arrays.items())
            stretches += group_stretches
        _draw(config.seed, stretches)
        net = cls(config, weights)
        net.token_ids = token_ids
        return net


def _size(shapes) -> int:
    return sum(math.prod(shape) for _, shape in shapes)


def _walk(shapes, start: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, stream offset) of arrays laid end to end in the stream from start."""
    offsets = itertools.accumulate((math.prod(shape) for _, shape in shapes), initial=start)
    return [(name, shape, offset) for (name, shape), offset in zip(shapes, offsets)]


def _layout(config: ToyNetConfig) -> list[tuple[str, list[tuple[str, tuple[int, ...]]], int]]:
    """(name prefix, [(name, shape)], stream offset) of each group of weight arrays in
    creation order: the embedding, each encoder layer's attention half then its
    feed-forward half (both under the layer's prefix), then the pooler.

    A group's arrays lie end to end in the stream from its offset (see _walk),
    with the token table at its full vocab x hidden shape. build and _groups
    carve every group, and count_instantiated_params sizes a streamed net's.
    """
    hidden, inter = config.arch.hidden, config.arch.intermediate
    embedding = [
        ("token_table", (config.emb.vocab, hidden)),
        ("position_table", (config.emb.typepos, hidden)),
        ("type_table", (TYPE_TABLE_ROWS, hidden)),
        ("norm.scale", (hidden,)),
        ("norm.shift", (hidden,)),
    ]
    attention_half = [
        (f"attention.{proj}.{part}", (hidden, hidden) if part == "weight" else (hidden,))
        for proj in ("query", "key", "value", "output") for part in ("weight", "bias")
    ] + [("attention_norm.scale", (hidden,)), ("attention_norm.shift", (hidden,))]
    feed_forward_half = [
        ("intermediate.weight", (hidden, inter)),
        ("intermediate.bias", (inter,)),
        ("projection.weight", (inter, hidden)),
        ("projection.bias", (hidden,)),
        ("output_norm.scale", (hidden,)),
        ("output_norm.shift", (hidden,)),
    ]
    halves = [attention_half, feed_forward_half]
    groups = [("embedding", embedding)]
    groups += [(f"encoder.{index}", half) for index in range(config.arch.depth) for half in halves]
    groups.append(("pooler", [("weight", (hidden, hidden)), ("bias", (hidden,))]))
    starts = itertools.accumulate((_size(shapes) for _, shapes in groups), initial=0)
    return [(prefix, shapes, start) for (prefix, shapes), start in zip(groups, starts)]


def _carve(shapes, start: int, token_ids, flat=None):
    """One group's arrays, by name within the group, and the (stream offset, flat
    view) stretches that _draw fills them from. Each array is fresh or, with a
    flat buffer given, the next stretch of it. With token_ids, the token table
    holds their rows only, row r the stretch at r * hidden of the table's span.
    """
    arrays, stretches, used = {}, [], 0
    for name, shape, offset in _walk(shapes, start):
        partial = name == "token_table" and token_ids is not None
        if partial:
            shape = (token_ids.size, shape[1])
        size = math.prod(shape)
        array = np.empty(shape) if flat is None else flat[used : used + size].reshape(shape)
        arrays[name], used = array, used + size
        if partial:
            stretches += [(offset + r * shape[1], row) for r, row in zip(token_ids.tolist(), array)]
        else:
            stretches.append((offset, array.reshape(-1)))
    return arrays, stretches


def _draw(seed: int, stretches) -> None:
    """Fill each (stream offset, flat array) stretch with the uniform(-1/2, 1/2)
    draws found at that offset of the Generator(PCG64(seed)) stream.

    The stretches are cut, in the order given, into chunks of _FILL_CHUNK
    elements: a chunk may span several stretches and a stretch several chunks.
    Each chunk is filled on a thread by one generator advanced (modulo its
    period, so back too) from piece to piece; that is exact because each
    double takes one 64-bit draw and u - 0.5 is exact.
    """
    chunks, room = [], 0
    for at, flat in stretches:
        start = 0
        while start < flat.size:
            if not room:
                chunks.append([])
                room = _FILL_CHUNK
            piece = flat[start : start + room]
            chunks[-1].append((at + start, piece))
            room -= piece.size
            start += piece.size

    def fill(chunk):
        draws, place = np.random.Generator(np.random.PCG64(seed)), 0
        for at, piece in chunk:
            draws.bit_generator.advance(at - place)
            draws.random(out=piece)
            piece -= 0.5
            place = at + piece.size

    _run_parts(fill, chunks)


def count_instantiated_params(net: ToyNet) -> int:
    """Total elements across all weight arrays; matches the closed-form count.

    A net that holds only some token rows counts its table at the full
    vocab x hidden shape, as the closed form does, and a streamed net counts
    every group of _layout that forward draws.
    """
    cfg = net.config
    if not net.weights:
        return sum(_size(shapes) for _, shapes, _ in _layout(cfg))
    total = sum(array.size for array in net.weights.values())
    if net.token_ids is not None:
        total += (cfg.emb.vocab - net.token_ids.size) * cfg.arch.hidden
    return int(total)


def check_tokens(tokens, emb: EmbeddingConfig) -> np.ndarray:
    """tokens as an int64 array, once it is a (batch, sequence) matrix of
    integer ids in [0, vocab) and in int64's range, no longer than the position
    table; else a DataError naming the first fault."""
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
    # An unsigned matrix can hold an id in range that int64 cannot.
    int64_max = np.iinfo(np.int64).max
    for bad, fault in (
        ((tokens < 0) | (tokens >= emb.vocab), f"out of range [0, {emb.vocab})"),
        (tokens > int64_max, f"beyond int64 (more than {int64_max})"),
    ):
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise DataError(f"token id {tokens[row, col]} {fault} at batch {row}, position {col}")
    return tokens.astype(np.int64, copy=False)


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


def _attention_block(x, weights, heads: int, eps: float, stats):
    """An encoder layer's attention half, from its arrays by name within the layer:
    attention, the output projection plus x, then the first layer_norm over it.
    One working name, rebound at each step, frees every activation once the next
    step has read it; the in-place adds are the expression form's np.add calls.
    """
    h = attention(
        x,
        (weights["attention.query.weight"], weights["attention.query.bias"]),
        (weights["attention.key.weight"], weights["attention.key.bias"]),
        (weights["attention.value.weight"], weights["attention.value.bias"]),
        heads,
        stats,
    )
    h = h @ weights["attention.output.weight"]
    h += weights["attention.output.bias"]
    h += x
    scale, shift = weights["attention_norm.scale"], weights["attention_norm.shift"]
    return layer_norm(h, scale, shift, eps, out=h)


def _encoder_block(x, weights, eps: float):
    """An encoder layer's feed-forward half, as _attention_block runs it: widen,
    gelu, narrow plus x, then the second layer_norm. perfbench's tracer patches
    this name."""
    h = x @ weights["intermediate.weight"]
    h += weights["intermediate.bias"]
    h = gelu(h, out=h)
    h = h @ weights["projection.weight"]
    h += weights["projection.bias"]
    h += x
    return layer_norm(h, weights["output_norm.scale"], weights["output_norm.shift"], eps, out=h)


def _groups(net: ToyNet):
    """Each group of _layout's arrays, by name within the group, in stream order.

    A fully built net lends its own. A streamed net's groups are drawn in turn
    into views of one flat buffer, sized for the largest group (the token table
    at the rows held), that this generator allocates once and refills; so one
    group is held at a time, each forward call has its own buffer and the net
    itself is never written.
    """
    cfg, ids = net.config, net.token_ids
    layout = _layout(cfg)
    if net.weights:
        for prefix, shapes, _ in layout:
            yield {name: net.weights[f"{prefix}.{name}"] for name, _ in shapes}
        return
    sizes = [_size(shapes) for _, shapes, _ in layout]
    if ids is not None:  # the embedding comes first
        sizes[0] -= (cfg.emb.vocab - ids.size) * cfg.arch.hidden
    flat = np.empty(max(sizes))
    for _, shapes, start in layout:
        arrays, stretches = _carve(shapes, start, ids, flat)
        _draw(cfg.seed, stretches)
        yield arrays


def forward(net: ToyNet, tokens, stats: ForwardStats | None = None) -> np.ndarray:
    """Run the pipeline on integer token ids of shape (batch,
    sequence); returns (batch, sequence, hidden) with every value in [-1, 1].

    Dropout slots run as the identity, so repeated calls on the same net and
    input are bitwise identical.
    """
    cfg = net.config
    eps = cfg.layernorm_eps
    tokens = check_tokens(tokens, cfg.emb)
    rows = tokens if net.token_ids is None else _held_rows(net.token_ids, tokens)

    # Group-major: every sequence passes a group of weights before any passes
    # the next, each kept in its own output row between groups. Every step
    # works per sequence or per row, so the bits match the whole-batch
    # pipeline, only the output grows with the batch and only one group need
    # be held. Position indices run 0..seq-1 and all type indices are 0.
    batch, seq = tokens.shape
    out = np.empty((batch, seq, cfg.arch.hidden))
    groups = _groups(net)
    embedding = next(groups)
    for ids, row in zip(rows, out):
        x = embedding["token_table"][ids] + embedding["position_table"][:seq]
        x += embedding["type_table"][0]
        row[...] = layer_norm(x, embedding["norm.scale"], embedding["norm.shift"], eps)
    for _ in range(cfg.arch.depth):
        half = next(groups)
        for row in out:
            row[...] = _attention_block(row, half, cfg.arch.heads, eps, stats)
        half = next(groups)
        for row in out:
            row[...] = _encoder_block(row, half, eps)
    pooler = next(groups)
    pooled = np.empty((seq, cfg.arch.hidden))
    for row in out:
        np.matmul(row, pooler["weight"], out=pooled)
        pooled += pooler["bias"]
        np.tanh(pooled, out=row)
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
