"""Desk-scale numeric implementation of the encoder pipeline.

Forward-only: an embedding lookup with layer norm, a stack of encoder blocks
(multi-head attention, widen/narrow feed-forward with GeLU, residuals and a
norm after each half), and a tanh pooler applied at every position. The
network exists to witness the cost formulas numerically, so evaluation is
deterministic: dropout slots are run as the identity and a fixed seed fully
determines the weights.
"""

from __future__ import annotations

import functools
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
# Elements of widened plus narrowed activation per feed-forward row block:
# rows x (intermediate + hidden), one _ROW_PANEL at least (see _feed_forward_bounds).
_FEED_FORWARD_BLOCK = 1 << 21
# Rows per panel of a feed-forward row block, two at least. Blocks that start on
# multiples of 16 rows gave the unsplit product's bits on every OpenBLAS x86-64
# dgemm kernel run on one thread, where other splits did not (see the README).
_ROW_PANEL = 16
# Elements per weight-fill chunk (8 MiB of float64): many chunks keep the
# threads evenly loaded, and seeding one generator per chunk costs little.
_FILL_CHUNK = 1 << 20


def _block_rows(width: int) -> int:
    """Rows in each block of gelu and layer_norm over rows of the given width."""
    return max(1, _GELU_BLOCK // max(width, 1))


def _feed_forward_bounds(seq: int, width: int) -> list[int]:
    """Row bounds 0, ..., seq of the blocks that forward runs a sequence's
    feed-forward half in. A sequence within _FEED_FORWARD_BLOCK elements of the
    given width, or within one _ROW_PANEL, is one block. Otherwise the blocks
    are near-equal in whole panels, each within the budget (or one panel where
    less fits), and the last takes the rest. A last block of one row joins the
    block before it: a one-row matmul takes numpy's vector path, whose bits
    differ from a multi-row gemm's.
    """
    fit = _FEED_FORWARD_BLOCK // max(width, 1)
    if seq <= max(fit, _ROW_PANEL):
        return [0, seq]
    most = max(1, fit // _ROW_PANEL) * _ROW_PANEL
    size = -(-seq // -(-seq // most))  # the fewest blocks of at most `most` rows, near-equal
    size = -(-size // _ROW_PANEL) * _ROW_PANEL
    return [*range(0, seq - 1, size), seq]


def _batch_bounds(config: ToyNetConfig, batch: int, seq: int) -> list[int]:
    """Row bounds 0, ..., batch * seq of the blocks that forward runs the feed-forward
    half of the batch in, its sequences laid end to end. No block spans two
    sequences. A sequence that _feed_forward_bounds splits runs in those blocks.
    Otherwise each block is a run of whole sequences, near-equal, as many as fit
    within _FEED_FORWARD_BLOCK elements and within the largest group, or within
    one _ROW_PANEL, one at least: so a block holds no more than the flat buffer
    unless it is one sequence or one panel, and none has one row unless the
    batch has one token.
    """
    width = config.arch.intermediate + config.arch.hidden
    within = _feed_forward_bounds(seq, width)
    if len(within) > 2:
        return [*(index * seq + start for index in range(batch) for start in within[:-1]),
                batch * seq]
    fit = min(_FEED_FORWARD_BLOCK, _largest_group(config)) // width
    most = max(1, max(fit, _ROW_PANEL) // seq)
    size = seq * -(-batch // -(-batch // most))  # the fewest runs of at most `most`, near-equal
    return [*range(0, batch * seq, size), batch * seq]


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
    step = _block_rows(width)
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
    step = _block_rows(width)
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
    Each head's context is written into that head's q columns, which its
    scores have already read, and q is returned in x's shape.
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
    scores = np.empty((x.shape[-2], x.shape[-2]))
    for idx in np.ndindex(x.shape[:-2]):
        for h in range(heads):
            np.matmul(q[idx][:, h], k[idx][:, h].T, out=scores)
            scores /= math.sqrt(head_dim)
            softmax(scores, axis=-1, out=scores)
            if stats is not None:
                stats.record_softmax(scores)
            np.matmul(scores, v[idx][:, h], out=q[idx][:, h])
    return q.reshape(x.shape)


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
    """One instantiated network: a config and its named weight arrays. A streamed
    net holds no array: forward draws each group, and each token row, as it runs.

    Immutable after construction; forward passes never mutate it, so a net is
    safe to share across threads.
    """

    def __init__(self, config: ToyNetConfig, weights: dict[str, np.ndarray]) -> None:
        self.config = config
        self.weights = dict(weights)

    @classmethod
    def build(cls, config: ToyNetConfig, *, streamed: bool = False) -> "ToyNet":
        """Instantiate all weights from a seeded uniform(-1/2, 1/2) draw.

        Creation order is fixed, so a seed fully determines every array: the
        arrays are consecutive stretches of one Generator(PCG64(seed)) stream,
        bitwise equal to default_rng(seed).uniform(-0.5, 0.5, shape) drawn for
        each in turn. Every array is allocated here, before any thread starts,
        and filled by _draw.

        streamed=True draws nothing and holds no array: forward draws each group
        of _layout, and each token row it reads, with the same bits when it
        reaches them, and streamed_forward_bytes bounds what it holds at once.
        """
        weights, stretches = {}, []  # arrays by name; (stream offset, flat view) to fill
        if not streamed:
            for prefix, shapes, start in _layout(config):
                arrays, group_stretches = _carve(_walk(shapes, start))
                weights.update((f"{prefix}.{name}", array) for name, array in arrays.items())
                stretches += group_stretches
            _draw(config.seed, stretches)
        return cls(config, weights)


def _size(shapes) -> int:
    return sum(math.prod(shape) for _, shape in shapes)


def _walk(shapes, start: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, stream offset) of arrays laid end to end in the stream from start."""
    offsets = itertools.accumulate((math.prod(shape) for _, shape in shapes), initial=start)
    return [(name, shape, offset) for (name, shape), offset in zip(shapes, offsets)]


def _shapes(config: ToyNetConfig) -> list[list[tuple[str, tuple[int, ...]]]]:
    """[(name, shape)] of each kind of group of weight arrays, in stream order: the
    embedding (its token table at the full vocab x hidden shape), an encoder
    layer's attention half, its feed-forward half and the pooler."""
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
    pooler = [("weight", (hidden, hidden)), ("bias", (hidden,))]
    return [embedding, attention_half, feed_forward_half, pooler]


def _group_shapes(config: ToyNetConfig) -> list[list[tuple[str, tuple[int, ...]]]]:
    """_shapes' kinds with the feed-forward half in two groups: its widen group
    (`intermediate.*`) and its narrow group (`projection.*`, `output_norm.*`),
    which forward draws in turn for each row block."""
    embedding, attention_half, feed_forward_half, pooler = _shapes(config)
    return [embedding, attention_half, feed_forward_half[:2], feed_forward_half[2:], pooler]


def _layout(config: ToyNetConfig) -> list[tuple[str, list[tuple[str, tuple[int, ...]]], int]]:
    """(name prefix, [(name, shape)], stream offset) of each group of weight arrays in
    creation order: the embedding, each encoder layer's attention half, widen group
    and narrow group (all under the layer's prefix), then the pooler, as
    _group_shapes gives them: 3 * depth + 2 groups.

    A group's arrays lie end to end in the stream from its offset (see _walk).
    build carves every group, _group every group but the token table, and
    count_instantiated_params sizes a streamed net's.
    """
    embedding, *layer, pooler = _group_shapes(config)
    groups = [("embedding", embedding)]
    groups += [(f"encoder.{index}", group) for index in range(config.arch.depth) for group in layer]
    groups.append(("pooler", pooler))
    starts = itertools.accumulate((_size(shapes) for _, shapes in groups), initial=0)
    return [(prefix, shapes, start) for (prefix, shapes), start in zip(groups, starts)]


def _largest_group(config: ToyNetConfig) -> int:
    """Elements of the largest group a streamed forward draws into its flat buffer:
    the embedding's without its token table (see _group), or another of _layout."""
    embedding, *rest = _group_shapes(config)
    return max(_size(embedding[1:]), *map(_size, rest))


def _carve(walked, flat=None):
    """The arrays of one group's (name, shape, stream offset) list from _walk, by
    name within the group, and the (stream offset, flat view) stretches that _draw
    fills them from. Each array is fresh or, with a flat buffer given, the next
    stretch of it.
    """
    arrays, stretches, used = {}, [], 0
    for name, shape, offset in walked:
        size = math.prod(shape)
        array = np.empty(shape) if flat is None else flat[used : used + size].reshape(shape)
        arrays[name], used = array, used + size
        stretches.append((offset, array.reshape(-1)))
    return arrays, stretches


def _fill(seed: int, pieces) -> None:
    """Fill each (stream offset, flat array) piece, in the order given, with the
    uniform(-1/2, 1/2) draws found at that offset of the Generator(PCG64(seed))
    stream, from one generator advanced (modulo its period, so back too) from piece
    to piece; that is exact because each double takes one 64-bit draw and u - 0.5
    is exact.
    """
    draws, place = np.random.Generator(np.random.PCG64(seed)), 0
    for at, piece in pieces:
        draws.bit_generator.advance(at - place)
        draws.random(out=piece)
        piece -= 0.5
        place = at + piece.size


def _draw(seed: int, stretches) -> None:
    """_fill each (stream offset, flat array) stretch, on up to one thread per CPU.

    The stretches are cut, in the order given, into chunks of _FILL_CHUNK
    elements: a chunk may span several stretches and a stretch several chunks.
    Each chunk is one _fill call, so one generator.
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
    _run_parts(lambda chunk: _fill(seed, chunk), chunks)


# Bytes of the Python objects a streamed forward makes beside its arrays: those of
# one call (the group dicts and views, the generators, the draw's lists, numpy's
# iterators) and those of each group in _layout's list. Measured on CPython 3.11
# with numpy 2.4 as about 9,000 and 110 bytes.
_CALL_OBJECT_BYTES = 16_384
_LAYOUT_GROUP_BYTES = 128


def streamed_forward_bytes(config: ToyNetConfig, batch: int, seq: int) -> int:
    """The most bytes a forward of a streamed net holds at once, over a (batch, seq)
    token matrix. It is the sum of
    - the flat buffer, sized for the largest group it draws (_largest_group);
    - the (batch, seq, hidden) output, into whose rows the embedding draws each
      token's row;
    - the largest working set of one step, each with the scratch it holds:
      - an attention half: q, k, v and one seq x seq score block with softmax's
        row reductions and buffer (each head's context goes into its q columns,
        and the output projection comes once k and v are freed), or its
        layer_norm;
      - a feed-forward half, over the largest of _batch_bounds' row blocks:
        the block's widened activation with its bias add's buffer or gelu's
        scratch, then (once the narrow group is drawn over the widen group)
        with its narrowed activation, or its layer_norm;
      where a layer_norm holds, beside its input, its block scratch, three row
      statistics and a buffer. The embedding's one step, a layer_norm on a row
      of the output, holds no more than an attention half's. The scratches are
      bounded: gelu's and layer_norm's by _GELU_BLOCK elements or one row, and
      the buffer that numpy's ufunc iterator takes for an in-place broadcast (a
      bias add, a row-wise subtract or divide) by np.getbufsize() elements;
    - the Python objects: of one call, and of each of _layout's 3 * depth + 2
      groups, which forward lists before its first draw.

    Exact int arithmetic on the shapes of _group_shapes, so its cost does not grow
    with depth and no size overflows; a test witnesses it with tracemalloc. The
    object terms were measured on one interpreter and numpy (see their constants),
    so that witness holds for those versions.
    """
    hidden, inter = config.arch.hidden, config.arch.intermediate
    buffer = np.getbufsize()
    sequence = seq * hidden
    bounds = _batch_bounds(config, batch, seq)
    block = max(stop - start for start, stop in itertools.pairwise(bounds))
    widened, narrowed = block * inter, block * hidden

    def norm(rows: int) -> int:
        return min(rows, _block_rows(hidden)) * hidden + 3 * rows + min(buffer, rows * hidden)

    steps = (
        max(3 * sequence + seq * seq + 2 * seq + min(buffer, seq * seq), sequence + norm(seq)),
        max(widened + max(min(buffer, widened), min(block, _block_rows(inter)) * inter, narrowed),
            narrowed + norm(block)),
    )
    elements = _largest_group(config) + batch * sequence + max(steps)
    return 8 * elements + _CALL_OBJECT_BYTES + _LAYOUT_GROUP_BYTES * (3 * config.arch.depth + 2)


def count_instantiated_params(net: ToyNet) -> int:
    """Total elements across all weight arrays; matches the closed-form count.

    A streamed net counts every array of _layout, its token table at the full
    vocab x hidden shape, though forward draws only the rows it reads.
    """
    if not net.weights:
        return sum(_size(shapes) for _, shapes, _ in _layout(net.config))
    return sum(array.size for array in net.weights.values())


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


def _encoder_block(x, groups, eps: float):
    """An encoder layer's feed-forward half over a block of rows, as _attention_block
    runs it: widen, gelu, narrow plus x, then the second layer_norm. `groups` holds
    two calls that give the layer's widen group and its narrow group; a streamed
    net draws the second over the first, so each is made when its matmul comes.
    perfbench's tracer patches this name."""
    widen, narrow = groups
    weights = widen()
    h = x @ weights["intermediate.weight"]
    h += weights["intermediate.bias"]
    h = gelu(h, out=h)
    weights = narrow()
    h = h @ weights["projection.weight"]
    h += weights["projection.bias"]
    h += x
    return layer_norm(h, weights["output_norm.scale"], weights["output_norm.shift"], eps, out=h)


def _group(net: ToyNet, entry, flat) -> dict:
    """The arrays of one group of _layout, by name within the group.

    A fully built net lends its own. A streamed net's are drawn into views of
    `flat`, a buffer sized for the largest group that each draw refills; so one
    group is held at a time, each forward call has its own buffer and the net
    itself is never written. The token table, which leads the stream, is left
    out of the embedding's group: forward draws each row it reads.
    """
    prefix, shapes, start = entry
    if net.weights:
        return {name: net.weights[f"{prefix}.{name}"] for name, _ in shapes}
    walked = _walk(shapes, start)
    arrays, stretches = _carve(walked[1:] if prefix == "embedding" else walked, flat)
    _draw(net.config.seed, stretches)
    return arrays


def _groups(net: ToyNet):
    """Each group of _layout in stream order, as _group gives it, a streamed net's
    drawn in turn into one flat buffer allocated once."""
    flat = None if net.weights else np.empty(_largest_group(net.config))
    for entry in _layout(net.config):
        yield _group(net, entry, flat)


def forward(net: ToyNet, tokens, stats: ForwardStats | None = None) -> np.ndarray:
    """Run the pipeline on integer token ids of shape (batch,
    sequence); returns (batch, sequence, hidden) with every value in [-1, 1].

    Dropout slots run as the identity, so repeated calls on the same net and
    input are bitwise identical.
    """
    cfg = net.config
    eps, hidden = cfg.layernorm_eps, cfg.arch.hidden
    tokens = check_tokens(tokens, cfg.emb)

    # Group-major: every sequence passes a group of weights before any passes
    # the next, each kept in its own output row between groups. Every step
    # works per sequence, per row or, in the feed-forward half, per block of
    # _batch_bounds' rows, which never spans two sequences. Each block passes
    # the widen group, then the narrow group, which a streamed net draws once
    # per block. So the bits match the whole-batch pipeline wherever a block
    # keeps a gemm's bits (see _ROW_PANEL), the activations grow with the batch
    # only up to the largest group and only one group need be held. Nothing but
    # the output and the flat buffer outlives its group.
    # Position indices run 0..seq-1 and all type indices are 0.
    batch, seq = tokens.shape
    bounds = _batch_bounds(cfg, batch, seq)
    out = np.empty((batch, seq, hidden))
    rows = out.reshape(-1, hidden)
    layout = _layout(cfg)
    flat = None if net.weights else np.empty(_largest_group(cfg))
    embedding = _group(net, layout[0], flat)
    for ids, row in zip(tokens, out):
        if net.weights:
            np.take(embedding["token_table"], ids, axis=0, out=row)
        else:  # the token table leads the stream: id i's row is the stretch at i * hidden
            _fill(cfg.seed, ((int(i) * hidden, piece) for i, piece in zip(ids, row)))
        row += embedding["position_table"][:seq]
        row += embedding["type_table"][0]
        layer_norm(row, embedding["norm.scale"], embedding["norm.shift"], eps, out=row)
    for first in range(1, 3 * cfg.arch.depth, 3):
        half = _group(net, layout[first], flat)
        for row in out:
            row[...] = _attention_block(row, half, cfg.arch.heads, eps, stats)
        feed_forward = [functools.partial(_group, net, entry, flat)
                        for entry in layout[first + 1 : first + 3]]
        for start, stop in itertools.pairwise(bounds):
            rows[start:stop] = _encoder_block(rows[start:stop], feed_forward, eps)
    pooler = _group(net, layout[-1], flat)
    pooled = np.empty((seq, hidden))
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
