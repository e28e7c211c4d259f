import hashlib
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY_EMB
from subarch import toynet
from subarch.costs import param_count, shape_oracle_params
from subarch.errors import ConfigError, DataError
from subarch.space import ArchParams, EmbeddingConfig
from subarch.toynet import (
    ForwardStats,
    ToyNet,
    ToyNetConfig,
    attention,
    count_instantiated_params,
    distillation_loss,
    forward,
    forward_with_stats,
    gelu,
    kd_loss,
    layer_norm,
    softmax,
)

SMALL = ToyNetConfig(
    arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 1), seed=3
)


def zeroed(net: ToyNet) -> ToyNet:
    return ToyNet(net.config, {k: np.zeros_like(v) for k, v in net.weights.items()})


class TestGelu:
    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_positive_saturation(self):
        assert abs(gelu(10.0) - 10.0) <= 1e-6
        assert abs(gelu(8.0) - 8.0) <= 1e-6

    def test_negative_saturation(self):
        assert abs(gelu(-10.0)) <= 1e-6
        assert abs(gelu(-8.0)) <= 1e-6

    def test_derivative_has_no_jumps(self):
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
        slopes = np.diff(gelu(grid)) / 1e-4
        assert np.max(np.abs(np.diff(slopes))) <= 1e-3

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3, 3, 7)
        assert np.allclose(gelu(xs), [gelu(float(x)) for x in xs])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(size=(50, 9)) * 10)
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-9
        assert probs.min() > 0.0
        assert probs.max() <= 1.0


class TestLayerNorm:
    def test_constant_input_is_zeroed(self):
        out = layer_norm(np.full(8, 3.5), np.ones(8), np.zeros(8), eps=1e-5)
        assert np.array_equal(out, np.zeros(8))

    def test_unit_variance_input_is_near_fixed_point(self):
        x = np.array([1.0, -1.0])
        out = layer_norm(x, np.ones(2), np.zeros(2), eps=1e-12)
        assert np.allclose(out, x, atol=1e-6)

    def test_zero_scale_collapses_to_shift(self):
        shift = np.arange(8.0)
        out = layer_norm(np.random.default_rng(1).normal(size=8), np.zeros(8), shift)
        assert np.array_equal(out, shift)

    def test_pre_affine_statistics(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(64, 16))
        out = layer_norm(rows, np.ones(16), np.zeros(16), eps=1e-5)
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-6
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-3

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            layer_norm(np.ones(4), np.ones(4), np.zeros(4), eps=0.0)


class TestAttention:
    def pairs(self, rng, hidden):
        return [
            (rng.normal(size=(hidden, hidden)), rng.normal(size=hidden)) for _ in range(3)
        ]

    def test_single_position_returns_value_projection(self):
        rng = np.random.default_rng(2)
        q, k, v = self.pairs(rng, 4)
        x = rng.normal(size=(1, 4))
        out = attention(x, q, k, v, heads=2)
        assert np.allclose(out, x @ v[0] + v[1])

    def test_zero_weights_give_uniform_softmax_and_zero_output(self):
        x = np.random.default_rng(3).normal(size=(5, 4))
        zero = (np.zeros((4, 4)), np.zeros(4))
        stats = ForwardStats()
        out = attention(x, zero, zero, zero, heads=2, stats=stats)
        assert np.array_equal(out, np.zeros((5, 4)))
        assert stats.softmax_row_dev <= 1e-9

    def test_random_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        q, k, v = self.pairs(rng, 8)
        stats = ForwardStats()
        attention(rng.normal(size=(6, 8)), q, k, v, heads=4, stats=stats)
        assert stats.softmax_row_dev <= 1e-9

    def test_indivisible_heads_rejected(self):
        zero = (np.zeros((6, 6)), np.zeros(6))
        with pytest.raises(ValueError, match="divisible"):
            attention(np.zeros((2, 6)), zero, zero, zero, heads=4)


class TestToyNetConfig:
    def test_sequence_longer_than_position_table_rejected(self):
        with pytest.raises(ConfigError, match="position table"):
            ToyNetConfig(arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 4, 8, 1))

    def test_invalid_arch_rejected(self):
        with pytest.raises(ConfigError):
            ToyNetConfig(arch=ArchParams(3, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 1))

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            ToyNetConfig(
                arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 1), dropout=1.0
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("layernorm_eps", math.inf),
            ("layernorm_eps", True),
            ("dropout", True),
            ("seed", -1),
            ("seed", True),
            ("seed", 2.0),
        ],
    )
    def test_bad_setting_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ToyNetConfig(
                arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 1), **{key: value}
            )

    def test_int_knobs_are_stored_as_floats(self):
        cfg = ToyNetConfig(
            arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 1),
            dropout=0, layernorm_eps=1,
        )
        assert (cfg.dropout, cfg.layernorm_eps) == (0.0, 1.0)
        assert all(isinstance(v, float) for v in (cfg.dropout, cfg.layernorm_eps))


class TestForward:
    def test_zero_net_outputs_zero(self):
        cfg = ToyNetConfig(arch=ArchParams(2, 2, 4, 8), emb=EmbeddingConfig(8, 4, 1, 1))
        net = zeroed(ToyNet.build(cfg))
        out = forward(net, np.array([[3]]))
        assert np.array_equal(out, np.zeros((1, 1, 4)))

    def test_shapes_and_bounds(self):
        net = ToyNet.build(SMALL)
        tokens = np.random.default_rng(5).integers(0, 32, size=(1, 8))
        out = forward(net, tokens)
        assert out.shape == (1, 8, 8)
        assert np.max(np.abs(out)) <= 1.0

    def test_deterministic_bitwise(self):
        net = ToyNet.build(SMALL)
        tokens = np.random.default_rng(6).integers(0, 32, size=(2, 8))
        first = forward(net, tokens)
        second = forward(net, tokens)
        assert first.tobytes() == second.tobytes()

    def test_same_seed_same_weights(self):
        a = ToyNet.build(SMALL)
        b = ToyNet.build(SMALL)
        assert all(np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)

    def test_out_of_range_token_names_position(self):
        net = ToyNet.build(SMALL)
        tokens = np.array([[0, 1, 2, 3, 4, 5, 99, 7]])
        with pytest.raises(DataError, match=r"99 out of range \[0, 32\) at batch 0, position 6"):
            forward(net, tokens)

    def test_non_integer_tokens_rejected(self):
        net = ToyNet.build(SMALL)
        with pytest.raises(DataError, match="integers"):
            forward(net, np.zeros((1, 8)))

    def test_softmax_stats_collected(self):
        net = ToyNet.build(SMALL)
        tokens = np.random.default_rng(8).integers(0, 32, size=(2, 8))
        out, stats = forward_with_stats(net, tokens)
        assert stats.softmax_row_dev <= 1e-9
        assert out.shape == (2, 8, 8)

    def test_residual_only_structure_stays_finite(self):
        net = ToyNet.build(SMALL)
        weights = {}
        for name, array in net.weights.items():
            if name.endswith(".shift") or ".attention." in name or name.startswith("pooler") \
                    or ".intermediate." in name or ".projection." in name:
                weights[name] = np.zeros_like(array)
            else:
                weights[name] = array
        tokens = np.random.default_rng(9).integers(0, 32, size=(1, 8))
        out = forward(ToyNet(net.config, weights), tokens)
        assert np.all(np.isfinite(out))

    def test_memory_grows_with_the_batch_only_by_the_output_rows(self):
        # One sequence's activations (its 64x128 widen buffer alone is 64 KiB)
        # are live at a time; the whole-batch pipeline held every sequence's.
        cfg = ToyNetConfig(arch=ArchParams(2, 2, 32, 128), emb=EmbeddingConfig(50, 64, 64, 1))
        net = ToyNet.build(cfg)
        tokens = np.random.default_rng(2).integers(0, 50, size=(4, 64))
        peaks = {}
        for batch in (2, 4):
            batch_tokens = tokens[:batch].copy()
            tracemalloc.start()
            try:
                forward(net, batch_tokens)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        output_row = 64 * 32 * 8
        assert peaks[4] - peaks[2] <= 2 * output_row + 8192


class TestInPlaceKernels:
    """gelu, softmax and layer_norm reuse their own buffers but give the plain expressions' bits."""

    def test_bitwise_equal_to_plain_expressions_and_input_untouched(self):
        rng = np.random.default_rng(12)
        cubic, scale = 0.44715, math.sqrt(2.0 / math.pi)
        for shape in [(9,), (3, 4, 16)]:
            x = rng.normal(size=shape) * 3
            before = x.copy()
            shifted = x - np.max(x, axis=-1, keepdims=True)
            weights = np.exp(shifted)
            gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
            assert np.array_equal(
                gelu(x), 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * x**3)))
            )
            assert np.array_equal(softmax(x), weights / np.sum(weights, axis=-1, keepdims=True))
            assert np.array_equal(
                layer_norm(x, gamma, beta, 1e-5), (x - mean) / np.sqrt(var + 1e-5) * gamma + beta
            )
            assert np.array_equal(x, before)

    def test_forward_digest_pinned(self):
        # sha256 of the output bytes before the kernels worked in place (float64, same seeds).
        cfg = ToyNetConfig(
            arch=ArchParams(2, 4, 16, 32), emb=EmbeddingConfig(64, 16, 8, 1), seed=11
        )
        tokens = np.random.default_rng(5).integers(0, 64, size=(2, 8))
        out = forward(ToyNet.build(cfg), tokens)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "e25fcd816e188be9911d6537daa44d0fac44c47448c80f059e7f4952246fc4ef"
        )

    def test_forward_digest_pinned_with_saturated_gelu_inputs(self):
        # sha256 of the output bytes while gelu still cubed every lane (float64,
        # same seeds); 9,073 of the net's 131,072 gelu inputs are <= -4.
        cfg = ToyNetConfig(
            arch=ArchParams(2, 4, 512, 1024), emb=EmbeddingConfig(100, 32, 32, 1), seed=11
        )
        tokens = np.random.default_rng(5).integers(0, 100, size=(2, 32))
        out = forward(ToyNet.build(cfg), tokens)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "a15255d86d164cc8ab9be3433109f41405b17739998cce9e97dbcce07e31f641"
        )


def batched_attention(x, query, key, value, heads, stats=None):
    """All heads at once: moveaxis projections, one score stack, the plain softmax."""
    hidden = x.shape[-1]
    head_dim = hidden // heads

    def project(pair):
        out = x @ pair[0] + pair[1]
        return np.moveaxis(out.reshape(*out.shape[:-1], heads, head_dim), -2, -3)

    q, k, v = project(query), project(key), project(value)
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= math.sqrt(head_dim)
    weights = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = weights / np.sum(weights, axis=-1, keepdims=True)
    if stats is not None:
        stats.record_softmax(probs)
    merged = np.moveaxis(probs @ v, -3, -2)
    return merged.reshape(*merged.shape[:-2], hidden)


class TestBlockedKernels:
    """Attention by (sequence, head) block and blocked gelu give the all-at-once bits."""

    @pytest.mark.parametrize(
        "shape,heads",
        [
            ((5, 8), 2),  # (seq, hidden)
            ((3, 6, 12), 3),
            ((2, 2, 5, 8), 4),
            ((2, 7, 6), 1),  # one head
            ((2, 5, 4), 4),  # head_dim 1
            ((3, 1, 8), 2),  # one position
        ],
    )
    @pytest.mark.parametrize("with_stats", [True, False])
    def test_attention_matches_batched_heads(self, shape, heads, with_stats):
        rng = np.random.default_rng(sum(shape) + heads)
        hidden = shape[-1]
        pairs = [(rng.normal(size=(hidden, hidden)), rng.normal(size=hidden)) for _ in range(3)]
        x = rng.normal(size=shape) * 2
        before = x.copy()
        stats, oracle_stats = (ForwardStats(), ForwardStats()) if with_stats else (None, None)
        out = attention(x, *pairs, heads=heads, stats=stats)
        expected = batched_attention(x, *pairs, heads=heads, stats=oracle_stats)
        assert out.shape == x.shape
        assert np.array_equal(out, expected)
        assert np.array_equal(x, before)
        if with_stats:
            assert stats.softmax_row_dev == oracle_stats.softmax_row_dev

    def test_attention_rejects_a_vector(self):
        zero = (np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="sequence, hidden"):
            attention(np.zeros(4), zero, zero, zero, heads=2)

    @pytest.mark.parametrize(
        "shape",
        [(100,), (2**15,), (2**15 + 37,), (3, 2**15 + 5), (50, 1000), (4, 3, 7), (0, 5)],
        ids=["below", "at", "above", "row_longer_than_block", "rows_with_tail", "odd", "empty"],
    )
    def test_gelu_in_place_equals_fresh(self, shape):
        cubic, scale = 0.44715, math.sqrt(2.0 / math.pi)
        x = np.random.default_rng(len(shape)).normal(size=shape) * 4
        fresh = gelu(x.copy())
        assert np.array_equal(fresh, 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * x**3))))
        assert gelu(x, out=x) is x
        assert np.array_equal(x, fresh)

    def test_gelu_writes_a_given_buffer(self):
        x = np.random.default_rng(6).normal(size=(3, 9))
        before = x.copy()
        out = np.empty_like(x)
        assert gelu(x, out=out) is out
        assert np.array_equal(out, gelu(x))
        assert np.array_equal(x, before)

    @pytest.mark.parametrize(
        "out", [np.empty((3, 8)), np.empty((3, 9), dtype=np.float32), np.empty((9, 3)).T]
    )
    def test_gelu_rejects_a_mismatched_buffer(self, out):
        with pytest.raises(ValueError, match="C-contiguous"):
            gelu(np.zeros((3, 9)), out=out)

    @pytest.mark.parametrize(
        "x,out",
        [(np.array([1, 2, 3]), np.zeros(3)), (np.array(2.0), np.zeros(())), (2.0, np.zeros(()))],
        ids=["int_array", "zero_dim", "python_float"],
    )
    def test_gelu_rejects_out_for_an_input_off_the_blocked_path(self, x, out):
        with pytest.raises(ValueError, match="out needs a float array"):
            gelu(x, out=out)
        assert not out.any()

    def test_attention_never_holds_the_score_stack(self):
        # The batched form holds 2*4*128*128 float64 scores (1 MiB) at once.
        rng = np.random.default_rng(8)
        pairs = [(rng.normal(size=(64, 64)), rng.normal(size=64)) for _ in range(3)]
        x = rng.normal(size=(2, 128, 64))
        tracemalloc.start()
        try:
            attention(x, *pairs, heads=4, stats=ForwardStats())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4 * 128 * 128 * 8


def sequential_weights(net: ToyNet) -> dict[str, np.ndarray]:
    """The reference draw: one default_rng(seed).uniform call per array, in creation order."""
    rng = np.random.default_rng(net.config.seed)
    return {name: rng.uniform(-0.5, 0.5, size=a.shape) for name, a in net.weights.items()}


@pytest.fixture
def eight_workers(monkeypatch):
    """More threads than cores, switching as often as the interpreter allows."""
    monkeypatch.setattr(toynet, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestThreadedKernels:
    """The weight fill and gelu, split over threads, give the sequential bits."""

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    def test_build_matches_sequential_draw_in_small_chunks(self, seed, eight_workers, monkeypatch):
        # 7-element chunks: every tensor spans several, and boundaries fall mid-tensor.
        monkeypatch.setattr(toynet, "_FILL_CHUNK", 7)
        net = ToyNet.build(ToyNetConfig(arch=SMALL.arch, emb=SMALL.emb, seed=seed))
        reference = sequential_weights(net)
        assert list(net.weights) == list(reference)
        assert all(np.array_equal(net.weights[k], reference[k]) for k in reference)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_build_matches_sequential_draw_in_full_chunks(self, seed, eight_workers):
        # The 20,000 x 64 token table spans two default chunks, split mid-tensor,
        # and every later tensor starts off a chunk boundary.
        emb = EmbeddingConfig(20_000, 16, 8, 1)
        assert emb.vocab * 64 > toynet._FILL_CHUNK
        net = ToyNet.build(ToyNetConfig(arch=ArchParams(2, 2, 64, 128), emb=emb, seed=seed))
        reference = sequential_weights(net)
        assert all(np.array_equal(net.weights[k], reference[k]) for k in reference)

    def test_build_allocation_failure_raises_before_any_thread(self, monkeypatch):
        def no_threads(fn, parts):
            raise AssertionError("workers started")

        monkeypatch.setattr(toynet, "_run_parts", no_threads)
        emb = EmbeddingConfig(2**60, 16, 8, 1)
        with pytest.raises((MemoryError, ValueError)):
            ToyNet.build(ToyNetConfig(arch=SMALL.arch, emb=emb))

    @pytest.mark.parametrize(
        "shape", [(300, 1000), (64, 3000), (2, 512, 96), (40, 2**14 + 1), (0, 5), (7,)],
        ids=["many_blocks", "fewer_blocks_than_workers", "3d", "one_row_per_block", "empty",
             "one_block"],
    )
    def test_gelu_matches_plain_expression(self, shape, eight_workers):
        cubic, scale = 0.44715, math.sqrt(2.0 / math.pi)
        x = np.random.default_rng(sum(shape)).normal(size=shape) * 4
        expected = 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * x**3)))
        assert np.array_equal(gelu(x), expected)
        assert gelu(x, out=x) is x
        assert np.array_equal(x, expected)

    def test_gelu_bits_match_plain_expression_where_saturated_and_special(self, eight_workers):
        # array_equal counts -0.0 == 0.0, so compare the bits.
        cubic, scale = 0.44715, math.sqrt(2.0 / math.pi)
        special = [-4.0, np.nextafter(-4.0, 0.0), -1e300, -np.finfo(float).max, -np.inf, np.inf,
                   np.nan, 0.0, -0.0, 5e-324, -5e-324]
        x = np.random.default_rng(15).normal(size=(300, 1000)) * 4
        x[:, : len(special)] = special  # every row, so every block and thread
        assert np.count_nonzero(x <= -4) > 40_000
        with np.errstate(over="ignore", invalid="ignore"):
            expected = 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * x**3)))
        for out in (None, x):  # -inf * 0.0 warns in gelu too
            with pytest.warns(RuntimeWarning, match="invalid value"):
                result = gelu(x, out=out)
            assert np.array_equal(result.view(np.uint64), expected.view(np.uint64))

    def test_gelu_workers_keep_the_callers_errstate(self, eight_workers):
        # One -inf per row, so every block and thread meets an invalid -inf * 0.0.
        x = np.random.default_rng(16).normal(size=(300, 1000))
        x[:, 0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                gelu(x)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            gelu(x)

    def test_run_parts_gives_the_calling_thread_the_first_part(self, eight_workers):
        ran = []
        toynet._run_parts(lambda part: ran.append((part, threading.get_ident())), list(range(5)))
        assert sorted(part for part, _ in ran) == list(range(5))
        assert (0, threading.get_ident()) in ran

    def test_run_parts_with_one_cpu_runs_in_order_here(self, monkeypatch):
        monkeypatch.setattr(toynet, "_workers", lambda: 1)
        ran = []
        toynet._run_parts(lambda part: ran.append((part, threading.get_ident())), [0, 1, 2])
        assert ran == [(part, threading.get_ident()) for part in range(3)]

    @pytest.mark.parametrize("failing", [0, 3])
    def test_run_parts_raises_a_failure_here(self, failing, eight_workers):
        def fn(part):
            if part == failing:
                raise ArithmeticError(part)

        with pytest.raises(ArithmeticError):
            toynet._run_parts(fn, list(range(5)))


class TestDrawnTokenRows:
    """build(config, tokens) draws only the token rows read, with the full build's bits."""

    @pytest.mark.parametrize("seed", [0, 2**40 + 7])
    def test_drawn_rows_and_forward_match_the_full_build(self, seed, eight_workers, monkeypatch):
        # 5-element chunks: the full table's 8-wide rows straddle chunk
        # boundaries, and each drawn row is filled in two pieces.
        monkeypatch.setattr(toynet, "_FILL_CHUNK", 5)
        cfg = ToyNetConfig(arch=SMALL.arch, emb=SMALL.emb, seed=seed)
        ids = np.array([0, 1, 7, 12, 20, 31])  # id 0 and id vocab-1
        tokens = np.random.default_rng(seed % 97).choice(ids, size=(3, 8))  # ids repeat
        tokens[0, :3] = 31
        tokens[1, :6] = ids[::-1]  # every id, unsorted
        full = ToyNet.build(cfg)
        drawn = ToyNet.build(cfg, tokens=tokens)
        assert drawn.token_ids.tolist() == np.unique(tokens).tolist() == ids.tolist()
        assert drawn.token_ids.dtype == np.int64 and not drawn.token_ids.flags.writeable
        assert list(drawn.weights) == list(full.weights)
        table = "embedding.token_table"
        assert drawn.weights[table].tobytes() == full.weights[table][ids].tobytes()
        assert all(
            drawn.weights[k].tobytes() == full.weights[k].tobytes() for k in full.weights
            if k != table
        )
        assert forward(drawn, tokens).tobytes() == forward(full, tokens).tobytes()

    @pytest.mark.parametrize(
        "tokens",
        [[[-1, 2]], [[0, 32]], [0, 1], [[0.0, 1.0]], [[True]]],
        ids=["negative", "vocab", "one_axis", "float", "bool"],
    )
    def test_build_rejects_other_token_ids(self, tokens):
        with pytest.raises(DataError) as from_build:
            ToyNet.build(SMALL, tokens=np.array(tokens))
        with pytest.raises(DataError) as from_forward:
            forward(ToyNet.build(SMALL), np.array(tokens))
        assert str(from_build.value) == str(from_forward.value)

    def test_build_rejects_an_unsigned_id_beyond_int64(self):
        cfg = ToyNetConfig(arch=SMALL.arch, emb=EmbeddingConfig(10**20, 16, 2, 1))
        tokens = np.array([[0, 2**62], [7, 2**63 + 5]], dtype=np.uint64)
        fault = r"token id 9223372036854775813 beyond int64 .* at batch 1, position 1$"
        with pytest.raises(DataError, match=fault) as from_build:
            ToyNet.build(cfg, tokens=tokens)
        with pytest.raises(DataError) as from_forward:
            forward(ToyNet.build(cfg, tokens=[[0]]), tokens)
        assert str(from_build.value) == str(from_forward.value)
        held = ToyNet.build(cfg, tokens=tokens[:1])  # ids below 2**63 are held as themselves
        assert held.token_ids.tolist() == [0, 2**62]
        assert forward(held, tokens[:1]).shape == (1, 2, SMALL.arch.hidden)

    def test_forward_on_an_id_not_held_names_it(self):
        net = ToyNet.build(SMALL, tokens=[[31, 0, 5, 0]])
        tokens = np.array([[0, 5, 31, 5, 0, 0, 0, 0], [5, 5, 0, 31, 6, 0, 0, 0]])
        with pytest.raises(DataError, match=r"token id 6 at batch 1, position 4 is not among"):
            forward(net, tokens)
        with pytest.raises(DataError, match=r"token id 0 at batch 0, position 0 is not among"):
            forward(ToyNet.build(SMALL, tokens=np.zeros((0, 8), dtype=np.int64)), tokens)

    def test_count_is_the_closed_form_on_a_partial_net(self):
        partial = ToyNet.build(SMALL, tokens=[[9, 2, 9]])
        assert partial.weights["embedding.token_table"].shape == (2, 8)
        assert (
            count_instantiated_params(partial)
            == count_instantiated_params(ToyNet.build(SMALL))
            == param_count(SMALL.arch, SMALL.emb)
        )

    def test_memory_holds_the_drawn_rows_not_the_table(self):
        # The full 50,265 x 64 table is 24.5 MiB; 16 drawn rows are 8 KiB.
        cfg = ToyNetConfig(arch=ArchParams(2, 2, 64, 128), emb=EmbeddingConfig(50_265, 16, 8, 1))
        ids = np.arange(0, 50_265, 3_141)[:16]
        rest = param_count(cfg.arch, cfg.emb) - cfg.emb.vocab * 64
        tracemalloc.start()
        try:
            net = ToyNet.build(cfg, tokens=ids.reshape(2, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.weights["embedding.token_table"].shape == (16, 64)
        assert peak < (rest + 16 * 64) * 8 + 512 * 1024


def weight_bytes(net: ToyNet) -> bytes:
    """Every weight's bytes in creation order; a streamed net's layers as forward draws them."""
    if net.layer_offsets is None:
        return b"".join(array.tobytes() for array in net.weights.values())
    held = {part: [a.tobytes() for k, a in net.weights.items() if k.startswith(part)]
            for part in ("embedding.", "pooler.")}
    layers = [array.tobytes() for layer in toynet._layers(net) for array in layer.values()]
    return b"".join(held["embedding."] + layers + held["pooler."])


@st.composite
def streamed_cases(draw):
    """A small config, its token matrix and whether the streamed net holds only the rows read."""
    heads = draw(st.integers(1, 3))
    seq = draw(st.integers(1, 6))
    emb = EmbeddingConfig(draw(st.integers(1, 40)), seq + draw(st.integers(0, 3)), seq, 1)
    depth, width = draw(st.sampled_from([2, 4])), draw(st.integers(1, 4))
    arch = ArchParams(depth, heads, heads * width, draw(st.integers(1, 12)))
    cfg = ToyNetConfig(arch=arch, emb=emb, seed=draw(st.sampled_from([0, 2**40 + 7])))
    tokens = np.array(
        draw(st.lists(st.lists(st.integers(0, emb.vocab - 1), min_size=seq, max_size=seq),
                      min_size=1, max_size=3))
    )
    return cfg, tokens, draw(st.booleans())


class TestStreamedLayers:
    """build(streamed=True) holds no encoder layer; forward draws each, bitwise as built."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=streamed_cases(), chunk=st.integers(1, 64))
    def test_streamed_forward_matches_the_full_build(self, case, chunk, eight_workers,
                                                     monkeypatch):
        # Chunks of at most 64 elements: layer arrays straddle chunk boundaries.
        monkeypatch.setattr(toynet, "_FILL_CHUNK", chunk)
        cfg, tokens, partial = case
        full, full_stats = forward_with_stats(ToyNet.build(cfg), tokens)
        net = ToyNet.build(cfg, tokens=tokens if partial else None, streamed=True)
        assert not any(name.startswith("encoder.") for name in net.weights)
        out, stats = forward_with_stats(net, tokens)
        assert out.tobytes() == full.tobytes()
        assert stats.softmax_row_dev.hex() == full_stats.softmax_row_dev.hex()
        assert forward(net, tokens).tobytes() == out.tobytes()

    @pytest.mark.parametrize("tokens", [None, [[9, 2, 9]]], ids=["full_table", "partial_table"])
    def test_count_is_the_closed_form(self, tokens):
        cfg = ToyNetConfig(arch=ArchParams(4, 2, 8, 16), emb=SMALL.emb)
        net = ToyNet.build(cfg, tokens=tokens, streamed=True)
        assert len(net.layer_offsets) == 4
        assert count_instantiated_params(net) == param_count(cfg.arch, cfg.emb)

    def test_forward_holds_one_layer_at_a_time(self):
        # One layer of this net is 12,704 doubles (99 KiB); a deeper net adds none.
        emb = EmbeddingConfig(50, 16, 16, 1)
        tokens = np.random.default_rng(3).integers(0, 50, size=(2, 16))
        peaks = {}
        for depth in (2, 6):
            net = ToyNet.build(
                ToyNetConfig(arch=ArchParams(depth, 2, 32, 128), emb=emb), tokens=tokens,
                streamed=True,
            )
            tracemalloc.start()
            try:
                forward(net, tokens)
                peaks[depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] > 12_704 * 8
        assert peaks[6] - peaks[2] <= 8192

    def test_weight_digest_pinned(self):
        # sha256 of every weight in creation order. The PCG64 stream and u - 0.5
        # are exact, so this holds on every host, unlike the forward's digests.
        cfg = ToyNetConfig(arch=ArchParams(4, 2, 8, 16), emb=SMALL.emb, seed=2**40 + 7)
        digest = "0e6c9e52f15de5ad9b614d1683de8f569fed015b7f28f4f2b27f678e7f89c0c2"
        for net in (ToyNet.build(cfg), ToyNet.build(cfg, streamed=True)):
            assert hashlib.sha256(weight_bytes(net)).hexdigest() == digest


class TestInstantiatedCount:
    def test_hand_value(self):
        # 2*(4*64 + 2*8*16 + 72 + 16) + 64 + (32+16+6)*8 = 1696
        net = ToyNet.build(SMALL)
        assert count_instantiated_params(net) == 1696
        assert count_instantiated_params(net) == param_count(SMALL.arch, SMALL.emb)

    def test_minimal_config(self):
        cfg = ToyNetConfig(arch=ArchParams(2, 1, 1, 1), emb=TINY_EMB)
        assert count_instantiated_params(ToyNet.build(cfg)) == 41

    @pytest.mark.parametrize(
        "arch,emb",
        [
            (ArchParams(2, 2, 4, 8), EmbeddingConfig(8, 4, 2, 1)),
            (ArchParams(4, 4, 8, 4), EmbeddingConfig(16, 8, 4, 1)),
            (ArchParams(2, 4, 16, 32), EmbeddingConfig(24, 12, 6, 1)),
            (ArchParams(6, 2, 6, 24), EmbeddingConfig(10, 6, 3, 1)),
            (ArchParams(8, 2, 2, 2), EmbeddingConfig(5, 3, 2, 1)),
            (ArchParams(2, 8, 16, 64), EmbeddingConfig(40, 20, 10, 1)),
            (ArchParams(4, 1, 3, 5), EmbeddingConfig(7, 5, 2, 1)),
            (ArchParams(2, 3, 9, 2), EmbeddingConfig(11, 9, 4, 1)),
        ],
    )
    def test_matches_formula_and_oracle(self, arch, emb):
        net = ToyNet.build(ToyNetConfig(arch=arch, emb=emb))
        assert (
            count_instantiated_params(net)
            == shape_oracle_params(arch, emb)
            == param_count(arch, emb)
        )


class TestKdLoss:
    @pytest.mark.parametrize("classes", [2, 10, 100])
    def test_uniform_identical_logits(self, classes):
        logits = np.zeros((4, classes))
        value = kd_loss(logits, logits, mlm_loss=0.0, weight=0.5, temperature=2.0)
        assert value == pytest.approx(0.5 * math.log(classes), abs=1e-9)

    def test_weight_zero_returns_mlm_loss(self):
        rng = np.random.default_rng(10)
        student, teacher = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        assert kd_loss(student, teacher, mlm_loss=1.75, weight=0.0) == 1.75

    def test_weight_one_returns_distillation_term(self):
        rng = np.random.default_rng(11)
        student, teacher = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        distill = distillation_loss(student, teacher, temperature=2.0)
        assert kd_loss(student, teacher, mlm_loss=3.0, weight=1.0) == distill

    def test_linearity_in_mlm_loss(self):
        rng = np.random.default_rng(12)
        student, teacher = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        distill = distillation_loss(student, teacher, temperature=2.0)
        # Exact at the weight endpoints; tight tolerance in the interior where
        # IEEE rounding of the blended sum can shave an ulp.
        assert kd_loss(student, teacher, 2.0, weight=0.0) - 0.0 * distill == 2.0
        assert kd_loss(student, teacher, 2.0, weight=1.0) - distill == 0.0
        for weight in (0.25, 0.5, 0.75):
            blended = kd_loss(student, teacher, 2.0, weight=weight)
            assert blended - weight * distill == pytest.approx((1 - weight) * 2.0, abs=1e-12)

    def test_minimized_when_softened_distributions_match(self):
        teacher = np.array([[1.0, -0.5]])
        target_gap = teacher[0, 0] - teacher[0, 1]
        gaps = np.linspace(-4.0, 4.0, 801)
        losses = [
            distillation_loss(np.array([[gap / 2, -gap / 2]]), teacher, temperature=2.0)
            for gap in gaps
        ]
        best_gap = gaps[int(np.argmin(losses))]
        assert abs(best_gap - target_gap) <= (gaps[1] - gaps[0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 4)), 0.0)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), 0.0, temperature=0.0)

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), 0.0, weight=1.5)


class TestInputChecks:
    def test_forward_rejects_a_vector_of_tokens(self):
        with pytest.raises(DataError, match=r"\(batch, sequence\) matrix"):
            forward(ToyNet.build(SMALL), np.zeros(8, dtype=np.int64))

    @pytest.mark.parametrize("shape", [(2, 0), (0, 0)])
    def test_forward_rejects_an_empty_sequence(self, shape):
        with pytest.raises(DataError, match=re.escape(f"(got shape {shape})")):
            forward(ToyNet.build(SMALL), np.zeros(shape, dtype=np.int64))

    def test_forward_rejects_a_sequence_longer_than_the_position_table(self):
        with pytest.raises(DataError, match="sequence length 17 exceeds the position table"):
            forward(ToyNet.build(SMALL), np.zeros((1, 17), dtype=np.int64))

    @pytest.mark.parametrize(
        "kernel", [softmax, lambda x: layer_norm(x, np.ones(1), np.zeros(1))],
        ids=["softmax", "layer_norm"],
    )
    @pytest.mark.parametrize(
        "x", [np.float64(1.0), np.array(1.0), 1.0], ids=["numpy_scalar", "zero_d", "float"]
    )
    def test_kernels_reject_an_input_with_no_axis(self, kernel, x):
        with pytest.raises(ValueError, match=re.escape("at least one axis (got shape ())")):
            kernel(x)

    @pytest.mark.parametrize("which", ["scale", "shift"])
    def test_layer_norm_rejects_a_mismatched_affine_pair(self, which):
        pair = {"scale": np.ones(4), "shift": np.zeros(4)}
        pair[which] = np.ones(3)
        with pytest.raises(ValueError, match="scale and shift must match"):
            layer_norm(np.zeros((2, 4)), pair["scale"], pair["shift"])

    def test_kd_loss_rejects_a_negative_mlm_loss(self):
        with pytest.raises(ValueError, match="mlm_loss must be non-negative"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), mlm_loss=-0.5)

    @pytest.mark.parametrize("mlm_loss", [math.nan, math.inf])
    def test_kd_loss_rejects_a_non_finite_mlm_loss(self, mlm_loss):
        with pytest.raises(ValueError, match="mlm_loss must be non-negative and finite"):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), mlm_loss=mlm_loss)
