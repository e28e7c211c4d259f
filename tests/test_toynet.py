import hashlib
import math
import re
import sys
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

# The real bit generator, for tests that count its constructions through a wrapper.
PCG64 = np.random.PCG64

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

    def test_close_to_x_times_the_normal_cdf(self):
        # The tanh form approximates x * Phi(x) (Hendrycks & Gimpel, arXiv 1606.08415)
        # to within 4.7e-4 on this grid; a cubic term ten times too large misses by 0.093.
        xs = np.linspace(-8.0, 8.0, 16_001)
        exact = [x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in xs.tolist()]
        assert np.max(np.abs(gelu(xs) - exact)) <= 5e-4

    def test_python_float_whose_cube_overflows(self):
        # float ** 3 raises OverflowError; the product x * x * x is an infinity.
        assert math.copysign(1.0, gelu(-1e200)) == -1.0 and gelu(-1e200) == 0.0
        assert gelu(1e200) == 1e200

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
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        for shape in [(9,), (3, 4, 16)]:
            x = rng.normal(size=shape) * 3
            before = x.copy()
            shifted = x - np.max(x, axis=-1, keepdims=True)
            weights = np.exp(shifted)
            gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
            assert np.array_equal(
                gelu(x), 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x))))
            )
            assert np.array_equal(softmax(x), weights / np.sum(weights, axis=-1, keepdims=True))
            assert np.array_equal(
                layer_norm(x, gamma, beta, 1e-5), (x - mean) / np.sqrt(var + 1e-5) * gamma + beta
            )
            assert np.array_equal(x, before)

    def test_forward_digest_pinned(self):
        # sha256 of the output bytes with gelu's cube as x * x * x and GELU_CUBIC
        # 0.044715 (float64, same seeds).
        # Host-bound: tanh, exp and the matmuls take their bits from numpy's SIMD
        # dispatch and the BLAS kernel, so this holds on an AVX-512 host (ROADMAP item 10).
        cfg = ToyNetConfig(
            arch=ArchParams(2, 4, 16, 32), emb=EmbeddingConfig(64, 16, 8, 1), seed=11
        )
        tokens = np.random.default_rng(5).integers(0, 64, size=(2, 8))
        out = forward(ToyNet.build(cfg), tokens)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "108058bf48da693310e18ca236888e57e85551de0f6011561847c4c9a8d48cf8"
        )

    def test_forward_digest_pinned_with_saturated_gelu_inputs(self):
        # sha256 of the output bytes with gelu's cube as x * x * x and GELU_CUBIC
        # 0.044715 (float64, same seeds); of the net's 131,072 gelu inputs, 9,073
        # are <= -4 and 61 are <= -7.5, where the expression's tanh is -1.0.
        # Host-bound like the pin above (ROADMAP item 10).
        cfg = ToyNetConfig(
            arch=ArchParams(2, 4, 512, 1024), emb=EmbeddingConfig(100, 32, 32, 1), seed=11
        )
        tokens = np.random.default_rng(5).integers(0, 100, size=(2, 32))
        out = forward(ToyNet.build(cfg), tokens)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "b830cfedcd5e5465b5c4dd28316ab82971c08227ea46e2e5cf812b8498b91927"
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
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        x = np.random.default_rng(len(shape)).normal(size=shape) * 4
        fresh = gelu(x.copy())
        assert np.array_equal(fresh, 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x)))))
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


@st.composite
def kernel_inputs(draw):
    """A float64 array of 1-3 axes, the last 1-600 wide, with signed zeros, subnormals
    and magnitudes up to 1e300 (whose squares overflow), and an axis of it."""
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2)), draw(st.integers(1, 600)))
    values = st.one_of(st.floats(-1e300, 1e300), st.floats(-40.0, 40.0),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -np.finfo(float).tiny]))
    x = draw(hnp.arrays(np.float64, shape, elements=values))
    return x, draw(st.integers(-len(shape), len(shape) - 1))


class TestOutBuffers:
    """softmax and layer_norm take gelu's `out`: the same bits, written where asked."""

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_inputs())
    def test_out_gives_the_bits_of_a_fresh_result(self, case):
        x, axis = case
        width = x.shape[-1]
        scale, shift = np.linspace(-2.0, 3.0, width), np.linspace(1.0, -1.0, width)
        kernels = [lambda a, out=None: softmax(a, axis, out=out),
                   lambda a, out=None: layer_norm(a, scale, shift, 1e-5, out=out)]
        before = x.copy()
        with np.errstate(over="ignore", under="ignore"):
            for kernel in kernels:
                fresh = kernel(x)
                given_out, in_place = np.empty_like(x), x.copy()
                assert kernel(x, out=given_out) is given_out
                assert kernel(in_place, out=in_place) is in_place
                for result in (given_out, in_place):
                    assert np.array_equal(result.view(np.uint64), fresh.view(np.uint64))
                assert np.array_equal(x.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize(
        "kernel", [softmax, lambda x, out: layer_norm(x, np.ones(9), np.zeros(9), out=out)],
        ids=["softmax", "layer_norm"],
    )
    @pytest.mark.parametrize(
        "x,out",
        [
            (np.zeros((3, 9)), np.empty((3, 8))),
            (np.zeros((3, 9)), np.empty((3, 9), dtype=np.float32)),
            (np.zeros((3, 9)), np.empty((9, 3)).T),
            (np.zeros((3, 9)), [[0.0] * 9] * 3),
            (np.arange(9), np.zeros(9)),
            (np.array(2.0), np.zeros(())),
        ],
        ids=["shape", "dtype", "not_contiguous", "not_an_array", "int_input", "zero_dim"],
    )
    def test_a_mismatched_out_is_rejected(self, kernel, x, out):
        before = np.array(out, copy=True)
        with pytest.raises(ValueError):
            kernel(x, out=out)
        # Bitwise: out comes from np.empty, and a NaN pattern in it is unequal to itself.
        assert np.asarray(out).tobytes() == before.tobytes()

    def test_out_keeps_a_float32_input_in_float32(self):
        x = np.random.default_rng(14).normal(size=(4, 8)).astype(np.float32)

        def norm(a, out=None):
            return layer_norm(a, np.ones(8), np.zeros(8), out=out)

        for kernel in (softmax, norm):
            result = kernel(x, out=np.empty_like(x))
            assert result.dtype == np.float32
            assert np.allclose(result, kernel(x.astype(np.float64)), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("shift", [1, -1], ids=["out_before_x", "out_after_x"])
    def test_gelu_out_overlapping_x_gives_the_fresh_bits(self, shift):
        # One row per block: a block written straight into out may overwrite a
        # row of x that a later block has still to read.
        buf = np.random.default_rng(17).normal(size=(41, 2**14 + 1))
        x, out = (buf[1:], buf[:-1]) if shift == 1 else (buf[:-1], buf[1:])
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        expected = 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x))))
        assert gelu(x, out=out) is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_softmax_in_place_allocates_only_the_row_reductions(self):
        # Beside the row maxima and sums, numpy's ufunc iterator may take one buffer of
        # getbufsize() elements for the broadcast subtract and divide; a copy of x is 512 KiB.
        x = np.random.default_rng(13).normal(size=(256, 256))
        tracemalloc.start()
        try:
            softmax(x, out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 8 + np.getbufsize() * x.itemsize

    def test_layer_norm_in_place_squares_into_a_small_scratch(self):
        # Squaring the whole centred input would take a copy of x: 3 MiB here.
        x = np.random.default_rng(15).normal(size=(512, 768))
        tracemalloc.start()
        try:
            layer_norm(x, np.ones(768), np.zeros(768), out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 8


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


@pytest.fixture(params=[1, 8], ids=["one_worker", "eight_workers"])
def workers(request, monkeypatch):
    """The draw's chunks on this thread alone, or on the eight_workers fixture's threads;
    only the weight draw uses threads."""
    if request.param == 1:
        monkeypatch.setattr(toynet, "_workers", lambda: 1)
    else:
        request.getfixturevalue("eight_workers")


def float_bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


# float64 bit patterns: any at all (NaN payloads included), subnormals of both
# signs, the range the tanh form bends in, negatives whose cube overflows, and
# the edge values.
gelu_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(lambda t: t[0] << 63 | t[1]),
    st.floats(-8.0, 8.0).map(float_bits),
    st.floats(max_value=-5.7e102, allow_infinity=False).map(float_bits),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -4.0, np.nextafter(-4.0, 0.0),
                     -np.finfo(float).max, -np.finfo(float).tiny]).map(float_bits),
)


@st.composite
def gelu_arrays(draw):
    """A (rows, width) float64 array of gelu_bits patterns."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    bits = draw(st.lists(gelu_bits, min_size=rows * width, max_size=rows * width))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, width)


@st.composite
def stretch_lists(draw):
    """(stream offset, size) of stretches with gaps between them, touching, overlapping
    or empty, in stream order or shuffled."""
    stretches, at = [], 0
    for gap, size in draw(st.lists(st.tuples(st.integers(-20, 40), st.integers(0, 30)),
                                   min_size=1, max_size=12)):
        at = max(0, at + gap)
        stretches.append((at, size))
        at += size
    return draw(st.permutations(stretches)) if draw(st.booleans()) else stretches


class TestThreadedKernels:
    """The weight fill, split over threads, gives the sequential bits; gelu, on the
    calling thread alone, gives the plain expression's."""

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
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        x = np.random.default_rng(sum(shape)).normal(size=shape) * 4
        expected = 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x))))
        assert np.array_equal(gelu(x), expected)
        assert gelu(x, out=x) is x
        assert np.array_equal(x, expected)

    def test_gelu_bits_match_plain_expression_where_saturated_and_special(self, eight_workers):
        # array_equal counts -0.0 == 0.0, so compare the bits.
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        special = [-4.0, np.nextafter(-4.0, 0.0), -1e300, -np.finfo(float).max, -np.inf, np.inf,
                   np.nan, 0.0, -0.0, 5e-324, -5e-324]
        x = np.random.default_rng(15).normal(size=(300, 1000)) * 4
        x[:, : len(special)] = special  # every row, so every block
        assert np.count_nonzero(x <= -4) > 40_000
        with np.errstate(over="ignore", invalid="ignore"):
            expected = 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x))))
        for out in (None, x):  # -inf * 0.0 and the cube of -1e300 warn in gelu too
            with (pytest.warns(RuntimeWarning, match="invalid value"),
                  pytest.warns(RuntimeWarning, match="overflow encountered in multiply")):
                result = gelu(x, out=out)
            assert np.array_equal(result.view(np.uint64), expected.view(np.uint64))

    def test_gelu_workers_keep_the_callers_errstate(self, eight_workers):
        # One -inf per row, so every block meets an invalid -inf * 0.0.
        x = np.random.default_rng(16).normal(size=(300, 1000))
        x[:, 0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                gelu(x)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            gelu(x)

    def test_gelu_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("gelu started a thread pool")

        monkeypatch.setattr(toynet, "_workers", lambda: 8)
        monkeypatch.setattr(toynet, "ThreadPoolExecutor", no_pool)
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        x = np.random.default_rng(18).normal(size=(300, 1000)) * 4
        expected = 0.5 * x * (1.0 + np.tanh(scale * (x + cubic * (x * x * x))))
        assert np.array_equal(gelu(x).view(np.uint64), expected.view(np.uint64))
        assert gelu(x, out=x) is x
        assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(x=gelu_arrays(), block=st.integers(1, 16))
    def test_gelu_bits_match_plain_expression_on_any_input(self, x, block, workers, monkeypatch):
        # Blocks of at most 16 elements, so most arrays span several blocks.
        monkeypatch.setattr(toynet, "_GELU_BLOCK", block)
        cubic, scale = 0.044715, math.sqrt(2.0 / math.pi)
        with np.errstate(over="ignore", invalid="ignore"):
            half = 0.5 * x
            factor = 1.0 + np.tanh(scale * (x + cubic * (x * x * x)))
            expected = half * factor
            fresh = gelu(x)
            in_place = x.copy()
            assert gelu(in_place, out=in_place) is in_place
        # Where x is a NaN, the last multiply has two NaN operands: half holds x's
        # NaN, and factor holds tanh's default NaN. numpy's multiply returns either,
        # by the lane's place in its SIMD loop, so those lanes must hold one of the
        # two. Every other lane is compared bit for bit.
        nan = np.isnan(x)
        # At or below -7.5 the tanh argument is below -21, whose tanh rounds to -1.0.
        saturated = np.isfinite(x) & (x <= -7.5)
        for result in (fresh, in_place):
            bits = result.view(np.uint64)
            assert np.array_equal(bits[~nan], expected.view(np.uint64)[~nan])
            assert ((bits[nan] == half.view(np.uint64)[nan])
                    | (bits[nan] == factor.view(np.uint64)[nan])).all()
            assert (bits[saturated] == float_bits(-0.0)).all()

    def test_gelu_warns_where_the_cube_overflows(self, eight_workers, monkeypatch):
        # One row per block, so every block meets the overflow.
        monkeypatch.setattr(toynet, "_GELU_BLOCK", 3)
        x = np.array([[-5.7e102, -np.finfo(float).max, 1e200]] * 300)
        for out in (None, x.copy()):
            with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
                result = gelu(x if out is None else out, out=out)
            assert (result[:, :2].view(np.uint64) == float_bits(-0.0)).all()
            assert (result[:, 2] == 1e200).all()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=stretch_lists(), chunk=st.integers(1, 64), seed=st.sampled_from([0, 2**40 + 7]))
    def test_draw_reads_the_stream_at_each_offset(self, case, chunk, seed, workers, monkeypatch):
        monkeypatch.setattr(toynet, "_FILL_CHUNK", chunk)
        seeded = []
        monkeypatch.setattr(np.random, "PCG64", lambda s: seeded.append(s) or PCG64(s))
        stretches = [(at, np.full(size, np.nan)) for at, size in case]
        toynet._draw(seed, stretches)
        stream = np.random.default_rng(seed).random(max(at + a.size for at, a in stretches))
        for at, array in stretches:
            assert array.tobytes() == (stream[at : at + array.size] - 0.5).tobytes()
        assert len(seeded) == math.ceil(sum(a.size for _, a in stretches) / chunk)

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


def recording_fill(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """Patch toynet._fill to record a copy of every (stream offset, piece) it fills."""
    filled, fill = [], toynet._fill

    def recording(seed, pieces):
        pieces = list(pieces)
        fill(seed, pieces)
        filled.extend((at, piece.copy()) for at, piece in pieces)

    monkeypatch.setattr(toynet, "_fill", recording)
    return filled


class TestDrawnTokenRows:
    """A streamed forward draws each token's row from its place in the stream, with
    the full build's bits, and holds no token table."""

    @pytest.mark.parametrize("seed", [0, 2**40 + 7])
    def test_drawn_rows_and_forward_match_the_full_build(self, seed, eight_workers, monkeypatch):
        # 5-element chunks: the full table's 8-wide rows straddle chunk boundaries,
        # while the streamed forward draws each sequence's token rows by one fill.
        monkeypatch.setattr(toynet, "_FILL_CHUNK", 5)
        cfg = ToyNetConfig(arch=SMALL.arch, emb=SMALL.emb, seed=seed)
        ids = np.array([0, 1, 7, 12, 20, 31])  # id 0 and id vocab-1
        tokens = np.random.default_rng(seed % 97).choice(ids, size=(3, 8))  # ids repeat
        tokens[0, :3] = 31
        tokens[1, :6] = ids[::-1]  # every id, unsorted
        full = ToyNet.build(cfg)
        table = full.weights["embedding.token_table"]
        filled = recording_fill(monkeypatch)
        out = forward(ToyNet.build(cfg, streamed=True), tokens)
        rows = [(at, row) for at, row in filled if at < table.size]  # the table leads the stream
        assert [at for at, _ in rows] == (tokens.reshape(-1) * 8).tolist()
        assert b"".join(row.tobytes() for _, row in rows) == table[tokens.reshape(-1)].tobytes()
        assert out.tobytes() == forward(full, tokens).tobytes()

    @pytest.mark.parametrize(
        "tokens",
        [[[-1, 2]], [[0, 32]], [0, 1], [[0.0, 1.0]], [[True]]],
        ids=["negative", "vocab", "one_axis", "float", "bool"],
    )
    def test_build_rejects_other_token_ids(self, tokens):
        with pytest.raises(DataError) as from_streamed:
            forward(ToyNet.build(SMALL, streamed=True), np.array(tokens))
        with pytest.raises(DataError) as from_full:
            forward(ToyNet.build(SMALL), np.array(tokens))
        assert str(from_streamed.value) == str(from_full.value)

    def test_build_rejects_an_unsigned_id_beyond_int64(self, monkeypatch):
        cfg = ToyNetConfig(arch=SMALL.arch, emb=EmbeddingConfig(10**20, 16, 2, 1))
        net = ToyNet.build(cfg, streamed=True)
        tokens = np.array([[0, 2**62], [7, 2**63 + 5]], dtype=np.uint64)
        fault = r"token id 9223372036854775813 beyond int64 .* at batch 1, position 1$"
        with pytest.raises(DataError, match=fault):
            forward(net, tokens)
        # Ids below 2**63 are read as themselves, at offsets past int64: an int64
        # ids * hidden would wrap 2**62 * 8.
        filled = recording_fill(monkeypatch)
        assert forward(net, tokens[:1]).shape == (1, 2, SMALL.arch.hidden)
        rows = [(at, row) for at, row in filled if at < cfg.emb.vocab * SMALL.arch.hidden]
        assert [at for at, _ in rows] == [0, 2**65]
        stream = np.random.Generator(PCG64(cfg.seed))
        stream.bit_generator.advance(2**65)
        assert rows[1][1].tobytes() == (stream.random(8) - 0.5).tobytes()

    def test_build_seeds_one_generator_per_chunk_not_per_row(self, monkeypatch):
        # One generator per draw chunk of each group and one per sequence's token rows.
        monkeypatch.setattr(toynet, "_FILL_CHUNK", 4096)
        seeded = []
        monkeypatch.setattr(np.random, "PCG64", lambda s: seeded.append(s) or PCG64(s))
        cfg = ToyNetConfig(arch=ArchParams(2, 2, 16, 32), emb=EmbeddingConfig(5000, 16, 10, 1))
        ids = np.random.default_rng(4).choice(5000, size=1000, replace=False)
        forward(ToyNet.build(cfg, streamed=True), ids.reshape(100, 10))
        chunks = sum(
            -(-toynet._size(shapes[1:] if prefix == "embedding" else shapes) // 4096)
            for prefix, shapes, _ in toynet._layout(cfg)
        )
        assert len(seeded) == chunks + 100 < 120

    def test_memory_holds_the_drawn_rows_not_the_table(self):
        # The 50,265 x 64 token table is 24.5 MiB; a streamed forward holds none of it.
        cfg = ToyNetConfig(arch=ArchParams(2, 2, 64, 128), emb=EmbeddingConfig(50_265, 16, 8, 1))
        tokens = np.arange(0, 50_265, 3_141)[:16].reshape(2, 8)
        net = ToyNet.build(cfg, streamed=True)
        tracemalloc.start()
        try:
            forward(net, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= toynet.streamed_forward_bytes(cfg, 2, 8) < 512 * 1024


def weight_bytes(net: ToyNet) -> bytes:
    """Every weight's bytes in creation order; a streamed net's token table drawn
    through the fill, then its groups as forward draws them."""
    if net.weights:
        return b"".join(array.tobytes() for array in net.weights.values())
    table = np.empty(net.config.emb.vocab * net.config.arch.hidden)
    toynet._fill(net.config.seed, [(0, table)])
    groups = b"".join(array.tobytes() for group in toynet._groups(net) for array in group.values())
    return table.tobytes() + groups


@st.composite
def streamed_cases(draw):
    """A small config and its token matrix."""
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
    return cfg, tokens


@st.composite
def memory_cases(draw):
    """A config whose attention half or feed-forward half is the larger, as drawn, a
    token matrix of up to 3 sequences of up to 64 ids, and whether to collect stats."""
    heads = draw(st.integers(1, 4))
    hidden = heads * draw(st.integers(1, 16))
    larger = draw(st.sampled_from(["attention", "feed_forward"]))
    inter = draw(st.integers(1, 2 * hidden) if larger == "attention"
                 else st.integers(2 * hidden + 1, 4 * hidden))
    seq = draw(st.integers(1, 64))
    emb = EmbeddingConfig(draw(st.integers(1, 64)), seq + draw(st.integers(0, 3)), seq, 1)
    arch = ArchParams(draw(st.sampled_from([2, 4])), heads, hidden, inter)
    cfg = ToyNetConfig(arch=arch, emb=emb, seed=draw(st.sampled_from([0, 2**40 + 7])))
    tokens = np.array(
        draw(st.lists(st.lists(st.integers(0, emb.vocab - 1), min_size=seq, max_size=seq),
                      min_size=1, max_size=3))
    )
    return cfg, tokens, draw(st.booleans())


def memory_case(arch, batch, seq, vocab, stats):
    """An explicit memory_cases value: ids 0, 1, ... modulo vocab."""
    cfg = ToyNetConfig(arch=ArchParams(*arch), emb=EmbeddingConfig(vocab, seq, seq, 1))
    return cfg, np.arange(batch * seq).reshape(batch, seq) % vocab, stats


class TestStreamedLayers:
    """build(streamed=True) holds no encoder layer; forward draws each, bitwise as built."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=streamed_cases(), chunk=st.integers(1, 64))
    def test_streamed_forward_matches_the_full_build(self, case, chunk, eight_workers,
                                                     monkeypatch):
        # Chunks of at most 64 elements: layer arrays straddle chunk boundaries.
        monkeypatch.setattr(toynet, "_FILL_CHUNK", chunk)
        cfg, tokens = case
        full, full_stats = forward_with_stats(ToyNet.build(cfg), tokens)
        net = ToyNet.build(cfg, streamed=True)
        assert not any(name.startswith("encoder.") for name in net.weights)
        out, stats = forward_with_stats(net, tokens)
        assert out.tobytes() == full.tobytes()
        assert stats.softmax_row_dev.hex() == full_stats.softmax_row_dev.hex()
        assert forward(net, tokens).tobytes() == out.tobytes()

    def test_count_is_the_closed_form(self):
        cfg = ToyNetConfig(arch=ArchParams(4, 2, 8, 16), emb=SMALL.emb)
        net = ToyNet.build(cfg, streamed=True)
        assert net.weights == {}
        assert count_instantiated_params(net) == param_count(cfg.arch, cfg.emb)

    def test_forward_holds_one_layer_at_a_time(self):
        # One layer of this net is 12,704 doubles (99 KiB); a deeper net adds none.
        emb = EmbeddingConfig(50, 16, 16, 1)
        tokens = np.random.default_rng(3).integers(0, 50, size=(2, 16))
        peaks = {}
        for depth in (2, 6):
            net = ToyNet.build(ToyNetConfig(arch=ArchParams(depth, 2, 32, 128), emb=emb),
                               streamed=True)
            tracemalloc.start()
            try:
                forward(net, tokens)
                peaks[depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] > 12_704 * 8
        assert peaks[6] - peaks[2] <= 8192

    @pytest.mark.parametrize("arch", [ArchParams(2, 2, 64, 256), ArchParams(2, 2, 64, 64)],
                             ids=["feed_forward_larger", "attention_larger"])
    def test_forward_holds_one_group_not_a_layer(self, arch):
        # The bytes of a layer's attention and feed-forward halves; the embedding
        # and pooler groups are smaller than either.
        hidden, inter = arch.hidden, arch.intermediate
        halves = [(4 * (hidden + 1) * hidden + 2 * hidden) * 8,
                  (2 * hidden * inter + inter + 3 * hidden) * 8]
        cfg = ToyNetConfig(arch=arch, emb=EmbeddingConfig(50, 8, 8, 1))
        tokens = np.random.default_rng(8).integers(0, 50, size=(2, 8))
        net = ToyNet.build(cfg, streamed=True)
        tracemalloc.start()
        try:
            forward(net, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(halves) <= peak < sum(halves)

    # The first two examples' bound is broken by an activation the size of one
    # sequence (seq x hidden) held across groups: a feed-forward-larger and an
    # attention-larger net. The third's is broken by anything kept per token id
    # across groups, which only a large batch at a small hidden size shows.
    @example(case=memory_case((2, 4, 60, 132), batch=3, seq=58, vocab=4, stats=False))
    @example(case=memory_case((4, 4, 64, 78), batch=1, seq=54, vocab=10, stats=True))
    @example(case=memory_case((2, 1, 1, 1), batch=24, seq=128, vocab=1, stats=False))
    @settings(max_examples=40, deadline=None)
    @given(case=memory_cases())
    def test_forward_peak_is_within_the_closed_form(self, case):
        # The closed form may exceed tracemalloc's peak by one buffer of numpy's ufunc
        # iterator, which an in-place broadcast takes only for some shapes. Both sides
        # hang on the closed form's object-size constants, measured on CPython 3.11
        # with numpy 2.4: like the forward digest pins, it is bound to that interpreter
        # and numpy, and another may need the constants measured again.
        cfg, tokens, with_stats = case
        attention_half, feed_forward_half = (
            sum(math.prod(shape) for _, shape in shapes) for shapes in toynet._shapes(cfg)[1:3]
        )
        # memory_cases draws either half as the larger: they cross at intermediate = 2 * hidden.
        assert (feed_forward_half > attention_half) == (cfg.arch.intermediate > 2 * cfg.arch.hidden)
        net = ToyNet.build(cfg, streamed=True)
        run = forward_with_stats if with_stats else forward
        run(net, tokens)  # numpy's one-time caches are not the forward's
        tracemalloc.start()
        try:
            run(net, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = toynet.streamed_forward_bytes(cfg, *tokens.shape)
        assert toynet._largest_group(cfg) * 8 <= peak <= bound
        assert bound - peak <= np.getbufsize() * 8

    def test_threads_share_one_net(self, eight_workers):
        cfg = ToyNetConfig(arch=ArchParams(2, 2, 16, 64), emb=EmbeddingConfig(60, 12, 12, 1))
        tokens = np.random.default_rng(9).integers(0, 60, size=(3, 12))
        net = ToyNet.build(cfg, streamed=True)
        alone = forward(net, tokens).tobytes()
        outputs, start = [], threading.Barrier(2)

        def run():
            start.wait(timeout=30)
            for _ in range(20):
                outputs.append(forward(net, tokens).tobytes())

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert outputs == [alone] * 40

    def test_weight_digest_pinned(self):
        # sha256 of every weight in creation order. The PCG64 stream and u - 0.5
        # are exact, so this holds on every host, unlike the forward's digests.
        cfg = ToyNetConfig(arch=ArchParams(4, 2, 8, 16), emb=SMALL.emb, seed=2**40 + 7)
        digest = "0e6c9e52f15de5ad9b614d1683de8f569fed015b7f28f4f2b27f678e7f89c0c2"
        for net in (ToyNet.build(cfg), ToyNet.build(cfg, streamed=True)):
            assert hashlib.sha256(weight_bytes(net)).hexdigest() == digest


@st.composite
def wide_memory_cases(draw):
    """memory_cases' values for a net whose feed-forward half far outweighs its
    attention half (intermediate 16 to 64 times hidden), so that a block of it
    can still be the forward's largest step, at 4 to 48 ids per sequence."""
    heads = draw(st.integers(1, 2))
    hidden = heads * draw(st.integers(1, 8))
    seq = draw(st.integers(4, 48))
    emb = EmbeddingConfig(draw(st.integers(1, 64)), seq, seq, 1)
    arch = ArchParams(2, heads, hidden, draw(st.integers(16 * hidden, 64 * hidden)))
    cfg = ToyNetConfig(arch=arch, emb=emb, seed=draw(st.sampled_from([0, 2**40 + 7])))
    tokens = np.array(
        draw(st.lists(st.lists(st.integers(0, emb.vocab - 1), min_size=seq, max_size=seq),
                      min_size=1, max_size=3))
    )
    return cfg, tokens, draw(st.booleans())


def block_budget(seq: int, blocks: int, width: int) -> int:
    """A feed-forward budget that splits a sequence into about `blocks` blocks."""
    return -(-seq // blocks) * width


class TestFeedForwardBlocks:
    """forward runs each sequence's feed-forward half in near-equal row blocks of
    whole panels, with the unsplit half's bits."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seq=st.integers(1, 1100), width=st.integers(1, 9000), budget=st.integers(1, 2**21),
           panel=st.sampled_from([2, 3, 16]))
    def test_blocks_are_whole_panels_within_the_budget_and_never_one_row(
            self, seq, width, budget, panel, monkeypatch):
        monkeypatch.setattr(toynet, "_FEED_FORWARD_BLOCK", budget)
        monkeypatch.setattr(toynet, "_ROW_PANEL", panel)
        bounds = toynet._feed_forward_bounds(seq, width)
        sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
        fit = budget // width
        assert bounds[0] == 0 and bounds[-1] == seq
        assert len(sizes) == 1 or seq > max(fit, panel)
        assert len(sizes) > 1 or seq <= max(fit, panel) + 1
        assert min(sizes) >= min(seq, 2)
        if len(sizes) > 1:
            # Every block starts on a panel boundary; all but the last are the same
            # whole panels, at most the budget where a panel fits it; the last takes
            # the rest, a single row left over included.
            assert all(start % panel == 0 for start in bounds[:-1])
            assert set(sizes[:-1]) == {sizes[0]} and sizes[0] % panel == 0
            assert sizes[-1] <= sizes[0] + 1
            assert sizes[0] <= max(fit // panel, 1) * panel
            assert len(sizes) <= -(-seq // (max(fit // panel, 1) * panel))

    def test_the_benchmark_sequence_is_two_blocks_of_256_rows(self):
        # 512 x (3,072 + 768) = 1,966,080 elements, against a budget of 2^20.
        assert toynet._feed_forward_bounds(512, 3072 + 768) == [0, 256, 512]
        assert toynet._feed_forward_bounds(273, 3840) == [0, 273]  # 1,048,320 elements
        assert toynet._feed_forward_bounds(274, 3840) == [0, 144, 274]
        assert toynet._feed_forward_bounds(1, 10**7) == [0, 1]
        # One panel fits: the row left over joins the block before it.
        assert toynet._feed_forward_bounds(17, 10**5) == [0, 17]
        assert toynet._feed_forward_bounds(33, 10**5) == [0, 16, 33]
        assert toynet._feed_forward_bounds(34, 10**5) == [0, 16, 32, 34]

    @pytest.mark.parametrize(
        "seq,batch,splits", [(64, 2, (2, 3)), (63, 2, (2, 3)), (512, 1, (2, 3, 5, 8, 16, 32))]
    )
    def test_forced_splits_give_the_unsplit_bits(self, seq, batch, splits, monkeypatch):
        # hidden 768 and intermediate 3072: the benchmark net's shapes, unsplit under
        # a budget of the whole sequence. The lowered budgets make 2 to 32 blocks, the
        # last of 63 rows one row short of a panel.
        cfg = ToyNetConfig(arch=ArchParams(2, 12, 768, 3072), emb=EmbeddingConfig(90, seq, seq, 1),
                           seed=5)
        tokens = np.random.default_rng(seq).integers(0, 90, size=(batch, seq))
        net = ToyNet.build(cfg, streamed=True)
        width = 768 + 3072
        monkeypatch.setattr(toynet, "_FEED_FORWARD_BLOCK", seq * width)
        assert toynet._feed_forward_bounds(seq, width) == [0, seq]
        unsplit, unsplit_stats = forward_with_stats(net, tokens)
        calls = []
        block = toynet._encoder_block

        def counting(x, weights, eps):
            calls.append(len(x))
            return block(x, weights, eps)

        monkeypatch.setattr(toynet, "_encoder_block", counting)
        counts = set()
        for blocks in splits:
            monkeypatch.setattr(toynet, "_FEED_FORWARD_BLOCK", block_budget(seq, blocks, width))
            count = len(toynet._feed_forward_bounds(seq, width)) - 1
            calls.clear()
            out, stats = forward_with_stats(net, tokens)
            assert len(calls) == 2 * batch * count  # layers x sequences x blocks
            assert min(calls) >= 2 and sum(calls) == 2 * batch * seq
            assert out.tobytes() == unsplit.tobytes()
            assert stats.softmax_row_dev.hex() == unsplit_stats.softmax_row_dev.hex()
            counts.add(count)
        assert min(counts) == 2 and max(counts) == min(32, -(-seq // 16))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.one_of(memory_cases(), wide_memory_cases()), blocks=st.integers(2, 8),
           panel=st.sampled_from([2, 4]))
    def test_forward_peak_is_within_the_closed_form_in_blocks(self, case, blocks, panel,
                                                             monkeypatch):
        # TestStreamedLayers' witness with the budget and the panel lowered, so that
        # the closed form's feed-forward step is a block of a sequence, not the whole
        # of it; on most wide_memory_cases nets that block is still the largest step.
        cfg, tokens, with_stats = case
        seq = tokens.shape[1]
        width = cfg.arch.hidden + cfg.arch.intermediate
        monkeypatch.setattr(toynet, "_FEED_FORWARD_BLOCK", block_budget(seq, blocks, width))
        monkeypatch.setattr(toynet, "_ROW_PANEL", panel)
        assert len(toynet._feed_forward_bounds(seq, width)) > 2 or seq <= 2 * panel
        net = ToyNet.build(cfg, streamed=True)
        run = forward_with_stats if with_stats else forward
        run(net, tokens)  # numpy's one-time caches are not the forward's
        tracemalloc.start()
        try:
            run(net, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = toynet.streamed_forward_bytes(cfg, *tokens.shape)
        assert toynet._largest_group(cfg) * 8 <= peak <= bound
        assert bound - peak <= np.getbufsize() * 8


class TestTracerContract:
    """perfbench/spans.py times the kernels by patching their module names, and its
    tracer is not thread-safe: each must be called through that name, from the caller's
    thread, once per sequence, layer and head as the trace expects."""

    def test_kernel_calls_and_their_thread(self, eight_workers, monkeypatch):
        monkeypatch.setattr(toynet, "_GELU_BLOCK", 24)  # many gelu blocks, all on this thread
        monkeypatch.setattr(toynet, "_FILL_CHUNK", 64)  # many draw chunks, on the pool's threads
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("softmax", "layer_norm", "gelu", "attention", "_encoder_block"):
            monkeypatch.setattr(toynet, name, counting(name, getattr(toynet, name)))
        cfg = ToyNetConfig(arch=ArchParams(2, 3, 12, 24), emb=EmbeddingConfig(40, 8, 8, 1))
        tokens = np.random.default_rng(7).integers(0, 40, size=(2, 8))
        forward(ToyNet.build(cfg, streamed=True), tokens)
        assert Counter(name for name, _ in calls) == {
            "softmax": 12, "layer_norm": 10, "gelu": 4, "attention": 4, "_encoder_block": 4
        }
        assert {thread for _, thread in calls} == {threading.get_ident()}


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
