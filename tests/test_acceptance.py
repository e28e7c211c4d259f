"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    BERT_BASE,
    BERT_EMB,
    BORT,
    GRID_AXES,
    ROBERTA_EMB,
    ROBERTA_LARGE,
    grid_space,
    write_config,
)
from subarch.cli import main
from subarch.costs import (
    embedding_params,
    flop_count,
    flop_oracle,
    param_count,
    shape_oracle_params,
)
from subarch.engine import (
    SearchConfig,
    rank_candidates,
    run_extraction,
    w_coefficient,
)
from subarch.metrics import (
    ConstantErrorModel,
    MaxPoint,
    MetricTriple,
    ingest_measurements,
)
from subarch.space import ArchParams, EmbeddingConfig, SearchSpace, enumerate_space
from subarch.toynet import (
    ToyNet,
    ToyNetConfig,
    count_instantiated_params,
    forward,
    forward_with_stats,
    gelu,
    kd_loss,
    layer_norm,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def test_criterion_01_parameter_formula_fidelity():
    with criterion(1, "parameter count for <24,16,1024,4096> is 355,361,792 (within 0.2% of 355M)"):
        start = time.perf_counter()
        total = param_count(ROBERTA_LARGE, ROBERTA_EMB)
        elapsed = time.perf_counter() - start
        assert total == 355_361_792
        assert abs(total - 355e6) / 355e6 <= 0.002
        assert elapsed < 0.05


def test_criterion_02_bert_base_cross_check():
    with criterion(2, "parameter count for <12,12,768,3072> is 108,311,040 (within 3% of 110M)"):
        total = param_count(BERT_BASE, BERT_EMB)
        assert total == 108_311_040
        assert abs(total - 110e6) / 110e6 <= 0.03


def test_criterion_03_embedding_size_fidelity():
    with criterion(3, "embedding size for vocab=50265, typepos=514, hidden=1024 is 52,000,768"):
        total = embedding_params(ROBERTA_LARGE, ROBERTA_EMB)
        assert total == 52_000_768
        assert abs(total - 52e6) / 52e6 <= 0.001


TOY_CASES = [
    (ArchParams(2, 1, 1, 1), EmbeddingConfig(1, 1, 1, 1)),
    (ArchParams(2, 2, 8, 16), EmbeddingConfig(32, 16, 8, 1)),
    (ArchParams(2, 2, 4, 8), EmbeddingConfig(8, 4, 2, 1)),
    (ArchParams(4, 4, 8, 4), EmbeddingConfig(16, 8, 4, 1)),
    (ArchParams(2, 4, 16, 32), EmbeddingConfig(24, 12, 6, 1)),
    (ArchParams(6, 2, 6, 24), EmbeddingConfig(10, 6, 3, 1)),
    (ArchParams(4, 1, 3, 5), EmbeddingConfig(7, 5, 2, 1)),
    (ArchParams(2, 3, 9, 2), EmbeddingConfig(11, 9, 4, 1)),
    (ArchParams(8, 2, 2, 2), EmbeddingConfig(5, 3, 2, 1)),
    (ArchParams(2, 8, 16, 64), EmbeddingConfig(40, 20, 10, 2)),
    (ArchParams(4, 2, 10, 7), EmbeddingConfig(13, 11, 5, 1)),
]


def test_criterion_04_oracle_equivalence():
    with criterion(4, "shape oracle equals the parameter formula on all 300 grid configs"
                      " and on 11 instantiated toy nets"):
        start = time.perf_counter()
        archs = enumerate_space(grid_space())
        assert len(archs) == 300
        for arch in archs:
            assert shape_oracle_params(arch, ROBERTA_EMB) == param_count(arch, ROBERTA_EMB)
        for arch, emb in TOY_CASES:
            net = ToyNet.build(ToyNetConfig(arch=arch, emb=emb))
            assert count_instantiated_params(net) == param_count(arch, emb)
        assert time.perf_counter() - start < 5.0


def test_criterion_05_flop_formula_equivalence():
    with criterion(5, "FLOP formula equals the per-layer oracle on all 300 grid configs,"
                      " both head-invariant"):
        for arch in enumerate_space(grid_space()):
            assert flop_oracle(arch) == flop_count(arch)
            for alt_heads in (4, 8, 16):
                if alt_heads != arch.heads and arch.hidden % alt_heads == 0:
                    alt = ArchParams(arch.depth, alt_heads, arch.hidden, arch.intermediate)
                    assert flop_count(alt) == flop_count(arch)
                    assert flop_oracle(alt) == flop_oracle(arch)


def test_criterion_06_enumeration_count():
    with criterion(6, "the demo grid yields exactly 300 valid configurations"):
        start = time.perf_counter()
        assert len(enumerate_space(grid_space())) == 300
        assert time.perf_counter() - start < 1.0


def _selection_sort(rows):
    remaining = list(rows)
    out = []
    while remaining:
        best = remaining[0]
        for row in remaining[1:]:
            if row[0] > best[0] or (row[0] == best[0] and row[1] < best[1]):
                best = row
        out.append(best)
        remaining.remove(best)
    return [arch for _w, arch in out]


def test_criterion_07_w_coefficient_property_suite():
    with criterion(7, "w-coefficient properties hold and ranking matches the sort oracle"
                      " on 1000 random metric sets"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        maxpoint = MaxPoint(ROBERTA_LARGE, MetricTriple(100.0, 100.0, 1.0))
        t = maxpoint.metrics

        assert w_coefficient(t, maxpoint) == 0.0

        for _trial in range(300):
            p, lat = rng.uniform(1, 99, size=2)
            err, k = rng.uniform(0.05, 5.0), rng.uniform(0.1, 10.0)
            triple = MetricTriple(p, lat, err)
            base = w_coefficient(triple, maxpoint)
            assert base > 0
            scaled_both = w_coefficient(
                MetricTriple(p * k, lat, err),
                MaxPoint(maxpoint.arch, MetricTriple(100.0 * k, 100.0, 1.0)),
            )
            assert scaled_both == pytest.approx(base, rel=1e-9)
            scaled_latency = w_coefficient(
                MetricTriple(p, lat * k, err),
                MaxPoint(maxpoint.arch, MetricTriple(100.0, 100.0 * k, 1.0)),
            )
            assert scaled_latency == pytest.approx(base, rel=1e-9)
            rescaled_error = w_coefficient(MetricTriple(p, lat, err * k), maxpoint)
            assert rescaled_error * k == pytest.approx(base, rel=1e-9)

        space = SearchSpace((2, 4), (1, 2), (2, 4), (1, 2))
        archs = enumerate_space(space)
        assert len(archs) == 16
        config = SearchConfig(
            space=space, maxpoint=ROBERTA_LARGE, emb=ROBERTA_EMB
        )
        for set_index in range(1000):
            table = {ROBERTA_LARGE: t} | {
                arch: MetricTriple(
                    float(rng.uniform(1, 120)),
                    float(rng.uniform(1, 120)),
                    float(rng.uniform(0.05, 5.0)),
                )
                for arch in archs
            }
            result = rank_candidates(config, table)
            rows = []
            for arch in archs:
                triple = table[arch]
                if triple.param_size > 100.0 or triple.latency > 100.0:
                    continue
                w = (100.0 - triple.param_size) * (100.0 - triple.latency) / (
                    100.0 * 100.0 * triple.error
                )
                rows.append((w, arch))
            assert [row.arch for row in result.ranked] == _selection_sort(rows)

            error_scale = float(rng.uniform(0.1, 10.0))
            rescaled_table = {
                arch: MetricTriple(triple.param_size, triple.latency, triple.error * error_scale)
                for arch, triple in table.items()
            }
            rescaled = rank_candidates(config, rescaled_table)
            assert [r.arch for r in rescaled.ranked] == [r.arch for r in result.ranked]
        assert time.perf_counter() - start < 10.0


def test_criterion_08_stated_substitutions():
    description = (
        "published w values, latencies, training curves and benchmark scores are not"
        " reproduced; reports state the surrogate substitutions instead"
    )
    with criterion(8, description):
        config = SearchConfig(
            space=grid_space(),
            maxpoint=ROBERTA_LARGE,
            emb=ROBERTA_EMB,
            epsilon=1,
            error_model=ConstantErrorModel(1.0),
            top_k=3,
        )
        report = run_extraction(config)
        header = report.header
        assert "stand-in" in header["surrogate_note"]
        assert header["error_provider"] == "constant(1)"
        assert header["latency_unit"] == "flops"
        assert header["n_steps"] == 3

        # Measured-latency inputs produce a ranking, with no claim attached to
        # the published per-architecture w values.
        lines = "\n".join(
            [
                '{"arch": [24, 16, 1024, 4096], "latency_s": 6.170, "error": 1.0, "trials": 6250}',
                '{"arch": [4, 8, 1024, 768], "latency_s": 0.308, "error": 1.0, "trials": 6250}',
                '{"arch": [4, 16, 1024, 512], "latency_s": 0.314, "error": 1.0, "trials": 6250}',
                '{"arch": [4, 8, 1024, 512], "latency_s": 0.318, "error": 1.0, "trials": 6250}',
            ]
        )
        table = ingest_measurements(lines, ROBERTA_EMB)
        ingested_config = SearchConfig(
            space=SearchSpace((4,), (8,), (1024,), (512, 768)),
            maxpoint=ROBERTA_LARGE,
            emb=ROBERTA_EMB,
        )
        ingested_report = run_extraction(ingested_config, table)
        ws = [row.w_coefficient for row in ingested_report.result.ranked]
        assert len(ws) == 2
        assert all(np.isfinite(w) and w > 0 for w in ws)
        assert ingested_report.header["error_provider"] == "ingested measurement records"


def test_criterion_09_toynet_invariant_suite():
    with criterion(9, "toy-net invariants: softmax, layer norm, bounds, gelu, kd loss,"
                      " determinism"):
        start = time.perf_counter()
        cfg = ToyNetConfig(
            arch=ArchParams(2, 2, 8, 16), emb=EmbeddingConfig(32, 16, 8, 2), seed=17
        )
        net = ToyNet.build(cfg)
        tokens = np.random.default_rng(17).integers(0, 32, size=(2, 8))
        out, stats = forward_with_stats(net, tokens)
        assert stats.softmax_row_dev <= 1e-9
        assert out.shape == (2, 8, 8)
        assert np.max(np.abs(out)) <= 1.0
        assert out.tobytes() == forward(net, tokens).tobytes()

        rows = np.random.default_rng(18).normal(size=(128, 16))
        normalized = layer_norm(rows, np.ones(16), np.zeros(16), eps=1e-5)
        assert np.max(np.abs(normalized.mean(axis=-1))) <= 1e-6
        assert np.max(np.abs(normalized.var(axis=-1) - 1.0)) <= 1e-3

        assert gelu(0.0) == 0.0
        for x in (8.0, 9.0, 12.0):
            assert abs(gelu(x) - x) <= 1e-6
            assert abs(gelu(-x)) <= 1e-6

        for classes in (2, 10, 100):
            logits = np.zeros((5, classes))
            value = kd_loss(logits, logits, mlm_loss=0.0, weight=0.5, temperature=2.0)
            assert value == pytest.approx(0.5 * np.log(classes), abs=1e-9)
        assert time.perf_counter() - start < 10.0


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    with criterion(10, "rank on the demo grid in analytic mode is byte-identical across"
                       " runs, each under a second"):
        cfg = write_config(tmp_path / "c.json", **dict(GRID_AXES, epsilon=1))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"

        start = time.perf_counter()
        assert main(["rank", "--config", cfg, "--format", "json", "--output", str(out_a)]) == 0
        first = time.perf_counter() - start

        start = time.perf_counter()
        assert main(["rank", "--config", cfg, "--format", "json", "--output", str(out_b)]) == 0
        second = time.perf_counter() - start

        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert len(doc["ranking"]) == 300
        assert first < 1.0 and second < 1.0
