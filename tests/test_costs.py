import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BERT_BASE, BERT_EMB, BORT, ROBERTA_EMB, ROBERTA_LARGE, TINY_EMB, grid_space
from subarch.costs import (
    LayerShape,
    cost_breakdown,
    dominance_report,
    embedding_params,
    flop_count,
    flop_oracle,
    linear_flops,
    param_count,
    shape_list,
    shape_oracle_params,
)
from subarch.errors import ConfigError
from subarch.space import ArchParams, EmbeddingConfig, enumerate_space

TINY = ArchParams(2, 1, 1, 1)


class TestLinearLayer:
    def test_flops(self):
        assert linear_flops(LayerShape(1, 1)) == 1
        assert linear_flops(LayerShape(1024, 1024)) == 2047 * 1024
        assert linear_flops(LayerShape(768, 1024)) == 2047 * 768

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            LayerShape(0, 5)


class TestParamCount:
    def test_reference_large(self):
        assert param_count(ROBERTA_LARGE, ROBERTA_EMB) == 355_361_792

    def test_bert_base(self):
        assert param_count(BERT_BASE, BERT_EMB) == 108_311_040

    def test_bort(self):
        assert param_count(BORT, ROBERTA_EMB) == 76_161_024

    def test_tiny_hand_value(self):
        # 2*(4 + 2 + 9 + 1) + 1 + (1 + 1 + 6)*1 = 41
        assert param_count(TINY, TINY_EMB) == 41

    def test_invalid_arch_rejected(self):
        with pytest.raises(ConfigError, match="depth must be even"):
            param_count(ArchParams(3, 8, 512, 256), ROBERTA_EMB)


class TestFlopCount:
    def test_bort(self):
        assert flop_count(BORT) == 62_635_008

    def test_tiny_hand_value(self):
        # 2*(4 + 1 + 1 + 7) + 1 + 3 = 30
        assert flop_count(TINY) == 30

    def test_head_invariance(self):
        assert flop_count(BORT) == flop_count(ArchParams(4, 4, 1024, 768))
        assert param_count(BORT, ROBERTA_EMB) == param_count(
            ArchParams(4, 4, 1024, 768), ROBERTA_EMB
        )


class TestEmbeddingParams:
    def test_reference_large(self):
        assert embedding_params(ROBERTA_LARGE, ROBERTA_EMB) == 52_000_768

    def test_bert_large_vocab(self):
        arch = ArchParams(24, 16, 1024, 4096)
        assert embedding_params(arch, EmbeddingConfig(28996, 512)) == 30_219_264

    def test_tiny(self):
        assert embedding_params(TINY, TINY_EMB) == 5


class TestCostBreakdown:
    def test_bort_components(self):
        b = cost_breakdown(BORT, ROBERTA_EMB)
        assert b.encoder_params == 23_108_608
        assert b.pooler_params == 1_048_576
        assert b.embedding_params == 52_003_840

    def test_reference_encoder_block(self):
        b = cost_breakdown(ROBERTA_LARGE, ROBERTA_EMB)
        assert b.encoder_params == 302_309_376
        assert b.encoder_params == 24 * 12_596_224

    @pytest.mark.parametrize("arch", [TINY, BORT, ROBERTA_LARGE, BERT_BASE])
    def test_totals_match_closed_forms(self, arch):
        emb = TINY_EMB if arch is TINY else ROBERTA_EMB
        b = cost_breakdown(arch, emb)
        assert b.total_params == param_count(arch, emb)
        assert b.total_flops == flop_count(arch)


class TestShapeOracle:
    def test_reference_large(self):
        assert shape_oracle_params(ROBERTA_LARGE, ROBERTA_EMB) == 355_361_792

    def test_tiny(self):
        assert shape_oracle_params(TINY, TINY_EMB) == 41

    def test_full_grid_equality(self):
        for arch in enumerate_space(grid_space()):
            assert shape_oracle_params(arch, ROBERTA_EMB) == param_count(arch, ROBERTA_EMB)

    def test_shape_list_is_pure_enumeration(self):
        shapes = shape_list(TINY, TINY_EMB)
        assert sum(math.prod(s) for _n, s in shapes) == 41
        names = [n for n, _s in shapes]
        assert len(set(names)) == len(names)
        assert "pooler.weight" in names and "embedding.token_table" in names


class TestFlopOracle:
    def test_full_grid_equality(self):
        for arch in enumerate_space(grid_space()):
            assert flop_oracle(arch) == flop_count(arch)

    def test_oracle_head_invariance(self):
        assert flop_oracle(BORT) == flop_oracle(ArchParams(4, 16, 1024, 768))


class TestDominance:
    def test_reference_large_ratio(self):
        report = dominance_report(ROBERTA_LARGE, ROBERTA_EMB)
        assert report.encoder_param_ratio == pytest.approx(5.70, abs=0.01)

    def test_bort_embedding_dominates(self):
        report = dominance_report(BORT, ROBERTA_EMB)
        assert report.encoder_param_ratio == pytest.approx(0.44, abs=0.01)
        assert report.encoder_param_ratio < 1.0

    def test_encoder_flops_always_dominate(self):
        for arch in enumerate_space(grid_space())[::17]:
            report = dominance_report(arch, ROBERTA_EMB)
            assert report.encoder_flop_ratio > 1.0


@st.composite
def valid_archs(draw):
    heads = draw(st.integers(1, 4))
    return ArchParams(
        depth=2 * draw(st.integers(1, 4)),
        heads=heads,
        hidden=heads * draw(st.integers(1, 8)),
        intermediate=draw(st.integers(1, 32)),
    )


small_embs = st.builds(
    EmbeddingConfig,
    vocab=st.integers(1, 64),
    typepos=st.integers(1, 32),
    seq=st.just(1),
    batch=st.just(1),
)


@settings(max_examples=100, deadline=None)
@given(valid_archs(), small_embs)
def test_shape_oracle_matches_formula_everywhere(arch, emb):
    assert shape_oracle_params(arch, emb) == param_count(arch, emb)
    assert flop_oracle(arch) == flop_count(arch)


@settings(max_examples=60, deadline=None)
@given(valid_archs(), small_embs)
def test_param_count_strictly_increasing(arch, emb):
    base = param_count(arch, emb)
    deeper = ArchParams(arch.depth + 2, arch.heads, arch.hidden, arch.intermediate)
    wider = ArchParams(arch.depth, arch.heads, arch.hidden + arch.heads, arch.intermediate)
    fatter = ArchParams(arch.depth, arch.heads, arch.hidden, arch.intermediate + 1)
    assert param_count(deeper, emb) > base
    assert param_count(wider, emb) > base
    assert param_count(fatter, emb) > base


# Six or more digits in a row, or a comma-grouped count such as 52,003,840.
TYPED_COUNT = re.compile(r"[0-9]{6,}|[0-9]{1,3}(,[0-9]{3}){2,}")
SOURCE_FILES = sorted((Path(__file__).resolve().parent.parent / "src" / "subarch").glob("*.py"))


def test_no_count_is_typed_into_the_source():
    # Every count the program prints comes from the closed forms, not from a literal.
    assert SOURCE_FILES
    typed = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in SOURCE_FILES
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if TYPED_COUNT.search(line)
    ]
    assert typed == []
