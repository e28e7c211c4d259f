import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BORT, GRID_AXES, grid_space
from subarch.config import parse_arch
from subarch.errors import ConfigError
from subarch.space import (
    ArchParams,
    EmbeddingConfig,
    SearchSpace,
    arch_from_ints,
    enumerate_space,
    stride_subsample,
    validate,
)


class TestValidate:
    def test_valid_architecture(self):
        assert validate(*BORT.as_tuple()) == ()

    def test_hidden_not_divisible_by_heads(self):
        verdict = validate(4, 12, 1024, 768)
        assert len(verdict) == 1
        assert "not divisible" in verdict[0]

    def test_odd_depth(self):
        verdict = validate(3, 8, 512, 256)
        assert verdict == ("depth must be even",)

    def test_non_positive_fields(self):
        verdict = validate(0, -1, 8, 0)
        assert len(verdict) == 3
        assert all("positive" in v for v in verdict)

    def test_multiple_violations_all_reported(self):
        verdict = validate(3, 12, 1024, 768)
        assert len(verdict) == 2

    def test_construction_raises_with_constraint(self):
        with pytest.raises(ConfigError, match="invalid architecture <3,8,512,256>: depth must be even"):
            ArchParams(3, 8, 512, 256)

    def test_construction_lists_every_violation_that_validate_returns(self):
        verdict = validate(0, -1, 8, 0)
        assert verdict == (
            "depth must be a positive integer (got 0)",
            "heads must be a positive integer (got -1)",
            "intermediate must be a positive integer (got 0)",
        )
        with pytest.raises(ConfigError) as info:
            ArchParams(0, -1, 8, 0)
        assert str(info.value) == "invalid architecture <0,-1,8,0>: " + "; ".join(verdict)


class TestSearchSpace:
    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SearchSpace((), (4,), (512,), (256,))

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicates"):
            SearchSpace((2, 2), (4,), (512,), (256,))

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            SearchSpace((0, 2), (4,), (512,), (256,))

    def test_axes_stored_sorted(self):
        space = SearchSpace((4, 2), (8, 4), (768, 512), (512, 256))
        assert space.depths == (2, 4)
        assert space.hiddens == (512, 768)

    def test_size_is_raw_product(self):
        assert grid_space().size() == 6 * 4 * 3 * 5


class TestEnumerate:
    def test_grid_yields_300(self):
        # Valid (heads, hidden) pairs: 3 for 512, 4 for 768, 3 for 1024;
        # times 6 depths times 5 intermediates = 300.
        archs = enumerate_space(grid_space())
        assert len(archs) == 300

    def test_grid_matches_exhaustive_oracle(self):
        oracle = [
            ArchParams(d, a, h, i)
            for d, a, h, i in itertools.product(
                GRID_AXES["depths"],
                GRID_AXES["heads"],
                GRID_AXES["hiddens"],
                GRID_AXES["intermediates"],
            )
            if h % a == 0 and d % 2 == 0
        ]
        assert enumerate_space(grid_space()) == sorted(oracle)

    def test_singleton_space(self):
        space = SearchSpace((4,), (8,), (1024,), (768,))
        assert enumerate_space(space) == [BORT]

    def test_all_filtered_space(self):
        space = SearchSpace((2,), (12,), (512,), (256,))
        assert enumerate_space(space) == []

    def test_ordering_is_lexicographic(self):
        archs = enumerate_space(grid_space())
        assert archs == sorted(archs)
        assert len(set(archs)) == len(archs)


class TestStrideSubsample:
    def test_identity(self):
        space = grid_space()
        assert stride_subsample(space, 1) == space

    def test_stride_two_depths(self):
        strided = stride_subsample(grid_space(), 2)
        assert strided.depths == (2, 6, 10)
        assert strided.heads == (4, 12)
        assert strided.hiddens == (512, 1024)
        assert strided.intermediates == (256, 768, 3072)

    def test_stride_beyond_axis_length(self):
        strided = stride_subsample(grid_space(), 100)
        assert strided == SearchSpace((2,), (4,), (512,), (256,))

    @pytest.mark.parametrize("epsilon", [0, -1, 1.5, True])
    def test_invalid_epsilon(self, epsilon):
        with pytest.raises(ConfigError):
            stride_subsample(grid_space(), epsilon)


class TestEmbeddingConfig:
    def test_defaults(self):
        emb = EmbeddingConfig(vocab=50265, typepos=514)
        assert (emb.seq, emb.batch) == (512, 1024)

    @pytest.mark.parametrize("field", ["vocab", "typepos", "seq", "batch"])
    def test_non_positive_rejected(self, field):
        values = {"vocab": 8, "typepos": 4, "seq": 2, "batch": 1, field: 0}
        with pytest.raises(ConfigError, match=field):
            EmbeddingConfig(**values)


axis = st.lists(st.integers(1, 64), min_size=1, max_size=5, unique=True)
spaces = st.builds(SearchSpace, axis, axis, axis, axis)


@settings(max_examples=60, deadline=None)
@given(spaces)
def test_enumerate_properties(space):
    archs = enumerate_space(space)
    assert all(validate(*a.as_tuple()) == () for a in archs)
    assert len(archs) <= space.size()
    assert archs == sorted(archs)
    assert archs == enumerate_space(space)


@settings(max_examples=60, deadline=None)
@given(spaces, st.integers(1, 8))
def test_stride_enumeration_is_subset(space, epsilon):
    subset = set(enumerate_space(stride_subsample(space, epsilon)))
    assert subset <= set(enumerate_space(space))


class TestArchFromInts:
    @pytest.mark.parametrize("value", [[4, 8, 1024, 768], (4, 8, 1024, 768)])
    def test_four_ints(self, value):
        assert arch_from_ints(value, "architecture", ConfigError) == BORT

    @pytest.mark.parametrize(
        "value",
        [
            "4,8,1024,768",
            [4, 8, 1024],
            [4, 8, 1024, 768, 1],
            [4, True, 1024, 768],
            [4, 8, 1024.0, 768],
        ],
        ids=["string", "three", "five", "bool", "float"],
    )
    def test_anything_else_raises_the_given_error(self, value):
        with pytest.raises(ValueError, match=r"^line 3: 'arch' must be four integers \(got "):
            arch_from_ints(value, "line 3: 'arch'", ValueError)


def test_parse_arch_splits_a_flag_string():
    assert parse_arch("4,8,1024,768") == BORT
    with pytest.raises(ConfigError, match="architecture must be four integers"):
        parse_arch("4,8,1024")
