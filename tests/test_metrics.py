import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BORT, ROBERTA_EMB, ROBERTA_LARGE, TINY_EMB
from subarch.costs import param_count
from subarch.errors import ConfigError, DataError
from subarch.metrics import (
    ConstantErrorModel,
    MaxPoint,
    MeasurementRecord,
    MetricTriple,
    SyntheticErrorModel,
    analytic_maxpoint,
    analytic_metrics,
    ingest_measurements,
    maxpoint_from_measurements,
    parse_measurements,
    serialize_measurements,
)
from subarch.space import ArchParams

TINY = ArchParams(2, 1, 1, 1)


def synthetic_error(arch, emb, c0, c1):
    """The synthetic error model's value for one architecture: c0 + c1 / param_count."""
    return SyntheticErrorModel(c0, c1).error(param_count(arch, emb))


class TestMetricTriple:
    def test_zero_error_rejected(self):
        with pytest.raises(ValueError, match="error"):
            MetricTriple(1.0, 1.0, 0.0)

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            MetricTriple(1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "values",
        [
            (float("nan"), 1.0, 1.0),
            (1.0, float("inf"), 1.0),
            (1.0, 1.0, float("inf")),
            (float("inf"), 1.0, 1.0),
        ],
    )
    def test_non_finite_rejected(self, values):
        with pytest.raises(ValueError):
            MetricTriple(*values)


class TestAnalyticMetrics:
    def test_bort_with_constant_error(self):
        triple = analytic_metrics(BORT, ROBERTA_EMB, lambda arch: 1.0)
        assert triple.param_size == 76_161_024
        assert triple.latency == 62_635_008
        assert triple.error == 1.0

    def test_reference_large_param_size(self):
        triple = analytic_metrics(ROBERTA_LARGE, ROBERTA_EMB, lambda arch: 2.0)
        assert triple.param_size == 355_361_792

    def test_zero_error_provider_rejected(self):
        with pytest.raises(DataError, match="positive"):
            analytic_metrics(BORT, ROBERTA_EMB, lambda arch: 0.0)

    def test_failing_provider_names_architecture(self):
        def provider(arch):
            raise KeyError("missing record")

        with pytest.raises(DataError, match=r"<4,8,1024,768>"):
            analytic_metrics(BORT, ROBERTA_EMB, provider)


class TestSyntheticError:
    def test_constant_when_c1_zero(self):
        assert synthetic_error(BORT, ROBERTA_EMB, 0.7, 0.0) == 0.7
        assert synthetic_error(TINY, TINY_EMB, 0.7, 0.0) == 0.7

    def test_hand_value(self):
        # param_count(TINY, TINY_EMB) == 41, so 0.1 + 41/41 = 1.1
        assert synthetic_error(TINY, TINY_EMB, 0.1, 41.0) == pytest.approx(1.1)

    def test_larger_model_smaller_error(self):
        small = synthetic_error(BORT, ROBERTA_EMB, 0.1, 1e9)
        large = synthetic_error(ROBERTA_LARGE, ROBERTA_EMB, 0.1, 1e9)
        assert large < small
        assert large > 0

    def test_invalid_coefficients(self):
        with pytest.raises(ConfigError):
            synthetic_error(BORT, ROBERTA_EMB, 0.0, 1.0)
        with pytest.raises(ConfigError):
            synthetic_error(BORT, ROBERTA_EMB, 0.1, -1.0)

    def test_error_models_describe(self):
        assert ConstantErrorModel(1.0).describe() == "constant(1)"
        assert "c0=0.1" in SyntheticErrorModel(0.1, 2.0).describe()


# Nested past the interpreter's recursion limit, which json.loads raises as RecursionError.
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000
RECORD_LINE = '{"arch": [4, 8, 1024, 768], "latency_s": 0.308, "error": 0.9, "trials": 6250}'


class TestIngest:
    def test_single_record(self):
        table = ingest_measurements(RECORD_LINE, ROBERTA_EMB)
        triple = table[BORT]
        assert triple.latency == 0.308
        assert triple.error == 0.9
        assert triple.param_size == param_count(BORT, ROBERTA_EMB)

    def test_empty_stream(self):
        assert ingest_measurements("", ROBERTA_EMB) == {}
        assert ingest_measurements("\n\n", ROBERTA_EMB) == {}

    def test_duplicate_arch_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            ingest_measurements(RECORD_LINE + "\n" + RECORD_LINE, ROBERTA_EMB)

    def test_duplicate_names_both_lines(self):
        with pytest.raises(DataError, match=r"line 3: duplicate .* \(first on line 1\)"):
            parse_measurements(RECORD_LINE + "\n\n" + RECORD_LINE)

    def test_malformed_line_reports_number(self):
        source = RECORD_LINE + "\nnot json\n"
        with pytest.raises(DataError, match="line 2"):
            parse_measurements(source)

    def test_invalid_arch_rejected(self):
        line = '{"arch": [3, 8, 512, 256], "latency_s": 0.1, "error": 0.5, "trials": 10}'
        with pytest.raises(DataError, match="depth must be even"):
            parse_measurements(line)

    def test_unknown_key_rejected(self):
        line = '{"arch": [4, 8, 1024, 768], "latency_s": 0.1, "error": 0.5, "trials": 1, "extra": 1}'
        with pytest.raises(DataError, match="line 1"):
            parse_measurements(line)

    def test_missing_key_rejected(self):
        line = '{"arch": [4, 8, 1024, 768], "latency_s": 0.1, "error": 0.5}'
        with pytest.raises(DataError, match="trials"):
            parse_measurements(line)

    def test_non_positive_latency_rejected(self):
        line = '{"arch": [4, 8, 1024, 768], "latency_s": 0.0, "error": 0.5, "trials": 1}'
        with pytest.raises(DataError, match="line 1"):
            parse_measurements(line)

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("latency_s", "Infinity"),
            ("latency_s", "1e999"),
            ("latency_s", "1" + "0" * 400),
            ("error", "Infinity"),
            ("trials", "true"),
            pytest.param("latency_s", NESTED_TOO_DEEPLY, id="latency_s-nested_too_deeply"),
        ],
    )
    def test_non_finite_or_non_integer_values_rejected(self, field, raw):
        obj = {"arch": [4, 8, 1024, 768], "latency_s": 0.1, "error": 0.5, "trials": 1}
        line = json.dumps(obj).replace(f'"{field}": {json.dumps(obj[field])}', f'"{field}": {raw}')
        assert raw in line
        with pytest.raises(DataError, match="line 1"):
            parse_measurements(line)

    def test_round_trip(self):
        records = [
            MeasurementRecord(BORT, 0.308, 0.9, 6250),
            MeasurementRecord(ArchParams(4, 16, 1024, 512), 0.314, 0.8, 6250),
        ]
        assert parse_measurements(serialize_measurements(records)) == records

    def test_serialize_empty(self):
        assert serialize_measurements([]) == ""


class TestMaxPoint:
    def test_analytic(self):
        maxpoint = analytic_maxpoint(ROBERTA_LARGE, ROBERTA_EMB)
        assert maxpoint.metrics.param_size == 355_361_792

    def test_from_measurements(self):
        table = ingest_measurements(RECORD_LINE, ROBERTA_EMB)
        maxpoint = maxpoint_from_measurements(BORT, table)
        assert maxpoint.arch == BORT
        assert maxpoint.metrics.latency == 0.308

    def test_missing_measurement(self):
        with pytest.raises(DataError, match="no measurement record"):
            maxpoint_from_measurements(ROBERTA_LARGE, {})

    def test_zero_param_size_rejected(self):
        with pytest.raises(ValueError):
            MaxPoint(BORT, MetricTriple(0.0, 1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 100.0),
    st.floats(0.0, 1e9),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(1, 16),
)
def test_synthetic_error_positive_and_monotone(c0, c1, depth_steps, heads, width, inter):
    arch = ArchParams(2 * depth_steps, heads, heads * width, inter)
    emb = TINY_EMB
    value = synthetic_error(arch, emb, c0, c1)
    assert value > 0
    deeper = ArchParams(arch.depth + 2, arch.heads, arch.hidden, arch.intermediate)
    assert synthetic_error(deeper, emb, c0, c1) <= value


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.floats(0.001, 10.0), st.floats(0.001, 10.0)),
        min_size=0,
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
def test_measurement_round_trip_property(rows):
    records = [
        MeasurementRecord(ArchParams(2 * d, 1, 1, 1), latency, error, trials=d)
        for d, latency, error in rows
    ]
    assert parse_measurements(serialize_measurements(records)) == records


@pytest.mark.parametrize(
    "values",
    [(True, 2.0, 1.0), (1, True, 1.0), (1, 2.0, True)],
    ids=["param_size", "latency", "error"],
)
def test_metric_triple_rejects_bools(values):
    with pytest.raises(ValueError):
        MetricTriple(*values)


def test_measurement_arch_must_be_a_list_not_a_string():
    line = '{"arch": "4,8,1024,768", "latency_s": 0.1, "error": 0.5, "trials": 1}'
    with pytest.raises(DataError, match="line 1: 'arch' must be four integers"):
        parse_measurements(line)


def test_serialized_keys_are_the_record_schema():
    line = serialize_measurements([MeasurementRecord(BORT, 0.308, 0.9, 6250)])
    assert list(json.loads(line)) == ["arch", "latency_s", "error", "trials"]
