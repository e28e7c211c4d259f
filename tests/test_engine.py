import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BORT, ROBERTA_EMB, ROBERTA_LARGE, grid_space, write_config
from subarch import engine
from subarch.cli import main
from subarch.engine import (
    EXCEEDS_LATENCY,
    EXCEEDS_PARAMS,
    INGESTED,
    CandidateReport,
    ExtractionReport,
    RankingResult,
    SearchConfig,
    exceed_flags,
    rank_candidates,
    render_json,
    render_text,
    run_extraction,
    w_coefficient,
)
from subarch.errors import ConfigError, DataError
from subarch.metrics import (
    ConstantErrorModel,
    MaxPoint,
    MetricTriple,
    ingest_measurements,
)
from subarch.space import ArchParams, SearchSpace, enumerate_space


def make_maxpoint(param_size=100.0, latency=10.0):
    return MaxPoint(ROBERTA_LARGE, MetricTriple(param_size, latency, 1.0))


class TestWCoefficient:
    def test_zero_at_maxpoint(self):
        maxpoint = make_maxpoint()
        assert w_coefficient(maxpoint.metrics, maxpoint) == 0.0

    def test_worked_example(self):
        # (100-50)*(10-5) / (100*10*0.5) = 0.5
        value = w_coefficient(MetricTriple(50, 5, 0.5), make_maxpoint())
        assert value == pytest.approx(0.5)

    def test_super_maximal_raw_value_is_spuriously_positive(self):
        # Doubling both metrics flips both savings terms negative; the raw
        # product is +1, which is why ranking excludes such candidates.
        value = w_coefficient(MetricTriple(200, 20, 1.0), make_maxpoint())
        assert value == pytest.approx(1.0)

    def test_decreasing_in_error(self):
        low = w_coefficient(MetricTriple(50, 5, 0.5), make_maxpoint())
        high = w_coefficient(MetricTriple(50, 5, 2.0), make_maxpoint())
        assert high < low


class TestExceedFlags:
    def test_no_flags_when_within(self):
        assert exceed_flags(MetricTriple(50, 5, 1.0), make_maxpoint()) == frozenset()

    def test_params_flag(self):
        flags = exceed_flags(MetricTriple(150, 5, 1.0), make_maxpoint())
        assert flags == {EXCEEDS_PARAMS}

    def test_latency_flag(self):
        flags = exceed_flags(MetricTriple(50, 15, 1.0), make_maxpoint())
        assert flags == {EXCEEDS_LATENCY}

    def test_both_flags(self):
        flags = exceed_flags(MetricTriple(150, 15, 1.0), make_maxpoint())
        assert flags == {EXCEEDS_PARAMS, EXCEEDS_LATENCY}

    def test_equality_is_not_exceeding(self):
        assert exceed_flags(MetricTriple(100, 10, 1.0), make_maxpoint()) == frozenset()


def tiny_config(space=None, **kwargs):
    return SearchConfig(
        space=space or SearchSpace((2,), (2, 4, 8), (8,), (4,)),
        maxpoint=ROBERTA_LARGE,
        emb=ROBERTA_EMB,
        epsilon=1,
        **kwargs,
    )


def with_maxpoint(table):
    """table with make_maxpoint's triple beside the candidates', where rank_candidates reads it."""
    return {ROBERTA_LARGE: make_maxpoint().metrics, **table}


class TestRankCandidates:
    def test_tie_break_prefers_fewer_heads(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 0.5),  # w = 0.5
            ArchParams(2, 4, 8, 4): MetricTriple(40, 5, 1.0),  # w = 0.3
            ArchParams(2, 8, 8, 4): MetricTriple(40, 5, 1.0),  # w = 0.3
        }
        result = rank_candidates(tiny_config(), with_maxpoint(table))
        ranked = [(row.rank, row.arch.heads, row.w_coefficient) for row in result.ranked]
        assert ranked == [(1, 2, pytest.approx(0.5)), (2, 4, pytest.approx(0.3)), (3, 8, pytest.approx(0.3))]

    def test_exceeding_candidates_go_to_appendix(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 1.0),
            ArchParams(2, 4, 8, 4): MetricTriple(150, 5, 1.0),
            ArchParams(2, 8, 8, 4): MetricTriple(50, 15, 1.0),
        }
        result = rank_candidates(tiny_config(), with_maxpoint(table))
        assert [row.arch.heads for row in result.ranked] == [2]
        assert {row.arch.heads: set(row.flags) for row in result.excluded} == {
            4: {EXCEEDS_PARAMS},
            8: {EXCEEDS_LATENCY},
        }

    def test_all_excluded_is_an_error(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(150, 5, 1.0),
            ArchParams(2, 4, 8, 4): MetricTriple(150, 5, 1.0),
            ArchParams(2, 8, 8, 4): MetricTriple(150, 5, 1.0),
        }
        with pytest.raises(DataError, match="no candidates remain"):
            rank_candidates(tiny_config(), with_maxpoint(table))

    def test_missing_metric_entry_names_arch(self):
        table = {ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 1.0)}
        with pytest.raises(DataError, match=r"<2,4,8,4>"):
            rank_candidates(tiny_config(), with_maxpoint(table))

    def test_top_k_slices_after_ranking(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 0.5),
            ArchParams(2, 4, 8, 4): MetricTriple(40, 5, 1.0),
            ArchParams(2, 8, 8, 4): MetricTriple(40, 5, 1.0),
        }
        result = rank_candidates(tiny_config(top_k=2), with_maxpoint(table))
        assert [row.rank for row in result.ranked] == [1, 2]
        assert result.total_ranked == 3

    def test_ranked_is_permutation_of_non_excluded(self):
        space = SearchSpace((2, 4), (2, 4), (8,), (4, 8))
        archs = [
            ArchParams(d, a, 8, i) for d in (2, 4) for a in (2, 4) for i in (4, 8)
        ]
        table = {
            arch: MetricTriple(10.0 + k, 1.0 + k / 10.0, 1.0 + (k % 3))
            for k, arch in enumerate(archs)
        }
        result = rank_candidates(tiny_config(space=space), with_maxpoint(table))
        assert sorted(row.arch for row in result.ranked) == sorted(archs)
        assert [row.rank for row in result.ranked] == list(range(1, len(archs) + 1))


# The README's Library records, and the space of its ingested example.
README_RECORDS = """\
{"arch": [24, 16, 1024, 4096], "latency_s": 6.17, "error": 1.0, "trials": 6250}
{"arch": [4, 8, 1024, 512], "latency_s": 0.318, "error": 0.5, "trials": 6250}
{"arch": [4, 8, 1024, 768], "latency_s": 0.308, "error": 1.0, "trials": 6250}
"""
README_SPACE = SearchSpace((4,), (8,), (1024,), (512, 768))


class TestMaxPoint:
    """The maximum point's metrics come from the run's own metric map."""

    def test_analytic(self):
        config = tiny_config(error_model=ConstantErrorModel(1.0))
        maxpoint = run_extraction(config).header["maxpoint"]
        assert maxpoint["param_size"] == 355_361_792

    def test_from_measurements(self):
        table = ingest_measurements(
            '{"arch": [4, 8, 1024, 768], "latency_s": 0.308, "error": 0.9, "trials": 6250}',
            ROBERTA_EMB,
        )
        config = SearchConfig(SearchSpace((4,), (8,), (1024,), (768,)), BORT, ROBERTA_EMB)
        maxpoint = run_extraction(config, table).header["maxpoint"]
        assert maxpoint["arch"] == list(BORT.as_tuple())
        assert maxpoint["latency"] == 0.308

    def test_missing_measurement(self):
        with pytest.raises(DataError, match="no measurement record"):
            run_extraction(tiny_config(), {})

    def test_missing_maxpoint_is_found_before_the_candidates(self):
        # epsilon 0 fails only when the candidates are enumerated.
        config = SearchConfig(space=README_SPACE, maxpoint=ROBERTA_LARGE, emb=ROBERTA_EMB, epsilon=0)
        with pytest.raises(DataError, match=r"<24,16,1024,4096> has no measurement record"):
            rank_candidates(config, {})

    def test_readme_records_rank_as_the_cli_does(self, tmp_path, capsys):
        config = tiny_config(space=README_SPACE)
        report = run_extraction(config, ingest_measurements(README_RECORDS, ROBERTA_EMB))
        assert report.header["maxpoint"]["latency"] == 6.17
        assert [row.w_coefficient for row in report.result.ranked] == [
            pytest.approx(1.5016, abs=1e-4), pytest.approx(0.7465, abs=1e-4)
        ]
        (tmp_path / "m.ndjson").write_text(README_RECORDS)
        axes = {"depths": [4], "heads": [8], "hiddens": [1024], "intermediates": [512, 768]}
        cfg = write_config(tmp_path / "c.json", **axes, epsilon=1)
        argv = ["rank", "--config", cfg, "--measurements", str(tmp_path / "m.ndjson")]
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == render_json(report) + "\n"


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


class TestRunExtraction:
    def grid_config(self, epsilon=1, **kwargs):
        return SearchConfig(
            space=grid_space(),
            maxpoint=ROBERTA_LARGE,
            emb=ROBERTA_EMB,
            epsilon=epsilon,
            error_model=ConstantErrorModel(1.0),
            **kwargs,
        )

    def test_analytic_grid_matches_independent_oracle(self):
        report = run_extraction(self.grid_config())
        assert len(report.result.ranked) == 300
        assert report.result.excluded == ()

        t_params = 355_361_792
        t_latency = report.header["maxpoint"]["latency"]
        rows = []
        for row in report.result.ranked:
            m = row.metrics
            w = (t_params - m.param_size) * (t_latency - m.latency) / (
                t_params * t_latency * m.error
            )
            rows.append((w, row.arch))
        assert [row.arch for row in report.result.ranked] == _selection_sort(rows)

    def test_header_provenance(self):
        report = run_extraction(self.grid_config(top_k=3))
        header = report.header
        assert header["metric_mode"] == "analytic"
        assert header["latency_unit"] == "flops"
        assert header["epsilon"] == 1
        assert header["maxpoint"]["arch"] == [24, 16, 1024, 4096]
        assert header["error_provider"] == "constant(1)"
        assert "stand-in" in header["surrogate_note"]
        assert header["candidates_ranked"] == 300
        assert len(report.result.ranked) == 3

    def test_epsilon_strides_the_space(self):
        report = run_extraction(self.grid_config(epsilon=100))
        assert report.header["candidates_evaluated"] == 1
        assert report.result.ranked[0].arch == ArchParams(2, 4, 512, 256)

    def test_deterministic_renders(self):
        first = run_extraction(self.grid_config())
        second = run_extraction(self.grid_config())
        assert render_json(first) == render_json(second)
        assert render_text(first) == render_text(second)

    def test_measurements_alone_run_ingested(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 1.0),
            ArchParams(2, 4, 8, 4): MetricTriple(40, 5, 0.5),
            ArchParams(2, 8, 8, 4): MetricTriple(60, 6, 2.0),
        }
        report = run_extraction(tiny_config(), with_maxpoint(table))
        assert report.header["metric_mode"] == INGESTED
        assert report.header["error_provider"] == "ingested measurement records"
        assert {row.arch: row.metrics for row in report.result.ranked} == table

    def test_analytic_requires_error_model(self):
        config = SearchConfig(space=grid_space(), maxpoint=ROBERTA_LARGE, emb=ROBERTA_EMB)
        with pytest.raises(ConfigError, match="analytic mode requires an error model"):
            run_extraction(config)

    def test_ingested_rejects_an_error_model(self):
        config = tiny_config(error_model=ConstantErrorModel(1.0))
        table = {arch: MetricTriple(50, 5, 1.0) for arch in config.candidates}
        with pytest.raises(ConfigError, match="ingested mode takes no error model"):
            run_extraction(config, with_maxpoint(table))

    def test_render_text_has_columns_and_appendix(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 1.0),
            ArchParams(2, 4, 8, 4): MetricTriple(150, 5, 1.0),
            ArchParams(2, 8, 8, 4): MetricTriple(40, 5, 1.0),
        }
        report = run_extraction(tiny_config(), with_maxpoint(table))
        text = render_text(report)
        assert "rank" in text and "w_coefficient" in text and "flags" in text
        assert "excluded by maximum-point rule: 1" in text
        assert EXCEEDS_PARAMS in text

    def test_render_text_golden(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 1.0),
            ArchParams(2, 4, 8, 4): MetricTriple(150, 5, 1.0),
            ArchParams(2, 8, 8, 4): MetricTriple(40, 5, 0.5),
        }
        report = run_extraction(tiny_config(), with_maxpoint(table))
        assert render_text(report) == "\n".join([
            "# optimal-subarchitecture ranking",
            "# metric_mode: ingested",
            "# latency_unit: seconds_per_sample",
            "# epsilon: 1",
            "# n_steps: 3",
            "# error_provider: ingested measurement records",
            "# surrogate_note: surrogates: param_size is the closed-form parameter count;"
            " latency is measured seconds per sample; error comes from ingested measurement"
            " records, a stand-in, not a trained-model error signal",
            "# top_k: None",
            "# candidates_evaluated: 3",
            "# candidates_ranked: 2",
            "# candidates_excluded: 1",
            "# maxpoint: arch=<24,16,1024,4096> param_size=100.0 latency=10.0",
            "# embedding: vocab=50265 typepos=514 seq=512 batch=1024",
            "rank  depth  heads  hidden  inter  param_size  latency"
            "                unit  error  w_coefficient  flags",
            "   1      2      8       8      4          40        5"
            "  seconds_per_sample    0.5            0.6      -",
            "   2      2      2       8      4          50        5"
            "  seconds_per_sample    1.0           0.25      -",
            "# excluded by maximum-point rule: 1",
            "depth  heads  hidden  inter  param_size  latency                unit  error"
            "  w_coefficient                    flags",
            "    2      4       8      4         150        5  seconds_per_sample    1.0"
            "          -0.25  exceeds_maxpoint_params",
        ])

    def test_render_json_golden(self):
        table = {
            ArchParams(2, 2, 8, 4): MetricTriple(50, 5, 1.0),
            ArchParams(2, 4, 8, 4): MetricTriple(150, 5, 1.0),
            ArchParams(2, 8, 8, 4): MetricTriple(40, 5.5, 0.5),
        }

        def row(arch, param_size, latency, error, w, flags=()):
            return {
                "arch": arch, "param_size": param_size, "latency": latency,
                "latency_unit": "seconds_per_sample", "error": error, "w_coefficient": w,
                "flags": list(flags),
            }

        def expected(top_k, ranking):
            header = {
                "report": "optimal-subarchitecture ranking",
                "metric_mode": "ingested",
                "latency_unit": "seconds_per_sample",
                "epsilon": 1,
                "n_steps": 3,
                "maxpoint": {"arch": [24, 16, 1024, 4096], "param_size": 100.0, "latency": 10.0},
                "embedding": {"vocab": 50265, "typepos": 514, "seq": 512, "batch": 1024},
                "error_provider": "ingested measurement records",
                "surrogate_note": "surrogates: param_size is the closed-form parameter count;"
                " latency is measured seconds per sample; error comes from ingested measurement"
                " records, a stand-in, not a trained-model error signal",
                "top_k": top_k,
                "candidates_evaluated": 3,
                "candidates_ranked": 2,
                "candidates_excluded": 1,
            }
            excluded = [row([2, 4, 8, 4], 150, 5, 1.0, -0.25, [EXCEEDS_PARAMS])]
            return json.dumps(
                {"header": header, "ranking": ranking, "excluded": excluded}, indent=2
            )

        ranking = [
            {"rank": 1, **row([2, 8, 8, 4], 40, 5.5, 0.5, 0.54)},
            {"rank": 2, **row([2, 2, 8, 4], 50, 5, 1.0, 0.25)},
        ]
        full = run_extraction(tiny_config(), with_maxpoint(table))
        assert render_json(full) == expected(None, ranking)
        top_one = run_extraction(tiny_config(top_k=1), with_maxpoint(table))
        assert render_json(top_one) == expected(1, ranking[:1])

    def test_enumerates_once_per_run(self, monkeypatch):
        calls = []

        def counting(space):
            calls.append(space)
            return enumerate_space(space)

        monkeypatch.setattr(engine, "enumerate_space", counting)
        report = run_extraction(self.grid_config(epsilon=2))
        assert len(calls) == 1
        assert report.header["candidates_evaluated"] == 18


positive = st.floats(0.5, 1e6, allow_nan=False, allow_infinity=False)
errors = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
scales = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)
# A change of unit by a power of two is exact in binary floating point, so W is
# exactly invariant to it. Any other factor rounds the scaled inputs before W sees
# them, and when a candidate's metric is within a few ulps of the maximum point's
# that rounding is all of their difference, so no evaluation of W could be invariant.
exact_scales = st.integers(-6, 6).map(lambda n: 2.0**n)


@settings(max_examples=120, deadline=None)
@given(positive, positive, positive, positive, errors, exact_scales)
@example(0.5000000000000001, 0.5, 0.5, 422213.0, 0.0625, 2.0**-6)
def test_w_scale_invariance(t_params, t_latency, f_params, f_latency, error, k):
    base = w_coefficient(
        MetricTriple(f_params, f_latency, error),
        make_maxpoint(t_params, t_latency),
    )
    param_scaled = w_coefficient(
        MetricTriple(f_params * k, f_latency, error),
        make_maxpoint(t_params * k, t_latency),
    )
    latency_scaled = w_coefficient(
        MetricTriple(f_params, f_latency * k, error),
        make_maxpoint(t_params, t_latency * k),
    )
    assert param_scaled == base
    assert latency_scaled == base


@settings(max_examples=120, deadline=None)
@given(positive, positive, positive, positive, errors, scales)
def test_w_inverse_error_scaling(t_params, t_latency, f_params, f_latency, error, k):
    maxpoint = make_maxpoint(t_params, t_latency)
    base = w_coefficient(MetricTriple(f_params, f_latency, error), maxpoint)
    rescaled = w_coefficient(MetricTriple(f_params, f_latency, error * k), maxpoint)
    assert abs(rescaled * k - base) <= 1e-9 * max(1.0, abs(base))


def smallest_valid_point(space: SearchSpace) -> ArchParams:
    """The least even depth and intermediate, the least hidden size that some head
    count divides, and the least such head count."""
    hidden = min(h for h in space.hiddens if any(h % a == 0 for a in space.heads))
    return ArchParams(
        min(d for d in space.depths if d % 2 == 0),
        min(a for a in space.heads if hidden % a == 0),
        hidden,
        min(space.intermediates),
    )


def small_axis(top: int):
    return st.lists(st.integers(1, top), min_size=1, max_size=4, unique=True)


# Depths with an even one, as odd depths are invalid: most grids have valid points.
small_grids = st.builds(
    SearchSpace,
    small_axis(12).filter(lambda depths: any(d % 2 == 0 for d in depths)),
    small_axis(12),
    small_axis(96),
    small_axis(96),
)


@settings(max_examples=100, deadline=None)
@given(
    space=small_grids,
    maxpoint=st.sampled_from([ROBERTA_LARGE, ArchParams(2, 1, 32, 32), ArchParams(4, 1, 64, 64)]),
    error=st.floats(1e-3, 1e3),
)
# Ascending architecture order starts at <2,3,96,64>, but <2,4,64,64> is smaller.
@example(space=SearchSpace((2, 4), (3, 4), (64, 96), (64, 128)), maxpoint=ROBERTA_LARGE,
         error=1.0)
def test_constant_error_ranks_the_smallest_valid_point_first(space, maxpoint, error):
    # Heads change neither count, and params and FLOPs both rise with depth, hidden
    # and intermediate, so under a constant error no other point reaches its w, and
    # a maximum point that excludes it excludes every candidate.
    assume(enumerate_space(space))
    smallest = smallest_valid_point(space)
    config = SearchConfig(space=space, maxpoint=maxpoint, emb=ROBERTA_EMB,
                          error_model=ConstantErrorModel(error))
    try:
        result = run_extraction(config).result
    except DataError as exc:
        assert "no candidates remain" in str(exc)
        return
    assert result.ranked[0].arch == smallest


def oracle_json(report: ExtractionReport) -> str:
    """The report as json.dumps(indent=2) writes it: the reference for render_json."""

    def row(r: CandidateReport) -> dict:
        return {
            "arch": list(r.arch.as_tuple()),
            "param_size": r.metrics.param_size,
            "latency": r.metrics.latency,
            "latency_unit": report.header["latency_unit"],
            "error": r.metrics.error,
            "w_coefficient": r.w_coefficient,
            "flags": sorted(r.flags),
        }

    doc = {
        "header": report.header,
        "ranking": [{"rank": r.rank, **row(r)} for r in report.result.ranked],
        "excluded": [row(r) for r in report.result.excluded],
    }
    return json.dumps(doc, indent=2)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive_float = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Valid tuples only: an even depth, and a hidden size that is a multiple of the head count.
archs = st.builds(
    lambda half_depth, heads, per_head, intermediate: ArchParams(
        2 * half_depth, heads, heads * per_head, intermediate
    ),
    st.integers(1, 2048),
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(1, 4096),
)
triples = st.builds(
    MetricTriple,
    param_size=st.integers(0, 10**40) | st.floats(min_value=0.0, allow_infinity=False),
    latency=st.integers(1, 10**40) | positive_float,
    error=positive_float | st.integers(1, 10**6),
)
flag_sets = st.frozensets(st.sampled_from([EXCEEDS_PARAMS, EXCEEDS_LATENCY]))


@st.composite
def reports(draw):
    ranked = tuple(
        CandidateReport(arch, triple, w, position)
        for position, (arch, triple, w) in enumerate(
            draw(st.lists(st.tuples(archs, triples, finite), max_size=4)), start=1
        )
    )
    excluded = tuple(
        CandidateReport(arch, triple, w, None, flags)
        for arch, triple, w, flags in draw(
            st.lists(st.tuples(archs, triples, finite, flag_sets), max_size=4)
        )
    )
    header = {
        "report": "optimal-subarchitecture ranking",
        "latency_unit": draw(st.sampled_from(["flops", "seconds_per_sample"])),
        "maxpoint": {"arch": [24, 16, 1024, 4096], "param_size": draw(finite), "latency": 1.5},
        "note": draw(st.text(max_size=12)),
        "top_k": draw(st.none() | st.integers(1, 10)),
        "candidates_ranked": len(ranked),
    }
    return ExtractionReport(header, RankingResult(ranked, excluded, len(ranked), 8))


@settings(max_examples=150, deadline=None)
@given(reports())
def test_render_text_cells_are_repr_of_floats_and_str_of_ints(report):
    header = {**report.header, "embedding": {"vocab": 8}}
    text = render_text(ExtractionReport(header, report.result))
    mp = header["maxpoint"]
    assert f"# maxpoint: arch=<24,16,1024,4096> param_size={mp['param_size']!r} latency=1.5" in text

    def cell(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    ranked, excluded = report.result.ranked, report.result.excluded
    expected = [
        [*([str(r.rank)] if r.rank is not None else []), *map(str, r.arch.as_tuple()),
         *map(cell, (r.metrics.param_size, r.metrics.latency)), header["latency_unit"],
         cell(r.metrics.error), cell(r.w_coefficient), ",".join(sorted(r.flags)) or "-"]
        for r in (*ranked, *excluded)
    ]
    # The tables end the text: a column line, the ranked rows, the excluded
    # count, then a column line and the excluded rows when there are any.
    lines = text.split("\n")[-(2 + len(ranked) + (len(excluded) + 1 if excluded else 0)):]
    rows = lines[1 : 1 + len(ranked)] + lines[3 + len(ranked):]
    assert [row.split() for row in rows] == expected


class TestRenderJson:
    @settings(max_examples=150, deadline=None)
    @given(reports())
    def test_matches_json_dumps(self, report):
        assert render_json(report) == oracle_json(report)

    def test_covers_every_flag_count_and_empty_lists(self):
        triple = MetricTriple(5, 2.5, 1.0)
        arch = ArchParams(2, 2, 8, 4)
        excluded = tuple(
            CandidateReport(arch, triple, -0.25, None, frozenset(flags))
            for flags in ((), (EXCEEDS_PARAMS,), (EXCEEDS_LATENCY, EXCEEDS_PARAMS))
        )
        for ranked, rows in (((), ()), ((CandidateReport(arch, triple, 0.1, 1),), excluded)):
            report = ExtractionReport(
                {"latency_unit": "flops", "top_k": None}, RankingResult(ranked, rows, len(ranked), 3)
            )
            assert render_json(report) == oracle_json(report)

    @pytest.mark.parametrize(
        "row",
        [CandidateReport(ArchParams(2, 2, 8, 4), MetricTriple(5, 2, 1.0), float("nan"), 1)],
        ids=["nan_w"],
    )
    def test_non_finite_float_raises(self, row):
        report = ExtractionReport({"latency_unit": "flops"}, RankingResult((row,), (), 1, 1))
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_json(report)
