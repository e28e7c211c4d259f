import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BORT, GRID_AXES, ROBERTA_EMB, write_config
from subarch import cli, costs, engine, toynet
from subarch.cli import main
from subarch.config import KNOWN_KEYS
from subarch.space import ArchParams, EmbeddingConfig

GRID = dict(GRID_AXES, epsilon=1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_grid_count_300(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        code, out, err = run_cli(capsys, "enumerate", "--config", cfg)
        assert code == 0
        assert out.rstrip().endswith("count: 300")
        assert err == ""

    def test_default_epsilon_strides_to_18(self, tmp_path, capsys):
        # Default stride is 2: depths {2,6,10} x heads {4,12} x hiddens
        # {512,1024} x intermediates {256,768,3072}; only heads=4 divides
        # both hiddens, so 3 * 1 * 2 * 3 = 18.
        cfg = write_config(tmp_path / "c.json", **GRID_AXES)
        code, out, _ = run_cli(capsys, "enumerate", "--config", cfg)
        assert code == 0
        assert out.rstrip().endswith("count: 18")

    def test_singleton(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[4], heads=[8], hiddens=[1024], intermediates=[768], epsilon=1,
        )
        code, out, _ = run_cli(capsys, "enumerate", "--config", cfg, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"count": 1, "candidates": [[4, 8, 1024, 768]]}

    def test_empty_result_is_not_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[2], heads=[12], hiddens=[512], intermediates=[256], epsilon=1,
        )
        code, out, _ = run_cli(capsys, "enumerate", "--config", cfg)
        assert code == 0
        assert "count: 0" in out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", depths=[2], bogus=1)
        code, _, err = run_cli(capsys, "enumerate", "--config", cfg)
        assert code == 2
        assert "bogus" in err

    def test_set_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID_AXES)
        code, out, _ = run_cli(capsys, "enumerate", "--config", cfg, "--set", "epsilon=1")
        assert code == 0
        assert "count: 300" in out

    def test_bad_override_shape(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--set", "epsilon")
        assert code == 2
        assert "key=value" in err


class TestCost:
    def test_reference_large_total(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--arch", "24,16,1024,4096", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["total"] == 355_361_792
        assert doc["flops"]["total"] > 0
        assert "note" not in doc

    def test_bort_totals_and_note(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--arch", "4,8,1024,768", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["total"] == 76_161_024
        assert doc["flops"]["total"] == 62_635_008
        assert "56.14M" in doc["note"]

    def test_note_absent_for_other_vocab(self, capsys):
        code, out, _ = run_cli(
            capsys, "cost", "--arch", "4,8,1024,768", "--set", "vocab=28996",
            "--format", "json",
        )
        assert code == 0
        assert "note" not in json.loads(out)

    def test_invalid_arch_exits_2_with_constraint(self, capsys):
        code, out, err = run_cli(capsys, "cost", "--arch", "3,8,512,256")
        assert code == 2
        assert "depth must be even" in err
        assert out == ""

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--arch", "24,16,1024,4096")
        assert code == 0
        assert "total      355361792" in out

    def test_text_golden_with_note(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--arch", "4,8,1024,768")
        assert code == 0
        assert out == (
            "architecture: depth=4 heads=8 hidden=1024 intermediate=768\n"
            "embedding-config: vocab=50265 typepos=514\n"
            "params:\n"
            "  embedding  52003840\n"
            "  encoder    23108608\n"
            "  pooler     1048576\n"
            "  total      76161024\n"
            "flops:\n"
            "  embedding  3072\n"
            "  encoder    60535808\n"
            "  pooler     2096128\n"
            "  total      62635008\n"
            "dominance (encoder / embedding+pooler):"
            " params=0.43558069061359994 flops=28.837560975609755\n"
            "note: closed-form count for <4,8,1024,768> with vocab=50265, typepos=514 is"
            " 76,161,024 parameters (embedding component 52,003,840); read with hidden and"
            " intermediate swapped, <4,8,768,1024> is 55,353,088 (embedding component"
            " 39,002,880). The size reported elsewhere for this architecture is 56.14M with a"
            " 39M embedding block, which matches the <4,8,768,1024> reading. The closed form"
            " is kept as normative (it reproduces the 355M reference architecture exactly);"
            " the discrepancy is surfaced rather than reconciled.\n"
        )

    def test_note_counts_come_from_cost_breakdown_of_both_readings(self, capsys):
        given = costs.cost_breakdown(BORT, ROBERTA_EMB)
        swapped = ArchParams(BORT.depth, BORT.heads, BORT.intermediate, BORT.hidden)
        other = costs.cost_breakdown(swapped, ROBERTA_EMB)
        assert round(other.embedding_params / 1e6) == 39 != round(given.embedding_params / 1e6)
        for fmt in ("text", "json"):
            code, out, _ = run_cli(capsys, "cost", "--arch", "4,8,1024,768", "--format", fmt)
            assert code == 0
            note = out.split("note: ")[1] if fmt == "text" else json.loads(out)["note"]
            for count in (given.total_params, given.embedding_params,
                          other.total_params, other.embedding_params):
                assert f"{count:,}" in note
            assert f"matches the {swapped} reading" in note
            assert "56.14M" in note and "surfaced rather than reconciled" in note


class TestRank:
    def test_analytic_rank_one_has_largest_w(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        code, out, _ = run_cli(capsys, "rank", "--config", cfg, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        ws = [row["w_coefficient"] for row in doc["ranking"]]
        assert len(ws) == 300
        assert doc["ranking"][0]["rank"] == 1
        assert ws[0] == max(ws)
        assert ws == sorted(ws, reverse=True)

    def test_top_k_three_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        code, out, _ = run_cli(
            capsys, "rank", "--config", cfg, "--top-k", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["rank"] for row in doc["ranking"]] == [1, 2, 3]
        assert doc["header"]["candidates_ranked"] == 300

    def test_top_k_beyond_sys_maxsize_ranks_everything(self, capsys):
        # 2**63 is past the stop that itertools.islice accepts.
        code, out, err = run_cli(
            capsys, "rank", "--config", DEMO_CONFIG, "--top-k", str(sys.maxsize + 1),
            "--format", "json",
        )
        assert (code, err) == (0, "")
        _, full, _ = run_cli(capsys, "rank", "--config", DEMO_CONFIG, "--format", "json")
        assert json.loads(out)["ranking"] == json.loads(full)["ranking"]

    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["rank", "--config", cfg, "--format", "json", "--output", str(out_a)]) == 0
        assert main(["rank", "--config", cfg, "--format", "json", "--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def _measurements(self, tmp_path, include_missing_candidate):
        lines = [
            '{"arch": [24, 16, 1024, 4096], "latency_s": 6.170, "error": 1.0, "trials": 6250}',
            '{"arch": [4, 8, 1024, 512], "latency_s": 0.318, "error": 1.0, "trials": 6250}',
            '{"arch": [4, 8, 1024, 768], "latency_s": 0.308, "error": 1.0, "trials": 6250}',
            '{"arch": [4, 16, 1024, 512], "latency_s": 0.314, "error": 1.0, "trials": 6250}',
        ]
        if include_missing_candidate:
            lines.append(
                '{"arch": [4, 16, 1024, 768], "latency_s": 0.310, "error": 1.0, "trials": 6250}'
            )
        path = tmp_path / "m.ndjson"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_ingested_mode(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[4], heads=[8, 16], hiddens=[1024], intermediates=[512, 768], epsilon=1,
        )
        measurements = self._measurements(tmp_path, include_missing_candidate=True)
        code, out, _ = run_cli(
            capsys, "rank", "--config", cfg, "--measurements", measurements,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["header"]["metric_mode"] == "ingested"
        assert doc["header"]["latency_unit"] == "seconds_per_sample"
        assert len(doc["ranking"]) == 4
        assert all(row["w_coefficient"] > 0 for row in doc["ranking"])

    @pytest.mark.parametrize(
        "overrides, code",
        [
            ([], 0),
            (["error.mode=constant", "error.value=1.0"], 0),  # the default, set explicitly
            (["error.mode=bogus", "error.value=-3"], 2),
            (["error.value=0.5"], 2),
        ],
        ids=["unset", "default", "bogus", "other_value"],
    )
    def test_ingested_mode_takes_no_error_setting(self, tmp_path, capsys, overrides, code):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[4], heads=[8, 16], hiddens=[1024], intermediates=[512, 768], epsilon=1,
        )
        measurements = self._measurements(tmp_path, include_missing_candidate=True)
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        argv = ["rank", "--config", cfg, "--measurements", measurements, *sets]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if code:
            assert out == ""
            assert err == (
                "config error: config key 'error' is set, but ingested mode takes no error model:"
                " measurements carry their own\n"
            )

    def test_ingested_missing_candidate_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[4], heads=[8, 16], hiddens=[1024], intermediates=[512, 768], epsilon=1,
        )
        measurements = self._measurements(tmp_path, include_missing_candidate=False)
        code, _, err = run_cli(
            capsys, "rank", "--config", cfg, "--measurements", measurements
        )
        assert code == 3
        assert "<4,16,1024,768>" in err

    def test_missing_axes_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "rank")
        assert code == 2
        assert "axes" in err

    def test_switching_error_mode_drops_stale_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        code, out, _ = run_cli(
            capsys, "rank", "--config", cfg, "--format", "json", "--top-k", "3",
            "--set", "error.mode=synthetic", "--set", "error.c0=0.05",
            "--set", "error.c1=3e7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["header"]["error_provider"] == "synthetic(c0=0.05, c1=3e+07)"
        assert all(row["error"] > 0.05 for row in doc["ranking"])

    def test_bool_top_k_and_n_steps_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        for key in ("top_k", "n_steps"):
            code, out, err = run_cli(capsys, "rank", "--config", cfg, "--set", f"{key}=true")
            assert code == 2
            assert key in err
            assert out == ""

    def test_infinite_record_latency_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[4], heads=[8, 16], hiddens=[1024], intermediates=[512, 768], epsilon=1,
        )
        path = tmp_path / "m.ndjson"
        path.write_text(
            Path(self._measurements(tmp_path, True)).read_text().replace("6.170", "Infinity")
        )
        code, out, err = run_cli(
            capsys, "rank", "--config", cfg, "--measurements", str(path), "--format", "json"
        )
        assert code == 3
        assert "line 1" in err
        assert out == ""

    @pytest.mark.parametrize(
        "overrides",
        [
            ["error.value=Infinity"],
            ["error.mode=synthetic", "error.c0=0.1", "error.c1=Infinity"],
            ["error.mode=synthetic", "error.c0=Infinity", "error.c1=1"],
        ],
    )
    def test_infinite_error_settings_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "c.json", **GRID)
        argv = ["rank", "--config", cfg]
        for pair in overrides:
            argv += ["--set", pair]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (["error.mode=[]"], "error mode must be"),
            (["error=5", "error.value=1"], "must be an object with a 'mode'"),
        ],
        ids=["list_mode", "key_into_a_number"],
    )
    def test_malformed_error_object_exits_2(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "c.json", **GRID)
        argv = ["rank", "--config", cfg]
        for pair in overrides:
            argv += ["--set", pair]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("raw", ["1" + "0" * 400, "true"], ids=["400_digits", "bool"])
    def test_non_finite_or_bool_error_value_exits_2(self, tmp_path, capsys, raw):
        cfg = write_config(tmp_path / "c.json", **GRID)
        code, out, err = run_cli(capsys, "rank", "--config", cfg, "--set", f"error.value={raw}")
        assert code == 2
        assert "error.value must be a finite number" in err
        assert out == ""

    def test_oversized_integer_record_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            depths=[4], heads=[8, 16], hiddens=[1024], intermediates=[512, 768], epsilon=1,
        )
        path = tmp_path / "m.ndjson"
        path.write_text(
            Path(self._measurements(tmp_path, True)).read_text().replace("0.318", "1" * 5000)
        )
        code, out, err = run_cli(capsys, "rank", "--config", cfg, "--measurements", str(path))
        assert code == 3
        assert "line 2" in err
        assert out == ""

    def test_non_finite_w_exits_3(self, tmp_path, capsys):
        # Every input is finite, but params(T) * latency(T) overflows to inf and w to NaN.
        cfg = write_config(
            tmp_path / "c.json",
            depths=[2], heads=[4], hiddens=[512], intermediates=[256], epsilon=1,
        )
        path = tmp_path / "m.ndjson"
        path.write_text(
            '{"arch": [24, 16, 1024, 4096], "latency_s": 1e300, "error": 1.0, "trials": 1}\n'
            '{"arch": [2, 4, 512, 256], "latency_s": 1e299, "error": 1.0, "trials": 1}\n'
        )
        for fmt in ("json", "text"):
            code, out, err = run_cli(
                capsys, "rank", "--config", cfg, "--measurements", str(path), "--format", fmt
            )
            assert code == 3
            assert "<2,4,512,256>" in err
            assert "not finite" in err
            assert out == ""

    @pytest.mark.parametrize(
        "overrides, arch",
        [
            (["vocab=1" + "0" * 400], "<2,4,512,256>"),
            (["hiddens=[1" + "0" * 300 + "]"], "<2,4,1" + "0" * 300 + ",256>"),
            # The synthetic error divides by the count, and the maximum point's comes first.
            (
                ["vocab=1" + "0" * 400, "error.mode=synthetic", "error.c0=0.1", "error.c1=1e7"],
                "<24,16,1024,4096>",
            ),
        ],
        ids=["vocab_10e400", "hidden_10e300", "synthetic_vocab_10e400"],
    )
    def test_count_too_large_for_a_float_exits_2(self, tmp_path, capsys, overrides, arch):
        cfg = write_config(tmp_path / "c.json", **GRID)
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        code, out, err = run_cli(capsys, "rank", "--config", cfg, *sets)
        assert code == 2
        assert f"architecture {arch}" in err
        assert "too large for a float" in err
        assert out == ""

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID)
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(capsys, "rank", "--config", cfg, "--output", str(target))
        assert code == 2
        assert "cannot write output file" in err
        assert out == ""


class TestToyForward:
    def _config(self, tmp_path):
        return write_config(
            tmp_path / "c.json",
            arch=[2, 2, 8, 16], vocab=32, typepos=16, seq=8, batch=1, seed=5,
        )

    def test_stats_output(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(str(i % 32) for i in range(16)) + "\n")
        code, out, _ = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["output_shape"] == [2, 8, 8]
        assert -1.0 <= doc["min"] <= doc["max"] <= 1.0
        assert doc["softmax_row_sum_max_deviation"] <= 1e-9
        assert doc["instantiated_params"] == 1696
        assert doc["seed"] == 5

    def test_out_of_range_token_exits_3(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(["0"] * 7 + ["40"]) + "\n")
        code, _, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 3
        assert "out of range" in err

    def test_out_of_range_token_exits_3_before_building(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the net was built")

        monkeypatch.setattr(toynet.ToyNet, "build", classmethod(no_build))
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(["0"] * 10 + ["40"] + ["1"] * 5) + "\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 3
        assert "token id 40 out of range [0, 32) at batch 1, position 2" in err
        assert out == ""

    def test_token_id_beyond_int64_exits_3(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(["0"] * 7 + [str(2**63)]) + "\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 3
        assert "int64" in err
        assert out == ""

    @pytest.mark.parametrize(
        "override", ["layernorm_eps=true", "layernorm_eps=Infinity", "dropout=true"]
    )
    def test_non_finite_or_bool_float_settings_exit_2(self, tmp_path, capsys, override):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(str(i) for i in range(16)) + "\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path),
            "--set", override,
        )
        assert code == 2
        assert f"{override.partition('=')[0]} must be a finite number" in err
        assert out == ""

    def test_wrong_token_count_exits_3(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("1\n2\n3\n")
        code, _, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 3
        assert "multiple" in err

    def test_fit_counts_only_the_token_rows_read(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("0\n1\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--arch", "2,1,1,1",
            "--set", "vocab=99999999999999", "--set", "seq=2",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["output_shape"] == [1, 2, 1]
        emb = EmbeddingConfig(99999999999999, 514, 2, 1024)
        count = costs.param_count(ArchParams(2, 1, 1, 1), emb)
        assert doc["instantiated_params"] == count == 100_000_000_000_552

    @pytest.mark.parametrize("stage", ["build", "forward"])
    def test_net_that_does_not_fit_exits_2(self, tmp_path, capsys, monkeypatch, stage):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 375. GiB")

        if stage == "build":
            monkeypatch.setattr(toynet.ToyNet, "build", classmethod(out_of_memory))
        else:
            monkeypatch.setattr(toynet, "forward_with_stats", out_of_memory)
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(str(i) for i in range(16)) + "\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        # 1,696 parameters less the 16 unread token rows of 8, at 8 bytes each
        assert "toy network <2,2,8,16> does not fit in memory" in err
        assert "12,544 bytes" in err

    def test_a_layer_draw_that_runs_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # forward's first draw, the embedding's, runs; its second, the first attention
        # half's, fails as if out of memory.
        calls = []
        draw = toynet._draw

        def layer_out_of_memory(seed, stretches):
            calls.append(seed)
            if len(calls) > 1:
                raise MemoryError("Unable to allocate 54.0 MiB")
            draw(seed, stretches)

        monkeypatch.setattr(toynet, "_draw", layer_out_of_memory)
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(str(i) for i in range(16)) + "\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert (code, out, len(calls)) == (2, "", 2)
        assert err == (
            "config error: toy network <2,2,8,16> does not fit in memory: its float64 weights"
            " alone take 12,544 bytes (0.0 GiB)\n"
        )


    def test_weights_beyond_physical_memory_stream_within_it(self, tmp_path, capsys, monkeypatch):
        # <90,16,1024,4096> has 8.5 GiB of float64 weights, but its streamed forward
        # holds one 32 MiB group at a time: it runs in 1 GiB. Each group is filled
        # with a constant, not drawn, to keep the test fast; the 8 rows are one
        # feed-forward block, so each layer fills three groups.
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**30)
        fills = []

        def constant_fill(seed, stretches):
            fills.append(seed)
            for _, flat in stretches:
                flat.fill(0.25)

        monkeypatch.setattr(toynet, "_draw", constant_fill)
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("\n".join(str(i) for i in range(8)) + "\n")
        code, out, err = run_cli(
            capsys, "toy-forward", str(tokens), "--arch", "90,16,1024,4096", "--set", "seq=8"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["output_shape"] == [1, 8, 1024]
        assert doc["instantiated_params"] * 8 > 8 * 2**30
        assert len(fills) == 3 * 90 + 2

    def test_a_group_beyond_physical_memory_exits_2_before_drawing(self, tmp_path, capsys,
                                                                    monkeypatch):
        # Each feed-forward half of <2,1,1,2**40> is 3 * 2**40 doubles (24 TiB).
        def no_draw(seed, stretches):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(toynet, "_draw", no_draw)
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("0\n1\n")
        arch = ArchParams(2, 1, 1, 2**40)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "toy-forward", str(tokens), "--arch", f"2,1,1,{2**40}",
                                 "--set", "seq=2")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        net_config = toynet.ToyNetConfig(arch=arch, emb=EmbeddingConfig(50265, 514, 2, 1))
        held = toynet.streamed_forward_bytes(net_config, 1, 2)
        assert held > 3 * 2**40 * 8
        assert err.startswith(
            f"config error: toy network {arch} does not fit in memory: a streamed forward"
            f" holds {held:,} bytes"
        )


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) >= 7
        assert all(line.startswith("PASS") for line in lines)

    def test_perturbed_formula_prints_counterexample(self, capsys, monkeypatch):
        real = costs.param_count
        monkeypatch.setattr(costs, "param_count", lambda arch, emb: real(arch, emb) + 1)
        code, out, err = run_cli(capsys, "verify")
        assert code == 4
        assert "FAIL" in out
        assert "<2,4,512,256>" in out
        assert "verification failed" in err


def test_cli_import_leaves_numpy_unloaded():
    code = (
        "import sys, subarch.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "import subarch\n"
        "assert subarch.ToyNet is subarch.cli.ToyNet\n"
        "assert subarch.cli.ToyNetConfig is subarch.ToyNetConfig\n"
        "assert 'numpy' in sys.modules\n"
        "print(subarch.ToyNet.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ToyNet\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "subarch", "cost", "--arch", "24,16,1024,4096", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["total"] == 355_361_792


# A four-point grid whose every candidate, the maximum point included, has a
# record in the generated measurement files, so ingested runs can succeed.
_FUZZ_ARCHS = [[2, 1, 4, 4], [2, 1, 4, 8], [2, 2, 4, 4], [2, 2, 4, 8]]
_FUZZ_BASE = {
    "depths": [2], "heads": [1, 2], "hiddens": [4], "intermediates": [4, 8],
    "epsilon": 1, "maxpoint": [2, 2, 4, 8],
}
_FUZZ_KEYS = sorted(KNOWN_KEYS) + ["error.mode", "error.value", "error.c0", "error.c1", "bogus"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10**30)
    | st.sampled_from([2**63, 10**400])
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)
_set_values = (
    _json_values.map(json.dumps)
    | st.text(max_size=8)
    | st.sampled_from(["NaN", "Infinity", "-Infinity", "9" * 5000, "constant", "synthetic"])
)


@st.composite
def _ndjson(draw) -> str:
    """A full record set for the fuzz grid with a few fields or lines garbled."""
    positive = st.floats(0.01, 10.0)
    records = [
        {"arch": arch, "latency_s": draw(positive), "error": draw(positive), "trials": 5}
        for arch in _FUZZ_ARCHS
    ]
    for _ in range(draw(st.integers(0, 2))):
        record = draw(st.sampled_from(records))
        record[draw(st.sampled_from(["arch", "latency_s", "error", "trials", "extra"]))] = draw(
            _json_values
        )
    lines = [json.dumps(record) for record in records]
    lines += draw(st.lists(_json_values.map(json.dumps) | st.text(max_size=10), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _refuse_constant(token):
    raise AssertionError(f"non-standard JSON constant {token} in output")


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["enumerate", "cost", "rank", "rank-ingested"]),
    fmt=st.sampled_from(["text", "json"]),
    overrides=st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), _set_values), max_size=3),
    arch=st.none() | st.sampled_from(["2,2,4,8", "4,8,1024,768"]) | _set_values,
    top_k=st.none() | _set_values,
    ndjson=_ndjson(),
)
def test_cli_fuzz_exits_cleanly(command, fmt, overrides, arch, top_k, ndjson):
    """Random config values and records end in a documented exit, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp) / "c.json", **_FUZZ_BASE)
        argv = [command.partition("-")[0], "--config", config, "--format", fmt]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        if command == "cost" and arch is not None:
            argv.append(f"--arch={arch}")  # one token, so "-1,..." is not read as a flag
        if command.startswith("rank") and top_k is not None:
            argv.append(f"--top-k={top_k}")
        if command == "rank-ingested":
            measurements = Path(tmp) / "m.ndjson"
            measurements.write_text(ndjson)
            argv += ["--measurements", str(measurements)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    assert code in {0, 2, 3, 4}, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and fmt == "json":
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


DEMO_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "demo.json")


def _no_traceback(err: str) -> None:
    assert "Traceback" not in err


# (flag, key, the command before it, a valid value other than those tried, the valid values tried)
_SHORTHANDS = [
    ("--arch", "arch", ("cost",), "2,2,4,8", ["4,8,1024,768", "[4,8,1024,768]"]),
    ("--top-k", "top_k", ("rank", "--config", DEMO_CONFIG), "5", ["3", "null"]),
    (
        "--seed",
        "seed",
        ("toy-forward", "{tokens}", "--set", "arch=[2,2,8,16]", "--set", "vocab=32",
         "--set", "typepos=16", "--set", "seq=8"),
        "9",
        ["5", "0"],
    ),
]


class TestFlagsAreSetShorthands:
    """--arch, --top-k and --seed mean --set arch=, top_k= and seed=, applied after every --set."""

    @pytest.mark.parametrize(
        "flag, key, command, other, value, ok",
        [
            pytest.param(flag, key, command, other, value, value in valid, id=f"{key}={value}")
            for flag, key, command, other, valid in _SHORTHANDS
            for value in dict.fromkeys([*valid, "1_0", "\u0663", "03", "true", "null"])
        ],
    )
    def test_flag_matches_set(self, tmp_path, capsys, flag, key, command, other, value, ok):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("".join(f"{i % 32}\n" for i in range(16)))
        command = [part.format(tokens=tokens) for part in command]
        expected = run_cli(capsys, *command, "--set", f"{key}={value}")
        assert run_cli(capsys, *command, flag, value) == expected
        assert run_cli(capsys, *command, flag, value, "--set", f"{key}={other}") == expected
        assert run_cli(capsys, *command, "--set", f"{key}={other}", flag, value) == expected
        assert expected[0] == (0 if ok else 2)
        assert (key in expected[2]) != ok  # an error names the key


class TestMappedFailures:
    """Failures that end in a documented exit naming the key, file or architecture."""

    TOY_SETTINGS = ("--set", "seq=2", "--set", "vocab=4", "--set", "typepos=4")

    def _tokens(self, tmp_path, text="0\n1\n2\n3\n"):
        path = tmp_path / "tokens.txt"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("command,module", [("enumerate", cli), ("rank", engine)])
    @pytest.mark.parametrize("epsilon,points", [(1, "360"), (2, "36")])
    def test_grid_that_does_not_fit_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                            module, epsilon, points):
        # The demo grid has 360 points; a stride of 2 keeps 3 x 2 x 2 x 3 of them.
        def out_of_memory(space):
            raise MemoryError

        monkeypatch.setattr(module, "enumerate_space", out_of_memory)
        cfg = write_config(tmp_path / "c.json", **GRID_AXES, epsilon=epsilon)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (2, "")
        assert err == f"config error: the grid of {points} points does not fit in memory\n"

    def test_override_beyond_the_int_digit_limit_names_the_key(self, capsys):
        code, out, err = run_cli(
            capsys, "cost", "--arch", "2,1,1,1", "--set", "vocab=" + "9" * 5000
        )
        assert code == 2
        assert "vocab must be a positive integer" in err
        assert out == ""
        _no_traceback(err)

    def test_override_beyond_the_int_digit_limit_is_a_string(self, capsys):
        # enumerate reads no vocab, so the value is as unused as any other string.
        argv = ("enumerate", "--config", DEMO_CONFIG)
        code, plain, _ = run_cli(capsys, *argv, "--set", "vocab=abc")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--set", "vocab=" + "9" * 5000)
        assert code == 0
        assert out == plain
        assert err == ""

    def test_config_integer_beyond_the_int_digit_limit_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"vocab": ' + "9" * 5000 + "}")
        code, out, err = run_cli(capsys, "enumerate", "--config", str(path))
        assert code == 2
        assert f"config file {path} is not valid JSON" in err
        assert out == ""
        _no_traceback(err)

    @pytest.mark.parametrize(
        "inter, size",
        [
            ("1" + "0" * 400, "more than 2**1000 bytes"),
            (str(2**62), "221,360,928,884,514,619,720 bytes"),  # 8 * (6 * 2**62 + 41)
        ],
        ids=["dimension_10e400", "size_2e62"],
    )
    def test_toy_size_numpy_refuses_names_the_arch(self, tmp_path, capsys, inter, size):
        # numpy refuses both shapes before allocating anything large.
        code, out, err = run_cli(
            capsys, "toy-forward", self._tokens(tmp_path), "--arch", f"2,1,1,{inter}",
            *self.TOY_SETTINGS,
        )
        assert code == 2
        assert f"toy network <2,1,1,{inter}> does not fit in memory" in err
        assert size in err
        assert out == ""
        _no_traceback(err)

    def test_huge_count_after_memory_error_is_not_formatted(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(toynet.ToyNet, "build", classmethod(out_of_memory))
        depth = "2" + "0" * 400
        code, out, err = run_cli(
            capsys, "toy-forward", self._tokens(tmp_path), "--arch", f"{depth},1,1,1",
            *self.TOY_SETTINGS,
        )
        assert code == 2
        assert f"toy network <{depth},1,1,1> does not fit in memory" in err
        assert "more than 2**1000 bytes" in err
        _no_traceback(err)

    @pytest.mark.parametrize(
        "seed", [["--seed", "-1"], ["--set", "seed=true"]], ids=["negative", "bool"]
    )
    def test_bad_seed_exits_2(self, tmp_path, capsys, seed):
        code, out, err = run_cli(
            capsys, "toy-forward", self._tokens(tmp_path), "--arch", "2,1,1,1",
            *self.TOY_SETTINGS, *seed,
        )
        assert code == 2
        assert "seed must be a non-negative integer" in err
        assert out == ""
        _no_traceback(err)

    @pytest.mark.parametrize(
        "arch",
        [
            "2,1,1" + "0" * 2500 + ",1" + "0" * 2500,  # counts beyond int-to-str's digit limit
            "2,1,1,1" + "0" * 200,  # a FLOP ratio beyond the float range
        ],
        ids=["count_digits", "ratio_overflow"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cost_too_large_to_report_names_the_arch(self, capsys, arch, fmt):
        code, out, err = run_cli(capsys, "cost", "--arch", arch, "--format", fmt)
        assert code == 2
        assert f"the counts of architecture <{arch}> are too large to report" in err
        assert out == ""
        _no_traceback(err)

    def test_nul_byte_in_config_path_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--config", "c\0.json")
        assert code == 2
        assert "cannot read config file c\0.json" in err
        _no_traceback(err)

    def test_nul_byte_in_measurements_path_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "rank", "--config", DEMO_CONFIG, "--measurements", "m\0.ndjson"
        )
        assert code == 3
        assert "cannot read measurements file m\0.ndjson" in err
        _no_traceback(err)

    def test_nul_byte_in_token_path_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "toy-forward", "t\0.txt", "--arch", "2,1,1,1")
        assert code == 3
        assert "cannot read token file t\0.txt" in err
        _no_traceback(err)

    def test_nul_byte_in_output_path_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "cost", "--arch", "2,1,1,1", "--output", "o\0.txt")
        assert code == 2
        assert "cannot write output file o\0.txt" in err
        assert out == ""
        _no_traceback(err)

    @pytest.mark.parametrize("kind", ["measurements", "token"])
    def test_undecodable_data_file_exits_3(self, tmp_path, capsys, kind):
        path = tmp_path / "data"
        path.write_bytes(b"\xff\xfe\n")
        if kind == "measurements":
            argv = ("rank", "--config", DEMO_CONFIG, "--measurements", str(path))
        else:
            argv = ("toy-forward", str(path), "--arch", "2,1,1,1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert f"cannot read {kind} file {path}" in err
        assert out == ""
        _no_traceback(err)

    def test_override_nested_too_deeply_names_the_key(self, capsys):
        value = "[" * 100_000 + "]" * 100_000
        code, out, err = run_cli(capsys, "enumerate", "--set", f"epsilon={value}")
        assert code == 2
        assert err == "config error: override 'epsilon' is nested too deeply to parse\n"
        assert out == ""

    def test_toy_net_beyond_physical_memory_exits_2_before_building(self, tmp_path):
        # Each of the 2e400 layers is tiny, so building would allocate until memory
        # ran out. The child caps its own address space in case the check is missing.
        depth = "2" + "0" * 400
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from subarch.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["toy-forward", self._tokens(tmp_path), "--arch", f"{depth},1,1,1",
                *self.TOY_SETTINGS]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=20,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 2, proc.stderr
        assert f"toy network <{depth},1,1,1> does not fit in memory" in proc.stderr
        assert "more than 2**1000 bytes" in proc.stderr
        assert proc.stdout == ""

    def test_toy_forward_takes_no_format(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["toy-forward", self._tokens(tmp_path), "--format", "text"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestDocumentedExits:
    """Error exits of the input checks, one case each."""

    def _toy(self, capsys, tmp_path, text, *extra):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text(text)
        cfg = write_config(tmp_path / "c.json", arch=[2, 2, 8, 16], vocab=32, typepos=16, seq=2)
        return run_cli(capsys, "toy-forward", str(tokens), "--config", cfg, *extra)

    # Every way an architecture enters from outside; each meets the same check.
    @pytest.mark.parametrize(
        "argv, code, label",
        [
            pytest.param(("cost", "--arch", "3,16,1024,4096"), 2, "config error", id="cost"),
            pytest.param(
                ("toy-forward", "{tokens}", "--arch", "3,16,1024,4096"), 2, "config error",
                id="toy-forward",
            ),
            pytest.param(
                ("rank", "--config", DEMO_CONFIG, "--set", "maxpoint=[3,16,1024,4096]"),
                2, "config error", id="analytic_maxpoint",
            ),
            pytest.param(
                ("rank", "--config", DEMO_CONFIG, "--measurements", "{valid_records}",
                 "--set", "maxpoint=[3,16,1024,4096]"),
                2, "config error", id="ingested_maxpoint",
            ),
            pytest.param(
                ("rank", "--config", DEMO_CONFIG, "--measurements", "{odd_depth_record}"),
                3, "data error: measurement line 1", id="measurement_line",
            ),
        ],
    )
    def test_odd_depth_architecture_is_refused_at_every_entry(
        self, tmp_path, capsys, argv, code, label
    ):
        files = {
            "tokens": "1\n2\n",
            "valid_records": '{"arch": [24, 16, 1024, 4096], "latency_s": 6.17, "error": 1.0,'
            ' "trials": 1}\n',
            "odd_depth_record": '{"arch": [3, 16, 1024, 4096], "latency_s": 6.17, "error": 1.0,'
            ' "trials": 1}\n',
        }
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        argv = [arg.format(**paths) for arg in argv]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert err == f"{label}: invalid architecture <3,16,1024,4096>: depth must be even\n"
        assert out == ""

    def test_ingested_mode_without_measurements_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "rank", "--config", DEMO_CONFIG, "--set", "metric_mode=ingested"
        )
        assert code == 2
        assert "unknown override key 'metric_mode'" in err
        assert out == ""

    def test_metric_mode_in_a_config_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **GRID, metric_mode="ingested")
        code, out, err = run_cli(capsys, "rank", "--config", cfg)
        assert code == 2
        assert "unknown config key(s): metric_mode" in err
        assert out == ""

    def test_unreadable_measurements_file_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "absent.ndjson"
        code, out, err = run_cli(
            capsys, "rank", "--config", DEMO_CONFIG, "--measurements", str(missing)
        )
        assert code == 3
        assert f"cannot read measurements file {missing}" in err
        assert out == ""

    def test_unreadable_token_file_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        code, out, err = run_cli(capsys, "toy-forward", str(missing), "--arch", "2,2,8,16")
        assert code == 3
        assert f"cannot read token file {missing}" in err
        assert out == ""

    def test_non_integer_token_line_exits_3(self, tmp_path, capsys):
        code, out, err = self._toy(capsys, tmp_path, "1\n2\nthree\n4\n")
        assert code == 3
        assert "token file line 3: not an integer: 'three'" in err
        assert out == ""

    def test_blank_token_lines_are_skipped(self, tmp_path, capsys):
        code, plain, _ = self._toy(capsys, tmp_path, "1\n2\n3\n4\n")
        assert code == 0
        code, spaced, _ = self._toy(capsys, tmp_path, "\n1\n\n2\n  \n3\n4\n\n")
        assert code == 0
        assert spaced == plain

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read config file"),
            ("{", "is not valid JSON"),
            ("[1, 2]", "must contain a JSON object"),
            ("[" * 100_000 + "]" * 100_000, "is not valid JSON: maximum recursion depth"),
        ],
        ids=["missing", "invalid_json", "not_an_object", "nested_too_deeply"],
    )
    def test_bad_config_file_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(capsys, "enumerate", "--config", str(path))
        assert code == 2
        assert f"{path}" in err
        assert message in err
        assert out == ""

    def test_dotted_override_outside_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--set", "vocab.size=3")
        assert code == 2
        assert "unknown override key 'vocab.size'" in err
        assert out == ""

    def test_zero_layernorm_eps_exits_2(self, tmp_path, capsys):
        code, out, err = self._toy(capsys, tmp_path, "1\n2\n", "--set", "layernorm_eps=0")
        assert code == 2
        assert "layernorm_eps must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["cost", "toy-forward"])
    def test_arch_led_by_a_negative_number_names_the_depth(self, tmp_path, capsys, command):
        tokens = (str(tmp_path / "tokens.txt"),) if command == "toy-forward" else ()
        code, out, err = run_cli(capsys, command, *tokens, "--arch", "-2,8,1024,768")
        assert code == 2
        assert "depth must be a positive integer (got -2)" in err
        assert out == ""

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+1"])
    def test_token_line_not_in_ascii_digits_exits_3(self, tmp_path, capsys, token):
        code, out, err = self._toy(capsys, tmp_path, f"1\n{token}\n")
        assert code == 3
        assert f"token file line 2: not an integer: {token!r}" in err
        assert out == ""

    @pytest.mark.parametrize("arch", ["4,8,1_024,768", "4,8,\u0661024,768", "+4,8,1024,768"])
    def test_arch_part_not_in_ascii_digits_exits_2(self, capsys, arch):
        code, out, err = run_cli(capsys, "cost", "--arch", arch)
        assert code == 2
        assert f"architecture {arch!r} must be four comma-separated integers" in err
        assert out == ""


class TestStdoutWriteFailure:
    """A stdout that cannot take the output exits 2 with one line on stderr."""

    def _run(self, stdout, *argv):
        return subprocess.run(
            [sys.executable, "-m", "subarch", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )

    def test_pipe_closed_before_the_write(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run(write_end, "rank", "--config", DEMO_CONFIG)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == (
            "config error: cannot write output to stdout: [Errno 32] Broken pipe\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [("enumerate", "--config", DEMO_CONFIG), ("verify",)])
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            proc = self._run(full, *argv)
        assert proc.returncode == 2
        assert proc.stderr == (
            "config error: cannot write output to stdout: [Errno 28] No space left on device\n"
        )

    def test_in_process_stream_without_a_file_descriptor(self, capsys, monkeypatch):
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStream())
        code = main(["cost", "--arch", "4,8,1024,768"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: cannot write output to stdout: [Errno 28] No space left on device\n"
        )


class TestStderrWriteFailure:
    """A stderr that cannot take the diagnostic leaves the documented exit code as it is."""

    CASES = [
        pytest.param(("rank", "--config", DEMO_CONFIG, "--set", "top_k=x"), 2, id="config"),
        pytest.param(
            ("rank", "--config", DEMO_CONFIG, "--measurements", "missing.jsonl"), 3, id="data"
        ),
        # The report fails to reach stdout first: a config error.
        pytest.param(("rank", "--config", DEMO_CONFIG, "--format", "json"), 2, id="stdout"),
    ]

    def _run(self, tmp_path, stdout, stderr, argv):
        return subprocess.run(
            [sys.executable, "-m", "subarch", *argv],
            stdout=stdout, stderr=stderr, cwd=tmp_path, timeout=120,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv,code", CASES[:2])
    def test_full_device(self, tmp_path, argv, code):
        with open("/dev/full", "w") as full:
            proc = self._run(tmp_path, subprocess.PIPE, full, argv)
        assert proc.returncode == code
        assert proc.stdout == b""

    @pytest.mark.parametrize("argv,code", CASES)
    def test_pipe_closed_before_the_writes(self, tmp_path, argv, code):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run(tmp_path, write_end, write_end, argv)
        finally:
            os.close(write_end)
        assert proc.returncode == code


# A grid whose ingested run both ranks and excludes: <4,16,1024,768> is
# slower than the maximum point, so the maximum-point rule excludes it.
_PINNED_GRID = {
    "depths": [4], "heads": [8, 16], "hiddens": [1024], "intermediates": [512, 768], "epsilon": 1,
}
_PINNED_RECORDS = (
    '{"arch": [24, 16, 1024, 4096], "latency_s": 6.17, "error": 1.0, "trials": 6250}\n'
    '{"arch": [4, 8, 1024, 512], "latency_s": 0.318, "error": 0.5, "trials": 6250}\n'
    '{"arch": [4, 8, 1024, 768], "latency_s": 0.308, "error": 1.0, "trials": 6250}\n'
    '{"arch": [4, 16, 1024, 512], "latency_s": 0.314, "error": 2.0, "trials": 6250}\n'
    '{"arch": [4, 16, 1024, 768], "latency_s": 7.5, "error": 1.0, "trials": 6250}\n'
)
_SYNTHETIC = ("--set", "error.mode=synthetic", "--set", "error.c0=0.05", "--set", "error.c1=3e7")


class TestPinnedReports:
    """sha256 of `rank` stdout, recorded before the latency unit became a run-level field.

    A refactor of the metric, scoring or rendering code must leave every byte
    of these reports as it was.
    """

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ((), "9404a2e21f9552e21917b6601b433c382d324bf30e19bd0212dd0e934423f5eb"),
            (("--format", "json"), "06033ff3d6267c2a4b4ea2c5a6fa7b7dbc79bf900e3d180d7e595322596736d8"),
            ((*_SYNTHETIC, "--top-k", "5", "--format", "json"), "394240097d27138f2742d56d38e373c2027ba8f731df51d643cfe903f7abf3a3"),
        ],
        ids=["text", "json", "synthetic_top_5_json"],
    )
    def test_demo_grid(self, capsys, extra, digest):
        code, out, err = run_cli(capsys, "rank", "--config", DEMO_CONFIG, *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [("text", "902e8149785eae54120ca763816b93ebe6c64d3130b335876d69364fb211577c"), ("json", "f4b30fbf74ca390cfb406ecc4ce8b84f2d56b281cc7f5538210ba5f512fbdb34")],
    )
    def test_ingested_with_an_excluded_row(self, tmp_path, capsys, fmt, digest):
        cfg = write_config(tmp_path / "c.json", **_PINNED_GRID)
        records = tmp_path / "m.ndjson"
        records.write_text(_PINNED_RECORDS)
        code, out, err = run_cli(
            capsys, "rank", "--config", cfg, "--measurements", str(records), "--format", fmt
        )
        assert (code, err) == (0, "")
        assert "exceeds_maxpoint_latency" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
