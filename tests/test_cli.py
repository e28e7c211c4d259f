import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GRID_AXES, write_config
from subarch import costs
from subarch.cli import main

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
            " 76,161,024 parameters (embedding component 52,003,840); the size reported"
            " elsewhere for this architecture is 56.14M with a 39M embedding block."
            " The closed form is kept as normative (it reproduces the 355M reference"
            " architecture exactly); the discrepancy is surfaced rather than reconciled.\n"
        )


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

    def test_wrong_token_count_exits_3(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("1\n2\n3\n")
        code, _, err = run_cli(
            capsys, "toy-forward", str(tokens), "--config", self._config(tmp_path)
        )
        assert code == 3
        assert "multiple" in err


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "subarch", "cost", "--arch", "24,16,1024,4096", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["total"] == 355_361_792
