"""The README's library examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", LIBRARY, re.DOTALL | re.MULTILINE)


def run_block(index: int) -> dict:
    namespace: dict = {}
    exec(compile(BLOCKS[index], f"README.md, Library block {index + 1}", "exec"), namespace)
    return namespace


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_library_block_runs(index):
    run_block(index)


def test_first_block_ranks_in_both_modes():
    namespace = run_block(0)
    assert namespace["report"].header["metric_mode"] == "analytic"
    assert namespace["best"].rank == 1
    ingested = namespace["ingested"]
    assert ingested.header["metric_mode"] == "ingested"
    assert ingested.header["error_provider"] == "ingested measurement records"
    measurements = namespace["measurements"]
    assert len(ingested.result.ranked) == 2
    assert all(measurements[row.arch] == row.metrics for row in ingested.result.ranked)
