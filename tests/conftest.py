"""Shared constants and helpers for the test suite."""

import json
import os
from pathlib import Path

from subarch.space import ArchParams, EmbeddingConfig, SearchSpace

# Tests that start `python -m subarch` as a child process need it to import
# this source tree too, also when pytest alone put src/ on sys.path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# The demo grid: 360 points, 300 of them valid.
GRID_AXES = {
    "depths": [2, 4, 6, 8, 10, 12],
    "heads": [4, 8, 12, 16],
    "hiddens": [512, 768, 1024],
    "intermediates": [256, 512, 768, 1024, 3072],
}

ROBERTA_LARGE = ArchParams(24, 16, 1024, 4096)
BERT_BASE = ArchParams(12, 12, 768, 3072)
BORT = ArchParams(4, 8, 1024, 768)

ROBERTA_EMB = EmbeddingConfig(vocab=50265, typepos=514, seq=512, batch=1024)
BERT_EMB = EmbeddingConfig(vocab=28996, typepos=512, seq=512, batch=1024)
TINY_EMB = EmbeddingConfig(vocab=1, typepos=1, seq=1, batch=1)


def grid_space() -> SearchSpace:
    return SearchSpace(**{key: tuple(values) for key, values in GRID_AXES.items()})


def write_config(path, **entries) -> str:
    path.write_text(json.dumps(entries))
    return str(path)
