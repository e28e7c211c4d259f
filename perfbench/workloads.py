"""The benchmark's workloads: seeded inputs and the `subarch` argv that runs each one.

Inputs are made only from the seed. The program sees nothing but the files
written here. Item counts do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("grid-analytic", "toy-encoder")

# ROADMAP's large grid: 73,728 points, 65,280 of them valid.
DEPTHS = tuple(range(2, 25, 2))
HEADS = (1, 2, 4, 8, 12, 16)
HIDDENS = tuple(range(64, 1025, 64))
INTERMEDIATES = tuple(range(64, 4097, 64))
MAXPOINT_PARAMS = 355_361_792  # closed-form count of <24,16,1024,4096> at vocab 50265, typepos 514

TOY_ARCH = (4, 12, 768, 3072)
TOY_VOCAB = 50265
TOY_SEQ = 512
TOY_SEQUENCES = 2


@dataclass(frozen=True)
class Prepared:
    """One workload's generated inputs and how to run them."""

    name: str
    argv: tuple[str, ...]  # arguments after `python -m subarch`
    items: int  # candidates evaluated (grid) or tokens (toy)
    config: str | None  # config file the CLI loads, None for defaults
    toy_seed: int | None = None  # toy-encoder weight seed


def _grid_config(path: Path, error: float) -> str:
    doc = {
        "depths": list(DEPTHS),
        "heads": list(HEADS),
        "hiddens": list(HIDDENS),
        "intermediates": list(INTERMEDIATES),
        "epsilon": 1,
        "error": {"mode": "constant", "value": error},
    }
    path.write_text(json.dumps(doc))
    return str(path)


def prepare(name: str, seed: int, directory: Path) -> Prepared:
    """Write workload `name`'s inputs for `seed` into `directory`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "grid-analytic":
        config = _grid_config(directory / "grid.json", rng.uniform(0.5, 2.0))
        # Depth is always even; a point is valid when heads divide hidden.
        items = len(DEPTHS) * len(INTERMEDIATES) * sum(h % a == 0 for h in HIDDENS for a in HEADS)
        return Prepared(name, ("rank", "--config", config, "--format", "json"), items, config)
    if name == "toy-encoder":
        tokens = [rng.randrange(TOY_VOCAB) for _ in range(TOY_SEQUENCES * TOY_SEQ)]
        path = directory / "tokens.txt"
        path.write_text("".join(f"{t}\n" for t in tokens))
        toy_seed = rng.randrange(2**31)
        argv = ("toy-forward", str(path), "--arch", ",".join(map(str, TOY_ARCH)),
                "--seed", str(toy_seed))
        return Prepared(name, argv, len(tokens), None, toy_seed=toy_seed)
    raise ValueError(f"unknown workload {name!r}")
