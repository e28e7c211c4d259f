"""Child processes of the benchmark. run.py starts them; they answer in JSON lines.

    python3 perfbench/worker.py setup SPEC   fresh interpreter to ready to work
    python3 perfbench/worker.py serve SPEC   in-process `cli.main` operations

SPEC is a JSON file written by run.py. `serve` imports `subarch.cli` once and
runs one operation, with stdout captured, per request from run.py. It reports
each operation's time and stdout digest, and for a traced operation the
per-layer figures, so traced and untraced runs compare byte for byte and by time.
"""

import json
import os
import sys
from time import perf_counter


def setup(spec: dict) -> dict:
    """Import, load the config and, for the toy encoder, build its net."""
    t0 = perf_counter()
    import numpy  # noqa: F401  (timed on its own: numpy's share of the import)

    t1 = perf_counter()
    from subarch import cli, config

    t2 = perf_counter()
    settings = config.apply_overrides(config.load_config(spec["config"]), [])
    t3 = perf_counter()
    out = {"import_numpy_s": t1 - t0, "import_s": t2 - t0, "config_load_s": t3 - t2}
    if spec["toy_seed"] is not None:
        net = cli.ToyNet.build(
            cli.ToyNetConfig(
                arch=config.parse_arch(spec["toy_arch"]),
                emb=config.embedding_from(settings),
                dropout=float(settings["dropout"]),
                layernorm_eps=float(settings["layernorm_eps"]),
                seed=spec["toy_seed"],
            )
        )
        out["build_s"] = perf_counter() - t3
        out["weight_mb"] = sum(a.nbytes for a in net.weights.values()) / 2**20
    return out


def _toy_flops(spec: dict) -> tuple[int, int]:
    """(closed-form FLOPs x tokens, 2*m*n*k over the forward's matmuls) of the toy workload."""
    from subarch import config, costs
    from subarch.space import ArchParams

    depth, heads, hidden, inter = spec["toy_arch"]
    emb = config.embedding_from(config.load_config(None))
    tokens = spec["items"]
    seq = emb.seq
    closed = costs.cost_breakdown(ArchParams(depth, heads, hidden, inter), emb).total_flops
    per_layer = (
        4 * 2 * tokens * hidden * hidden  # query, key, value and output projections
        + 2 * 2 * tokens * seq * hidden  # scores and attended values, over all heads
        + 2 * 2 * tokens * hidden * inter  # widen and narrow
    )
    pooler = 2 * tokens * hidden * hidden
    return closed * tokens, depth * per_layer + pooler


def layer_metrics(tracer, op_s: float, spec: dict) -> dict:
    """Per-layer figures of one traced operation."""
    candidates = spec["candidates"]

    def per_candidate(name: str) -> float:
        return tracer.counts[name] / candidates if candidates else 0.0

    out = {
        "config.load_s": tracer.total("config.load"),
        "space.enumerate_s": tracer.total("space.enumerate"),
        "space.enumerate_calls": sum(1 for s in tracer.spans if s.name == "space.enumerate"),
        "space.validate_calls_per_candidate": per_candidate("space.validate"),
        "costs.count_calls_per_candidate": per_candidate("costs.count"),
        "metrics.attach_s": tracer.total("metrics.attach"),
        "engine.extract_self_s": tracer.self_time("engine.extract"),
        "engine.rank_self_s": tracer.self_time("engine.rank"),
        "engine.w_calls_per_candidate": per_candidate("engine.w_coefficient"),
        "engine.render_s": tracer.total("engine.render"),
        "toynet.build_s": tracer.total("toynet.build"),
        "toynet.gelu_s": tracer.total("toynet.gelu"),
        "toynet.attention_self_s": tracer.self_time("toynet.attention"),
        "toynet.softmax_s": tracer.total("toynet.softmax"),
        "toynet.layer_norm_s": tracer.total("toynet.layer_norm"),
        "toynet.block_self_s": tracer.self_time("toynet.block"),
        "toynet.forward_self_s": tracer.self_time("toynet.forward"),
        "trace.coverage_frac": tracer.top_level() / op_s,
    }
    # Forward time outside gelu, softmax and layer_norm: the matmuls plus cheap glue.
    out["toynet.matmul_s"] = (
        out["toynet.attention_self_s"] + out["toynet.block_self_s"] + out["toynet.forward_self_s"]
    )
    return out


def serve(spec: dict) -> dict:
    """Import `subarch.cli` once, then run one operation per request line on stdin.

    A request is `untraced` or `traced`; each gets one JSON line back. End of
    input ends the loop; the traced spans are then written out.
    """
    import contextlib
    import gc
    import hashlib
    import io
    import traceback

    from subarch import cli

    import spans

    traced_spans: list[list[dict]] = []

    def operation(traced: bool) -> dict:
        tracer = spans.Tracer()
        buffer = io.StringIO()
        gc.collect()
        with spans.instrument(tracer) if traced else contextlib.nullcontext():
            start = perf_counter()
            with contextlib.redirect_stdout(buffer):
                try:
                    code = cli.main(list(spec["argv"]))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a program bug: record it as a failed operation
                    traceback.print_exc()
                    code = 1
            seconds = perf_counter() - start
        data = buffer.getvalue().encode()
        op = {
            "traced": traced,
            "code": code,
            "s": seconds,
            "digest": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        if not os.path.exists(spec["dump"]):
            with open(spec["dump"], "wb") as fh:
                fh.write(data)
        if traced:
            op["layers"] = layer_metrics(tracer, seconds, spec)
            op["counts"] = dict(tracer.counts, **{"space.enumerate_calls":
                                                 op["layers"]["space.enumerate_calls"]})
            traced_spans.append(tracer.records())
        return op

    for line in sys.stdin:
        print(json.dumps(operation(line.strip() == "traced")), flush=True)

    result = {}
    if traced_spans:
        if spec["toy_seed"] is not None:
            result["toy_flops"] = _toy_flops(spec)
        with open(spec["spans_out"], "w") as fh:
            for index, records in enumerate(traced_spans):
                for record in records:
                    fh.write(json.dumps({"op": index, **record}) + "\n")
    return result


def main() -> None:
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = setup(spec) if mode == "setup" else serve(spec)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
