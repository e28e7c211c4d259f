"""Benchmark of the `subarch` CLI on seeded workloads, with its outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload grid-analytic --seed 1 --seconds 30 --trace 0

Workloads are in workloads.py. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it reports per-layer metrics from a separate traced
in-process run. Either way the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Every operation is a closed loop
with one client. The program keeps numpy's default BLAS threading; the run
records it. Spans of a traced run go to .perfbench/ at the repository root.

The run exits non-zero without a result when the source tree is missing, when
`subarch verify` fails, or when no operation succeeds.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150.0

MIN_COVERAGE = 0.9  # share of an operation the top-level spans must cover
MIN_ROUNDS = 3
PROBES_PER_ROUND = 2


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    notes: list[str]  # sample counts and raw samples, for the reader
    problems: list[str]  # anything that makes the run incorrect


@dataclass
class Child:
    stdout: bytes
    code: int
    seconds: float  # start to exit, or start to the first stdout line when asked
    peak_rss_mb: float


def run_child(cmd: list[str], env: dict, stderr_path: Path, until_first_line: bool = False) -> Child:
    """Run one child to completion; its peak RSS comes from os.wait4 on that child alone."""
    with open(stderr_path, "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            first = proc.stdout.readline() if until_first_line else b""
            ready = perf_counter()
            out = first + proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = (ready if until_first_line else end) - start
    return Child(out, proc.returncode, seconds, usage.ru_maxrss / 1024)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded into this process, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Worker:
    """The in-process side: one interpreter that imports `subarch.cli` once and
    runs one operation per request. Use it in a `with` block."""

    def __init__(self, cmd: list[str], env: dict, stderr_path: Path, lifetime_s: float) -> None:
        self._err = open(stderr_path, "ab")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._err, env=env, cwd=ROOT)
        self._timer = threading.Timer(lifetime_s, self.proc.kill)
        self._timer.start()

    def op(self, traced: bool = False) -> dict:
        self.proc.stdin.write(b"traced\n" if traced else b"untraced\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the in-process worker ended early")
        return json.loads(line)

    def finish(self) -> dict:
        """Close the request stream and return the worker's final report."""
        self.proc.stdin.close()
        tail = self.proc.stdout.read().splitlines()
        if self.proc.wait() != 0 or not tail:
            raise BenchError(f"the in-process worker exited with {self.proc.returncode}")
        return json.loads(tail[-1])

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._timer.cancel()
        for stream in (self.proc.stdin, self.proc.stdout, self._err):
            stream.close()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, prepared: workloads.Prepared, seconds: float, tmp: Path, seed: int) -> None:
        self.prepared = prepared
        self.seconds = seconds
        self.stderr = tmp / "stderr.log"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spec_path = tmp / "spec.json"
        self.spec = {
            "argv": list(prepared.argv),
            "config": prepared.config,
            "toy_seed": prepared.toy_seed,
            "toy_arch": list(workloads.TOY_ARCH),
            "items": prepared.items,
            "candidates": 0 if prepared.toy_seed is not None else prepared.items,
            "dump": str(tmp / "inproc.out"),
            "spans_out": str(WORK / f"spans-{prepared.name}-seed{seed}.jsonl"),
        }
        self.spec_path.write_text(json.dumps(self.spec))

    def stderr_tail(self) -> str:
        return self.stderr.read_text(errors="replace")[-2000:] if self.stderr.exists() else ""

    def preflight(self) -> None:
        child = run_child([sys.executable, "-m", "subarch", "verify"], self.env, self.stderr)
        if child.code != 0:
            raise BenchError(f"`subarch verify` failed with exit code {child.code}:\n"
                             f"{child.stdout.decode(errors='replace')}{self.stderr_tail()}")

    def setup_probe(self) -> dict:
        """A fresh interpreter timed from its start to ready to work."""
        cmd = [sys.executable, str(BENCH / "worker.py"), "setup", str(self.spec_path)]
        child = run_child(cmd, self.env, self.stderr, until_first_line=True)
        if child.code != 0:
            raise BenchError(f"set-up probe exited with {child.code}: {self.stderr_tail()}")
        return {"setup_s": child.seconds, **json.loads(child.stdout)}

    def cli_op(self) -> Child:
        """One `python -m subarch ...` process."""
        return run_child([sys.executable, "-m", "subarch", *self.prepared.argv],
                         self.env, self.stderr)

    def worker(self) -> Worker:
        cmd = [sys.executable, str(BENCH / "worker.py"), "serve", str(self.spec_path)]
        return Worker(cmd, self.env, self.stderr, self.seconds + CHILD_TIMEOUT_S)

    def rounds(self, min_rounds: int):
        """Yield round numbers for `seconds`, predicting each round from the last one."""
        deadline = perf_counter() + self.seconds
        last = 0.0
        n = 0
        while n < min_rounds or perf_counter() + last < deadline:
            start = perf_counter()
            yield n
            last = perf_counter() - start
            n += 1

    def check(self, data: bytes) -> checks.Verdict:
        text = data.decode()
        if text.endswith("\n"):
            text = text[:-1]
        if self.prepared.toy_seed is None:
            return checks.check_rank_json(text, self.prepared.items)
        from subarch import config, costs

        emb = config.embedding_from(config.load_config(None))
        expected = costs.param_count(config.parse_arch(list(workloads.TOY_ARCH)), emb)
        return checks.check_toy(text, expected, self.prepared.toy_seed)

    def judge(self, reference: bytes, ops: list[tuple[int, str]]) -> tuple[checks.Verdict, list[bool]]:
        """Check the reference output; an op passes when it exited 0 with the same bytes."""
        verdict = self.check(reference)
        digest = hashlib.sha256(reference).hexdigest()
        return verdict, [code == 0 and d == digest and not verdict.problems for code, d in ops]


def _none_passed(run: Run, verdict: checks.Verdict, ops: list[tuple[int, str]]) -> str:
    codes = sorted({code for code, _ in ops})
    digests = len({digest for _, digest in ops})
    return (f"no timed operation passed; exit codes {codes}, {digests} distinct outputs,"
            f" checks of the first output: {verdict.problems or 'passed'}\n{run.stderr_tail()}")


def end_to_end(run: Run) -> Outcome:
    """Rounds of set-up probes, one CLI process and one in-process operation.

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell on the machine moves them all alike.
    """
    with run.worker() as worker:
        inproc = [worker.op()]  # warm-up; `subarch verify` has already warmed the file cache
        cli = []
        probes = []
        for _ in run.rounds(MIN_ROUNDS):
            probes += [run.setup_probe() for _ in range(PROBES_PER_ROUND)]
            cli.append(run.cli_op())
            inproc.append(worker.op())
        worker.finish()
    ops = [(c.code, hashlib.sha256(c.stdout).hexdigest()) for c in cli]
    ops += [(o["code"], o["digest"]) for o in inproc]
    verdict, passed = run.judge(cli[0].stdout, ops)
    cli_ok = [c for c, ok in zip(cli, passed) if ok]
    inproc_ok = [o for o, ok in zip(inproc[1:], passed[len(cli) + 1:]) if ok]
    if not cli_ok or not inproc_ok:
        raise BenchError(_none_passed(run, verdict, ops))
    metrics = {
        "wall_s.p50": statistics.median(c.seconds for c in cli_ok),
        "items_per_s": run.prepared.items / statistics.median(o["s"] for o in inproc_ok),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in cli_ok),
    }
    notes = [
        f"samples: cli={len(cli_ok)} inproc={len(inproc_ok)} setup={len(probes)}"
        " (warm-ups excluded)",
        f"cli wall_s: {[round(c.seconds, 4) for c in cli]}",
        f"inproc s: {[round(o['s'], 4) for o in inproc[1:]]}",
        f"setup s: {[round(p['setup_s'], 4) for p in probes]}",
    ]
    return Outcome(metrics, len(ops), passed.count(False), notes, verdict.problems)


def per_layer(run: Run) -> Outcome:
    """Rounds of one set-up probe, one untraced and one traced in-process operation."""
    with run.worker() as worker:
        ops = [worker.op()]  # warm-up
        probes = []
        for n in run.rounds(MIN_ROUNDS):
            probes.append(run.setup_probe())
            # Alternate which side goes first so drift favours neither.
            ops += [worker.op(traced) for traced in ((False, True) if n % 2 == 0 else (True, False))]
        final = worker.finish()
    reference = Path(run.spec["dump"]).read_bytes()
    verdict, passed = run.judge(reference, [(o["code"], o["digest"]) for o in ops])
    problems = list(verdict.problems)
    traced = [o for o, ok in zip(ops, passed) if ok and o["traced"]]
    untraced = [o for o, ok in zip(ops[1:], passed[1:]) if ok and not o["traced"]]
    if not traced or not untraced:
        raise BenchError(_none_passed(run, verdict, [(o["code"], o["digest"]) for o in ops]))
    if any(o["counts"] != traced[0]["counts"] for o in traced):
        problems.append(f"exact counts differ between traced operations: "
                        f"{[o['counts'] for o in traced]}")

    def med(key: str) -> float:
        return statistics.median(o["layers"][key] for o in traced)

    metrics = {key: med(key) for key in traced[0]["layers"]}
    if metrics["trace.coverage_frac"] < MIN_COVERAGE:
        problems.append(f"top-level spans cover {metrics['trace.coverage_frac']:.3f}"
                        f" of the operation, below {MIN_COVERAGE}")
    toy = run.prepared.toy_seed is not None
    closed_flops, matmul_flops = final.get("toy_flops", (0, 0))
    metrics.update({
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.import_numpy_s": statistics.median(p["import_numpy_s"] for p in probes),
        "cli.stdout_bytes": len(reference),
        "engine.ranked": verdict.ranked,
        "engine.excluded": verdict.excluded,
        "toynet.weight_mb": statistics.median(p["weight_mb"] for p in probes) if toy else 0.0,
        "toynet.matmul_gflop_per_s": matmul_flops / med("toynet.matmul_s") / 1e9 if toy else 0.0,
        "toynet.closed_form_flops": closed_flops,
        "trace.overhead_frac": statistics.median(o["s"] for o in traced)
        / statistics.median(o["s"] for o in untraced) - 1.0,
    })
    notes = [f"samples: traced={len(traced)} untraced={len(untraced)} setup={len(probes)}",
             f"exact counts: {traced[0]['counts']}"]
    return Outcome(metrics, len(ops), passed.count(False), notes, problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subarch" / "__init__.py").is_file():
        print(f"perfbench: no subarch source tree under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            prepared = workloads.prepare(args.workload, args.seed, Path(tmp))
            run = Run(prepared, args.seconds, Path(tmp), args.seed)
            run.preflight()
            measure = per_layer if args.trace else end_to_end
            outcome = measure(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_end"] = os.getloadavg()

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} items={prepared.items} argv={' '.join(prepared.argv)}")
    print(f"perfbench: machine {json.dumps(facts)}")
    for note in outcome.notes:
        print(f"perfbench: {note}")
    for problem in outcome.problems:
        print(f"perfbench: PROBLEM {problem}")
    failed, attempted = outcome.failed, outcome.attempted
    print(f"perfbench: fail_frac = {failed}/{attempted} = {failed / attempted:g}")
    metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0 and not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
