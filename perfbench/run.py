"""Run one hilbertgeom benchmark workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload ideal-area --seed 1 --seconds 35 --trace 0

One caller, one process, one operation at a time.  The loop runs as many
whole passes of the workload's operation mix (see workloads.py) as take
``--seconds`` on the host the benchmark was sized on, at least one, so every
run of a workload does the same work however fast the host is.  Each operation's
output is checked; a wrong output or a raised exception counts as a failed
operation and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the loop
for half the time untraced, replays the same operations under the tracer
(tracing.py), requires bit-identical outputs, writes the spans to
``perfbench/out/`` and reports the per-layer metrics.

Times are CPU seconds of this process (see ``cpu_seconds``); the record
also gives the wall-clock figures.  The last line of stdout is the result
object; the line before it is the full record: environment, all seven
end-to-end metrics and per-kind timings.  See perfbench/README.md for the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # op_s.tail: the highest percentile with this many samples beyond it
HELD_OUT_SEED = 9173  # later claims must also hold on this seed


def pin_threads() -> None:
    """One BLAS/OpenMP thread: must run before numpy is imported."""
    for var in THREAD_PINS:
        os.environ[var] = "1"


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended.

    The operations are single-threaded, so on an unshared core this is their
    wall time.  On a shared virtual machine it is the steadier clock: the
    guest kernel leaves out of it the time the hypervisor ran other tenants
    on this vCPU (steal), which wall time counts.  Children are included so
    that work moved into another process cannot look free."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def load_library():
    """Import hilbertgeom from this checkout's src/, never from elsewhere."""
    if not (SRC / "hilbertgeom" / "__init__.py").is_file():
        sys.exit(f"error: no hilbertgeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hilbertgeom

    if Path(hilbertgeom.__file__).resolve().parent != SRC / "hilbertgeom":
        sys.exit(f"error: imported hilbertgeom from {hilbertgeom.__file__}, not from {SRC}")
    return hilbertgeom


@dataclass
class Outcome:
    kind: str
    seconds: float  # CPU seconds
    wall_s: float
    output: str = None  # SHA-256 of the result's exact JSON, for replay comparison
    rel_err: float = None
    error: str = None


def execute(op, tracer=None, op_id=None) -> Outcome:
    """Time one operation, then check its output outside the timed region."""
    from workloads import CheckFailed

    if tracer is not None:
        tracer.op = op_id
    wall, start = time.perf_counter(), cpu_seconds()
    try:
        out = op.call()
    except Exception as exc:  # a raising operation is a failed operation, not a failed run
        return Outcome(op.kind, cpu_seconds() - start, time.perf_counter() - wall,
                       error=f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.op = None
    seconds, wall = cpu_seconds() - start, time.perf_counter() - wall
    output = hashlib.sha256(json.dumps(out.to_jsonable(), sort_keys=True).encode()).hexdigest()
    try:
        return Outcome(op.kind, seconds, wall, output, rel_err=op.check(out))
    except CheckFailed as exc:
        return Outcome(op.kind, seconds, wall, output, error=str(exc))


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that take ``seconds`` at the workload's sized pass time.
    The count does not depend on how fast the host runs, so a slow spell
    cannot change a run's mix of operations or which order statistic the
    tail is."""
    from workloads import PASS_SECONDS

    return max(1, round(seconds / PASS_SECONDS[workload]))


def closed_loop(passes, count: int) -> tuple:
    """Run passes 0 to ``count`` - 1.  Returns the outcomes and the wall time
    of each pass.  Operations are dropped once run, so that the process's
    memory is the library's, not a growing list of inputs."""
    outcomes, pass_s = [], []
    for k in range(count):
        begin = time.perf_counter()
        outcomes.extend(execute(op) for op in passes(k))
        pass_s.append(time.perf_counter() - begin)
    return outcomes, pass_s


def replay_traced(ops: list) -> tuple:
    """Run ``ops`` under a freshly installed tracer; returns the outcomes and
    the tracer with its spans."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return [execute(op, tracer, i) for i, op in enumerate(ops)], tracer
    finally:
        tracer.uninstall()


def setup_seconds(args) -> tuple:
    """Fresh-process set-up times: interpreter start, imports, domains and
    the first pass's inputs, up to the point the first operation would run.
    Returns the CPU seconds the probe process reports at that point, and the
    wall seconds until it reports them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        word, _, value = line.partition(" ")
        if word != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        cpu.append(float(value))
        wall.append(elapsed)
    return cpu, wall


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "hilbertgeom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def timings(latencies: list, completed: int, setup: list) -> dict:
    """``setup_s``, ``ops_per_s``, ``op_s.p50`` and ``op_s.tail`` from one
    clock.  ``ops_per_s`` is operations completed over the summed latency of
    all operations: the throughput of the timed phase at the workload's mix."""
    lat = sorted(latencies)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": completed / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": lat[max(len(lat) - 1 - TAIL_BEYOND, 0)],
    }


def end_to_end(outcomes: list, setup: tuple) -> tuple:
    """The seven end-to-end metrics, timed in CPU seconds, and the details
    behind them, among them the same timings in wall-clock seconds."""
    n = len(outcomes)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    completed = sum(o.output is not None for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    errors = [o.rel_err for o in outcomes if o.rel_err is not None]
    setup_cpu, setup_wall = setup
    metrics = timings([o.seconds for o in outcomes], completed, setup_cpu)
    metrics.update({
        "failed_frac": failed / n,
        "max_rel_err": max(errors) if errors else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    details = {
        "wall": timings([o.wall_s for o in outcomes], completed, setup_wall),
        "setup_s_samples": setup_cpu,
        "setup_wall_s_samples": setup_wall,
        "op_s.tail_percentile": 100.0 * (tail_index + 1) / n,
        "op_s.tail_beyond": n - 1 - tail_index,
        "samples": n,
    }
    return metrics, details


def per_kind(outcomes: list) -> dict:
    kinds = {}
    for o in outcomes:
        kinds.setdefault(o.kind, []).append(o.seconds)
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in sorted(kinds.items())}


def declared_metrics(traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def report_failures(outcomes: list) -> None:
    for o in [o for o in outcomes if o.error is not None][:10]:
        print(f"failed {o.kind}: {o.error}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pin_threads()
    load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)(0)
        print("ready", time.process_time(), flush=True)
        return 0
    setup = None if args.trace else setup_seconds(args)
    passes = WORKLOADS[args.workload](args.seed)

    record = {"workload": args.workload, "trace": args.trace, "environment": environment(args.seed)}
    if not args.trace:
        outcomes, pass_s = closed_loop(passes, pass_count(args.workload, args.seconds))
        metrics, details = end_to_end(outcomes, setup)
        details["pass_s"] = pass_s
        mismatched = 0
        timed = outcomes
    else:
        timed, pass_s = closed_loop(passes, pass_count(args.workload, 0.5 * args.seconds))
        ops = [op for k in range(len(pass_s)) for op in passes(k)]  # the same inputs again
        replay, tracer = replay_traced(ops)
        mismatched = sum(a.output != b.output for a, b in zip(timed, replay))
        outcomes = timed + replay
        metrics = tracer.layer_metrics({i: op.kind for i, op in enumerate(ops)})
        metrics["trace.overhead_s"] = sum(o.seconds for o in replay) - sum(o.seconds for o in timed)
        details = {"counts": tracer.counts(), "replay_mismatches": mismatched, "samples": len(timed)}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    record.update(metrics=metrics, details=details, per_kind=per_kind(timed))
    print(json.dumps({"record": record}))
    report_failures(outcomes)

    failed = sum(o.error is not None for o in outcomes) + mismatched
    units = declared_metrics(bool(args.trace))
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
