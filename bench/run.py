"""invset benchmark: one closed-loop client, one op at a time, in one process.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from a checkout holding ``src/invset``.  Ops come from the workload's
seeded stream (see ``workloads.py``); every output is checked against
``oracles.py``.  All times are scaled to reference speed (see
``reference.py``): each op's wall time is multiplied by the reference loop's
nominal time over its measured time around that op, so that the machine's
speed drifts cancel.  The run stamp also carries the unscaled figures.

``--trace 0`` times each op's call into invset for S seconds after a warm-up
deck and reports the end-to-end metrics:

* ``ops_per_s``: ops timed divided by the seconds spent inside invset calls
  (the oracle checks between ops are not counted);
* ``op_ms_p50``, ``op_ms_p95``: per-op latency;
* ``setup_s``: median time to ``import invset, invset.cli`` in a fresh
  interpreter, over several fresh interpreters;
* ``peak_rss_mb``: this process's peak resident set;
* ``ok_ratio``: ops that ended in exit 0, 1 or 2 with a correct output, over
  ops attempted.  An uncaught exception on a malformed input lowers it; a
  wrong output or an unexpected exit counts as ``failed`` and makes the run
  incorrect.

``--trace 1`` repeats the workload's fixed prefix of ops, alternating an
untraced and a traced pass (``tracing.py``) until S seconds have passed, and
reports per-layer metrics: counts from the first traced pass, which repeat
exactly for a seed, self seconds per traced pass (median over passes), and
``trace.overhead_ratio``, untraced over traced pass time (traced over untraced
ops per second).  The spans of the first traced pass are written to
``bench/_run``.

The last line of standard output is the JSON result; the line before it is
the run stamp.  ``--workload all`` runs each workload in its own process and
prints their results together.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from itertools import islice
from pathlib import Path
from time import perf_counter

from reference import NEAREST, SpeedProbe
from tracing import Tracer, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = BENCH_DIR / "_run"
SETUP_REPEATS = 7
PROBE_EVERY_S = 0.05  # seconds of op time between reference samples
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import invset, invset.cli; print(time.perf_counter() - t)"
)
WORKLOAD_NAMES = ("sweep-multiqubit", "cli-strings", "cli-padic")


def import_invset():
    """Import invset from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "invset" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'invset'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import invset

    if Path(invset.__file__).resolve().parent != (SRC / "invset").resolve():
        raise SystemExit(f"bench: imported invset from {invset.__file__}, not from {SRC}")
    return invset


def measure_setup(probe: SpeedProbe) -> float:
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first interpreter also writes bytecode caches
        probe.sample(NEAREST // 2)
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True, text=True,
                             check=True, timeout=120)
        probe.sample(NEAREST // 2)
        times.append(float(out.stdout) * probe.scale(start))
    return statistics.median(times[1:])


class Runner:
    """Runs ops one at a time and keeps the outcome counts."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = self.failed = self.uncaught = 0
        self.failures: list[str] = []

    def run(self, op: dict) -> float:
        """Run one op; return the seconds spent in its call into invset."""
        call = self.workload.prepare(op)
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # an outcome to count, not a reason to stop
            elapsed = perf_counter() - start
            reason = f"uncaught {type(exc).__name__}: {exc}"
            known_defect = op.get("malformed", False)
        else:
            elapsed = perf_counter() - start
            reason = self.workload.check(op, result)
            known_defect = False
        self.attempted += 1
        if known_defect:  # malformed input escaping as a traceback lowers ok_ratio
            self.uncaught += 1
        elif reason:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op['cls']}: {reason}")
        return elapsed

    def run_all(self, ops) -> float:
        return sum(self.run(op) for op in ops)


def end_to_end(workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    stream = workload.ops(seed)
    runner.run_all(islice(stream, workload.deck_size()))  # warm-up deck: caches, lazy imports
    probe = SpeedProbe()
    probe.sample(NEAREST)
    starts, wall = array("d"), array("d")  # compact, so the benchmark's own memory barely moves peak RSS
    busy = next_sample = 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        start = perf_counter()
        elapsed = runner.run(next(stream))
        starts.append(start)
        wall.append(elapsed)
        busy += elapsed
        if busy >= next_sample:
            probe.sample()
            next_sample = busy + PROBE_EVERY_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the statistics' copies
    probe.sample(NEAREST)
    latencies = [elapsed * probe.scale(start) for start, elapsed in zip(starts, wall)]
    ok = runner.attempted - runner.failed - runner.uncaught
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p95": (statistics.quantiles(latencies, n=20)[-1] * 1e3, "ms"),
        "setup_s": (measure_setup(probe), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (ok / runner.attempted, "ratio"),
    }
    unscaled = {"ops_per_s": len(wall) / sum(wall), "op_ms_p50": statistics.median(wall) * 1e3,
                "op_ms_p95": statistics.quantiles(wall, n=20)[-1] * 1e3, "reference_ms": probe.median_ms()}
    return metrics, {"ops_timed": len(wall), "unscaled": unscaled}


def per_layer(workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    prefix = list(islice(workload.ops(seed), workload.trace_ops))
    tracer = Tracer()
    probe = SpeedProbe()
    first: dict | None = None
    first_spans: list = []
    timed: dict[str, list[float]] = {}
    runner.run_all(prefix)  # warm-up pass: caches, lazy imports, output directories
    deadline = perf_counter() + seconds
    pair_s = 0.0
    while first is None or perf_counter() + pair_s < deadline:  # stop before a pair would overrun
        pair_start = perf_counter()
        untraced = runner.run_all(prefix)
        tracer.reset()
        bytes_before = workload.report_bytes
        traced = 0.0
        probe.sample(NEAREST // 2)
        traced_start = perf_counter()
        with tracer.installed():
            for index, op in enumerate(prefix):
                tracer.op_id = index
                traced += runner.run(op)
        probe.sample(NEAREST // 2)
        scale = probe.scale(traced_start)
        layers = {key: value * scale if key.endswith("_s") else value for key, value in tracer.layer_metrics().items()}
        layers["cli.report_bytes"] = workload.report_bytes - bytes_before
        layers["trace.overhead_ratio"] = untraced / traced
        for key, value in layers.items():
            if key.endswith("_s") or key == "trace.overhead_ratio":
                timed.setdefault(key, []).append(value)
        if first is None:
            first, first_spans = layers, list(tracer.spans)
        pair_s = perf_counter() - pair_start
    metrics = {key: (statistics.median(timed[key]) if key in timed else value, unit_of(key))
               for key, value in first.items()}
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    write_spans(first_spans, RUN_DIR / f"spans-{workload.name}.csv")
    return metrics, {"trace_passes": len(timed["trace.overhead_ratio"]), "trace_ops": len(prefix)}


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "B" if key.endswith("_bytes") else "count"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def run_one(args) -> int:
    import_invset()
    import mpmath
    from workloads import make_workload

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"  # configs and reports of this run only
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, workdir)
        runner = Runner(workload)
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(workdir)
    stamp = {
        "git_sha": git_sha(), "python": platform.python_version(), "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": runner.attempted, "failed": runner.failed,
        "uncaught_malformed": runner.uncaught, **extra,
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>16}  {name:<32} {value:>14.6g} {unit}")
    for failure in runner.failures:
        print(f"failed: {failure}")
    print("run stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
