"""Benchmark of the cbandits command line: ``run``, ``bound`` and ``oracle``.

    python3 bench/run.py --workload mc-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in its own process with one worker and
native thread pools capped at one thread.  After imports, input
generation and a warm-up call (the set-up), the process repeats rounds
of the workload's CLI invocations for ``--seconds`` seconds, calling
``cbandits.cli.main`` in-process, and checks every invocation's output.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of five
set-ups, this process's and four child processes'), ``op_s`` (median
round wall time) and ``peak_rss_mib`` (this process's peak RSS).
``--trace 1`` alternates untraced rounds with rounds in which every
layer is wrapped, and prints per-layer metrics per traced round; see
``tracing.py``.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one CLI
invocation with its checks.
"""

from __future__ import annotations

import os

# numpy and scipy start their BLAS thread pools at import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CHILD_SETUPS = 4
CHILD_TIMEOUT_S = 120


def _import_program():
    src = ROOT / "src"
    if not (src / "cbandits" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'cbandits'}; "
                         "run from the root of a cbandits checkout")
    sys.path.insert(0, str(src))
    from cbandits import cli

    return cli


def call(cli, op: workloads.Op) -> tuple[float, str, str, int]:
    """One CLI invocation: (wall seconds, stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - started
    return elapsed, out.getvalue(), err.getvalue(), code


class Runner:
    def __init__(self, cli, workload: workloads.Workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def round(self) -> float:
        """Run and check every op of the round once; return the summed
        CLI time."""
        total = 0.0
        outputs = {}
        for op in self.workload.ops:
            elapsed, stdout, stderr, code = call(self.cli, op)
            total += elapsed
            outputs[op.label] = stdout
            self.attempted += 1
            errors = [f"exit: code {code}: {stderr.strip()}"] if code != 0 else []
            if not errors and op.check is not None:
                errors = op.check(outputs, self.workdir / op.label)
            if errors:
                self.failed += 1
                if any(e.split(":", 1)[0] != op.known_fault for e in errors):
                    self.unexpected.extend(f"{op.label}: {e}" for e in errors)
        return total

    def measure(self, seconds: float) -> list[float]:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        deadline = time.perf_counter() + seconds
        times = [self.round()]
        while time.perf_counter() < deadline:
            times.append(self.round())
        return times


def set_up(name: str, seed: int, workdir: Path):
    """Imports, input generation and warm-up; returns (cli, workload, s)."""
    started = time.perf_counter()
    cli = _import_program()
    workload = workloads.build(name, seed, workdir)
    for op in workload.warmup:
        _, _, stderr, code = call(cli, op)
        if code != 0:
            raise RuntimeError(f"warm-up {op.argv[0]} exited {code}: {stderr}")
    return cli, workload, time.perf_counter() - started


def child_setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> dict:
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        cli, workload, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_s)
            return {}
        runner = Runner(cli, workload, workdir)
        if args.trace:
            metrics = traced_metrics(runner, args)
        else:
            setups = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                                  for _ in range(CHILD_SETUPS)]
            times = runner.measure(args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            }
            print(f"{args.workload}: {len(times)} rounds, round times {times}, "
                  f"set-ups {setups}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.unexpected:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def traced_metrics(runner: Runner, args) -> dict:
    """Alternate untraced and traced rounds for ``--seconds``, so both
    see the same machine load, and derive per-layer metrics per traced
    round.  The overhead is the median of the paired differences."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.round())
        tracing.install(tracer)
        tracer.recording, tracer.keep_spans = True, not traced
        traced.append(runner.round())
        tracer.recording = False
        tracer.uninstall()
        if len(traced) == 1:
            first_round_chunks = list(tracer.chunks)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracing.layer_metrics(tracer, len(traced)).items()}
    metrics["core.rng.s"] = {"value": tracing.rng_seconds(first_round_chunks), "unit": "s"}
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace = {
        "workload": args.workload, "seed": args.seed,
        "untraced_round_s": untraced, "traced_round_s": traced,
        "spans_of_first_round": [
            {"name": n, "start": s, "end": e, "id": i, "parent": p}
            for n, s, e, i, p in tracer.spans
        ],
        "metrics": metrics,
    }
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return metrics


def run_all(args) -> dict:
    """Each workload in its own child process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
            print(f"{name:13s} {metric:38s} {value['value']:.6g} {value['unit']}")
        print(f"{name:13s} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
