"""Benchmark of the ``knowhow`` toolkit, driven through its CLI entry point.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each op is one in-process
``knowhow.cli.main([...])`` call, started when the previous one returned.
The workload's inputs are generated from ``--seed``; every op's exit code
and output are checked against a reference that does not come from the code
under test (see ``workloads.py``).

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs ops untraced for half the
time, then the same ops again with every listed function wrapped (see
``tracing.py``), and reports per-layer calls and self times plus the tracing
overhead.  Op times are stated at a reference speed of the machine, measured
between ops (see ``speed.py``); the table also prints them as measured.  A
human-readable table comes first; the last line of standard output is one
JSON object.  The run exits non-zero without a result when the
program or its inputs cannot be set up.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedLog
from tracing import TRACED, Tracer
from workloads import BYPASSES, DRIVES, ROOT, WORKLOADS

SRC = ROOT / "src"
SETUP_SPAWNS = 15  # fresh interpreters per run for setup_s; the median is reported
WARMUP_OPS = 3


def import_cli():
    """Import ``knowhow.cli`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "knowhow" / "__init__.py").is_file():
        raise SystemExit(f"error: no knowhow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import knowhow.cli

    if Path(knowhow.cli.__file__).resolve().parent != SRC / "knowhow":
        raise SystemExit(f"error: imported knowhow from {knowhow.cli.__file__}")
    return knowhow.cli


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import ``knowhow`` and its CLI.

    It is reported as measured: the time to start a process tracks the
    calibration slice of ``speed.py`` no better than chance.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import knowhow, knowhow.cli"
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def execute(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One op: exit code (None if it raised), captured output, latency in s."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # any escape is a failed op
        code = None
        buf.write(f"\n{type(exc).__name__}: {exc}")
    return code, buf.getvalue(), time.perf_counter() - start


def measure(cli, workload, seconds: float | None, count: int | None = None):
    """Run ops 0, 1, ... for ``seconds`` (or exactly ``count`` ops).

    Between ops it times a calibration slice every ``speed.EVERY_S``; that
    time is left out of ``seconds``.  Returns the per-op ``(index, code,
    output, latency, started)`` records and the ``SpeedLog``.
    """
    records, speed = [], SpeedLog()
    start = time.perf_counter()
    calibrating = 0.0
    i = 0
    while (i < count) if count is not None else (
            time.perf_counter() - start - calibrating < seconds or i < 2):
        calibrating += speed.maybe_sample()
        started = time.perf_counter()
        records.append((i, *execute(cli, workload.argv(i)), started))
        i += 1
    speed.sample()
    return records, speed


def failures(workload, records) -> list[str]:
    reasons = []
    seen: dict[tuple, str | None] = {}
    for i, code, out, *_ in records:
        key = (tuple(workload.argv(i)), code, out)
        if key not in seen:
            try:
                seen[key] = (f"op raised: {out.strip()[-300:]}" if code is None
                             else workload.verify(i, code, out))
            except (ValueError, KeyError, IndexError) as exc:  # unparsable output
                seen[key] = f"unreadable output ({exc!r})"
        if seen[key] is not None:
            reasons.append(f"op {i} {' '.join(workload.argv(i))}: {seen[key]}")
    return reasons


def latencies(records, speed) -> tuple[list[float], list[float]]:
    """Each op's latency at the reference speed, and as measured."""
    wall = [lat for *_, lat, _ in records]
    return [lat * speed.factor(started) for *_, lat, started in records], wall


def end_to_end(latency: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(latency) / sum(latency), "op/s"),
        "p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "p90_ms": (statistics.quantiles(latency, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def trace_problems(name: str, tracer, workload, records) -> list[str]:
    """Breaches of the workload's documented layer coverage."""
    problems = [f"{fn} was never called" for fn in DRIVES[name]
                if tracer.calls[fn] == 0]
    problems += [f"{fn} was called {tracer.calls[fn]} times"
                 for fn in TRACED if tracer.calls[fn] > 0
                 and any(fn == b or (b.endswith(".") and fn.startswith(b))
                         for b in BYPASSES[name])]
    if name in ("check", "horizon"):
        goals = sum(workload.h_goal(i) for i, *_ in records)
        if tracer.calls["checker.witness"] != goals:
            problems.append(f"checker.witness was called {tracer.calls['checker.witness']} "
                            f"times for {goals} H goals")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> tuple[dict, list[tuple[str, float, str]]]:
    """Set up, measure and check one workload.

    Returns the result object and the as-measured wall-clock figures, which
    go in the table only.
    """
    cli = import_cli()
    workdir = ROOT / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = None if trace else setup_seconds()
        workload = WORKLOADS[name](seed, workdir, scale)
        for i in range(1, WARMUP_OPS + 1):  # op 0 may be a workload's one deep goal
            execute(cli, workload.argv(i))
        records, speed = measure(cli, workload, seconds / 2 if trace else seconds)
        latency, wall = latencies(records, speed)
        problems = []
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_speed = measure(cli, workload, None, len(records))
            finally:
                tracer.remove()
            problems = trace_problems(name, tracer, workload, traced)
            traced_latency, traced_wall = latencies(traced, traced_speed)
            metrics = tracer.metrics()
            metrics["trace.untraced_ops_per_s"] = (len(latency) / sum(latency), "op/s")
            metrics["trace.traced_ops_per_s"] = (len(traced) / sum(traced_latency), "op/s")
            metrics["trace.slowdown"] = (sum(traced_latency) / sum(latency), "ratio")
            measured = [("wall.trace.slowdown", sum(traced_wall) / sum(wall), "ratio")]
            records = records + traced
        else:
            metrics = end_to_end(latency)
            metrics["setup_s"] = (setup, "s")
            measured = [(f"wall.{key}", value, unit)
                        for key, (value, unit) in end_to_end(wall).items()
                        if key != "peak_rss_mb"]
            measured.append(("wall.slice_ms", statistics.median(speed.took) * 1e3, "ms"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reasons = failures(workload, records)
    for line in (reasons + problems)[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    return ({"correct": not reasons and not problems, "attempted": len(records),
             "failed": len(reasons),
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
            measured)


def report(name: str, seed: int, result: dict, measured=()) -> None:
    """The human-readable table, then the JSON result as the last line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  ops {attempted}  "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows.append(("fail_ratio", failed / attempted, "ratio"))
    if measured:
        rows.append(("(as measured, before scaling to the reference speed)", "", ""))
    for key, value, unit in rows + list(measured):
        print(f"  {key:<44} {value:>14.6g} {unit}" if unit else f"  {key}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report(args.workload, args.seed,
           *run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
