"""Run every workload over two sets of seeds and compare them, with the machine.

    python3 perfbench/baseline.py --seeds 1-10 --again 11-20 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed of both sets with
``--trace 0``, alternating between the sets so that drift of the machine's
speed reaches both alike, and once, on the first seed, with ``--trace 1``.
For each end-to-end metric it prints each set's median and spread (the
distance between the first and third quartiles as a share of the median)
and how much worse the second median is than the first, next to the
metric's bound.  ``--out`` also writes every run and the machine it ran on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform()}


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return {"seed": seed, **result}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first * (1 if better == "lower" else -1)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--again", type=seed_list, default=seed_list("11-20"),
                        help="the second set, as many seeds as --seeds")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if len(args.again) != len(args.seeds):
        parser.error("--again needs as many seeds as --seeds")
    seconds = bench["run_seconds"]
    record = {"recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "git_sha": git_sha(), "machine": machine(), "run_seconds": seconds,
              "seeds": args.seeds, "again": args.again, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        sets = ([], [])
        for pair in zip(args.seeds, args.again):
            for runs, seed in zip(sets, pair):
                runs.append(run_once(name, seed, seconds, 0))
        traced = run_once(name, args.seeds[0], seconds, 1)
        stats = [{m["name"]: summary([r["metrics"][m["name"]] for r in runs])
                  for m in bench["end_to_end"]} for runs in sets]
        record["workloads"][name] = {"summary": stats[0], "again": stats[1],
                                     "runs": sets[0], "again_runs": sets[1],
                                     "traced": traced}
        for m in bench["end_to_end"]:
            one, two = stats[0][m["name"]], stats[1][m["name"]]
            print(f"{name:8} {m['name']:12} median {one['median']:10.4g} "
                  f"{two['median']:10.4g} {m['unit']:5} spread {one['spread']:.3f} "
                  f"{two['spread']:.3f}  worse {worse(one['median'], two['median'], m['better']):+.3f}"
                  f" (bound {m['bound']})")
        everything = sets[0] + sets[1] + [traced]
        worst = max(r["failed"] / r["attempted"] for r in everything)
        print(f"{name:8} fail_ratio   max    {worst:10.4g} ratio "
              f"(all correct: {all(r['correct'] for r in everything)})", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
