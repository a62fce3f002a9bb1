"""Run-to-run spread of the benchmark, and exactness of its counters.

    python3 perfbench/stability.py [--runs 10] [--workloads A,B] [--counters]
    python3 perfbench/stability.py --write-reference

For each workload, runs ``run.py --trace 0`` once per seed (``--runs``
seeds) and prints, for every end-to-end metric, the distance between
the first and third quartile of the runs as a share of their median,
next to the metric's bound in ``BENCHMARK.json``.  It fails when a
spread other than ``setup_s``'s exceeds its bound.

``--counters`` also runs ``run.py --trace 1`` twice at the default seed
and fails unless every exact work counter and every result digest
repeats.  ``--write-reference`` records the default seed's result
digests in ``reference_digests.json``; do that only when a change is
meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

SPEC = json.loads((bench.CHECKOUT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(bench.HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=bench.CHECKOUT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spreads(workload: str, runs: int, seconds: int, first_seed: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(first_seed, first_seed + runs):
        metrics = invoke(workload, seed, seconds, 0)["metrics"]
        for name in bounds:
            values[name].append(metrics[name]["value"])
    ok = True
    for name, bound in bounds.items():
        width = spread(values[name])
        verdict = "ok" if width <= bound else "OVER"
        if name != "setup_s" and width > bound:
            ok = False
        print(
            f"{workload:11s} {name:18s} median {statistics.median(values[name]):12.6g} "
            f"spread {width:6.3f} bound {bound:5.2f} {verdict}  "
            + " ".join(f"{v:.4g}" for v in values[name])
        )
    return ok


def counters(workload: str, seconds: int) -> bool:
    first, second = (
        invoke(workload, bench.DEFAULT_SEED, seconds, 1)["metrics"] for _ in range(2)
    )
    ok = True
    for name in bench.COUNTERS:
        a, b = first[name]["value"], second[name]["value"]
        if a != b:
            ok = False
        print(f"{workload:11s} {name:24s} {a:>12g} {b:>12g} {'same' if a == b else 'DIFFERENT'}")
    return ok


def write_reference() -> None:
    digests = {}
    with tempfile.TemporaryDirectory(dir=bench.WORK) as scratch:
        for workload in bench.WORKLOADS:
            runner = bench.Runner(workload, bench.DEFAULT_SEED, Path(scratch))
            digests[workload] = runner.job("cold", runner.root())["digests"]
    path = bench.HERE / "reference_digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--counters", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        bench.WORK.mkdir(exist_ok=True)
        write_reference()
        return 0
    ok = True
    for workload in args.workloads.split(","):
        if args.counters:
            ok &= counters(workload, args.seconds)
        if args.runs:
            ok &= spreads(workload, args.runs, args.seconds, args.first_seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
