"""Spec-to-stored-result benchmark of the simulator, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample runs in fresh processes
(``job.py``) with a fresh cache and store under ``.perfbench/`` and every
``REPRO_*`` variable cleared, so nothing ambient turns a cold run warm.

``--trace 0`` repeats (cold run, warm reruns) samples for ``--seconds``
and reports the end-to-end metrics as medians; their host times are
scaled to a nominal host speed that ``hostspeed.py`` measures before and
after each sample (``README.md`` says why).  ``--trace 1`` repeats
(untraced cold, traced cold + traced warm) and reports the per-layer
metrics of the traced samples; their spans stay under
``.perfbench/trace/``.  A sample starts only if one as long as the
longest so far still ends within ``--seconds``, so a run overruns its
time only when its first sample does.  Either way every result is
checked: the cold, warm and stored copies of each job must have one
digest, and at the default seed that digest must match
``reference_digests.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
name every metric with its unit and sample count.  ``README.md`` says
why each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK = CHECKOUT / ".perfbench"
WORKLOADS = ("sweep_fig9", "pair_long", "serve_grid")
#: The seed the reference digests were taken at.
DEFAULT_SEED = 0
#: Timed set-up-only processes per run, after one untimed one that
#: leaves the bytecode cache warm.
SETUP_PROBES = 4
#: Warm-rerun processes per sample.
WARM_PROCESSES = 5
#: Seconds ``hostspeed.py``'s reference work takes at the nominal host
#: speed, within its range (0.4-1.1 s) on the 2-vCPU 2.1 GHz Xeon VM the
#: benchmark was tuned on, so scaled times read close to unscaled ones.
REFERENCE_S = 0.6
#: How much the simulator's host times follow the probe's: the slope of
#: log(pair_long wall time) on log(probe time) over 109 samples taken in
#: a fast and a slow spell on that VM was 0.75 (correlation 0.98).
#: Within one spell the fitted slope is lower (0.47-0.60), because the
#: probe's own noise is then as large as the drift it measures.  The
#: probe misses the CPU caches more often than the simulator does, so
#: it slows more.
SENSITIVITY = 0.75
#: Every child must end by then, so the run ends within 180 s.
DEADLINE_S = 170.0
#: The paper's Figure 9 FQ-VFTF normalized-utilization variance.
PAPER_FQ_NU_VARIANCE = 0.0058

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "core_cycles_per_s": "1/s",
    "warm_s": "s",
    "turnaround_p50_s": "s",
    "turnaround_p75_s": "s",
    "min_share_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "workloads.trace_records": "count",
    "workloads.self_s": "s",
    "cpu.l2_fills": "count",
    "cpu.cache.self_s": "s",
    "sim.construct.self_s": "s",
    "cpu.core.ticks": "count",
    "cpu.core.self_s": "s",
    "controller.ticks": "count",
    "controller.self_s": "s",
    "controller.accept_ratio": "ratio",
    "controller.select_calls": "count",
    "controller.select.self_s": "s",
    "dram.legality_queries": "count",
    "dram.legality.self_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.steps": "count",
    "sim.engine.skip_ratio": "ratio",
    "sim.parallel.busy_frac": "ratio",
    "sim.cache.put_s": "s",
    "sim.cache.get_s": "s",
    "sim.cache.hit_ratio": "ratio",
    "serve.store.record_s": "s",
    "serve.store.get_s": "s",
    "serve.queue_wait_s": "s",
    "serve.executor_overhead_s": "s",
    "import_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Exact work counters: equal across samples and runs at one seed.
COUNTERS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")


class ChildFailed(RuntimeError):
    """A sample process exited non-zero or printed no result."""


def child_env(cache_dir: Path) -> dict:
    """The environment of every sample: no ambient ``REPRO_*`` knob, and
    bytecode caching on, as a user's installed copy would have it."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def stop_group(pid: int) -> None:
    """Kill whatever is left of a sample's process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts ``job.py`` and ``hostspeed.py`` processes under one deadline."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.samples = 0

    def root(self) -> Path:
        self.samples += 1
        return self.scratch / f"sample{self.samples}"

    def job(self, mode: str, root: Path, trace_dir: Path = None) -> dict:
        command = [
            str(HERE / "job.py"),
            mode,
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--root",
            str(root),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        return json.loads(self.start(mode, command, root / "cache"))

    def probe(self) -> float:
        """Seconds the fixed reference work of ``hostspeed.py`` takes now."""
        return float(self.start("host-speed", [str(HERE / "hostspeed.py")], self.scratch))

    def start(self, what: str, command: list, cache_dir: Path) -> str:
        """Run one Python child; return the last line of its output."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before the next sample")
        # Each child leads its own process group, so a sample that runs
        # out of time is stopped together with its pool or service workers.
        proc = subprocess.Popen(
            [sys.executable] + command,
            cwd=CHECKOUT,
            env=child_env(cache_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{what} sample timed out after {timeout:.0f} s") from exc
        finally:
            stop_group(proc.pid)
            proc.wait()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{what} sample exited {proc.returncode}:\n{stderr[-2000:]}")
        return lines[-1]


# -- correctness -------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(HERE / "reference_digests.json") as handle:
        return json.load(handle)[workload]


def check(cold: dict, warms: list, reference: dict, problems: list) -> tuple:
    """(attempted, failed) jobs of one sample; mismatches go to ``problems``.

    A job fails when any of its copies (cold result, warm rereads, store
    reads) is missing or differs, or, at the default seed, differs from
    the reference digest.
    """
    labels = set(cold["digests"]) | set(reference)
    failed = 0
    for label in sorted(labels):
        copies = [out["digests"].get(label) for out in [cold] + warms]
        for out in [cold] + warms:
            if "store_digests" in out:
                copies.append(out["store_digests"].get(label))
        if reference:
            copies.append(reference.get(label))
        if None in copies or len(set(copies)) != 1:
            failed += 1
            problems.append(f"{label}: copies disagree {sorted(set(map(str, copies)))}")
    counts = cold.get("counts", {})
    lost = counts.get("lost", 0) + counts.get("error", 0)
    if lost:
        problems.append(f"service lost or failed {lost} jobs")
    return len(labels), failed + lost


# -- end-to-end metrics ------------------------------------------------------


def upper_quartile(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def min_share_ratio(cold: dict) -> float:
    """Worst tenant's busy-worker share over its φ share.

    Only the interval in which every tenant still has work queued or
    running counts: outside it the lone remaining tenant takes every
    worker by design.  A batch workload is one tenant, whose share is 1.
    """
    busy = cold.get("busy")
    if not busy:
        return 1.0
    shares = cold["shares"]
    start = max(cold["submitted"].values())
    end = min(max(e for t, _, e in busy if t == tenant) for tenant in shares)
    used = {tenant: 0.0 for tenant in shares}
    for tenant, lo, hi in busy:
        used[tenant] += max(0.0, min(hi, end) - max(lo, start))
    total_used = sum(used.values())
    total_share = sum(shares.values())
    return min(
        (used[t] / total_used) / (shares[t] / total_share) for t in shares
    )


def end_to_end(setups: list, samples: list) -> dict:
    """Medians over samples.  ``samples`` holds (cold, warms, scale): each
    host time of a sample is multiplied by its host-speed ``scale``, as
    ``setups`` already are."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c["wall_s"] * k for c, _, k in samples),
        "core_cycles_per_s": statistics.median(
            c["core_cycles"] / (c["wall_s"] * k) for c, _, k in samples
        ),
        "warm_s": statistics.median(w["warm_s"] * k for _, warms, k in samples for w in warms),
        "turnaround_p50_s": statistics.median(
            statistics.median(c["turnaround_s"]) * k for c, _, k in samples
        ),
        "turnaround_p75_s": statistics.median(
            upper_quartile(c["turnaround_s"]) * k for c, _, k in samples
        ),
        "min_share_ratio": statistics.median(min_share_ratio(c) for c, _, _ in samples),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c, _, _ in samples),
    }


def sample_counts(setups: list, samples: list) -> dict:
    """Samples behind each metric, as ``samples`` or ``samples x values``."""
    counts = {name: str(len(samples)) for name in END_TO_END_UNITS}
    counts["setup_s"] = str(len(setups))
    counts["warm_s"] = str(sum(len(warms) for _, warms, _ in samples))
    jobs = len(samples[0][0]["turnaround_s"])
    counts["turnaround_p50_s"] = counts["turnaround_p75_s"] = f"{len(samples)}x{jobs}"
    return counts


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(untraced: dict, cold: dict, warm: dict, cold_dir: Path, warm_dir: Path) -> dict:
    """Per-layer metrics of one traced sample (cold run + warm rerun)."""
    cold_records = spans.load(cold_dir)
    records = cold_records + spans.load(warm_dir)
    agg = spans.merge_aggregates(records)

    def count(name):
        return agg.get(name, [0, 0.0, 0.0, 0])[0]

    def self_s(prefix):
        return sum(v[2] for k, v in agg.items() if k.split(":")[0] == prefix)

    def total_s(name):
        return agg.get(name, [0, 0.0, 0.0, 0])[1]

    def ratio(name):
        calls, _, _, true = agg.get(name, [0, 0.0, 0.0, 0])
        return true / calls if calls else 0.0

    steps = cold["engine"].get("engine_steps", 0.0)
    skipped = cold["engine"].get("engine_cycles_skipped", 0.0)
    cold_agg = spans.merge_aggregates(cold_records)
    in_worker = cold_agg.get("sim.parallel:execute_spec", [0, 0.0])[1]

    worker_runs = {}
    executor_runs = {}
    root_spans = []
    for record in cold_records:
        for name, start, end, _parent, label in record["spans"]:
            if record["pid"] == cold["pid"]:
                if name != "job":
                    root_spans.append((name, start, end))
                if name == "serve.executor:run":
                    executor_runs[label] = end - start
            elif name == "sim.parallel:execute_spec":
                worker_runs[label] = end - start
    overheads = [
        executor_runs[label] - worker_runs[label]
        for label in executor_runs
        if label in worker_runs
    ]
    waits = [start - cold["submitted"][tenant] for tenant, start, _ in cold.get("busy", [])]
    return {
        "workloads.trace_records": count("workloads:__next__"),
        "workloads.self_s": self_s("workloads"),
        "cpu.l2_fills": count("cpu.cache:fill"),
        "cpu.cache.self_s": self_s("cpu.cache"),
        "sim.construct.self_s": self_s("sim.construct"),
        "cpu.core.ticks": count("cpu.core:tick"),
        "cpu.core.self_s": self_s("cpu.core"),
        "controller.ticks": count("controller:tick"),
        "controller.self_s": self_s("controller"),
        "controller.accept_ratio": ratio("controller:try_enqueue"),
        "controller.select_calls": count("controller.select:select"),
        "controller.select.self_s": self_s("controller.select"),
        "dram.legality_queries": sum(
            v[0] for k, v in agg.items() if k.startswith("dram.legality:")
        ),
        "dram.legality.self_s": self_s("dram.legality"),
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.steps": steps,
        "sim.engine.skip_ratio": skipped / (steps + skipped) if steps + skipped else 0.0,
        "sim.parallel.busy_frac": in_worker / (cold["workers"] * cold["wall_s"]),
        "sim.cache.put_s": total_s("sim.cache:put"),
        "sim.cache.get_s": total_s("sim.cache:get"),
        "sim.cache.hit_ratio": ratio("sim.cache:get"),
        "serve.store.record_s": total_s("serve.store:record"),
        "serve.store.get_s": total_s("serve.store:get_result"),
        "serve.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "serve.executor_overhead_s": statistics.median(overheads) if overheads else 0.0,
        "import_s": cold["import_s"],
        "trace.overhead": cold["wall_s"] / untraced["wall_s"],
        "trace.unattributed_frac": 1.0
        - spans.covered_fraction(root_spans, cold["t_start"], cold["t_end"]),
    }


def merge_layers(samples: list, problems: list) -> dict:
    """Medians over traced samples; counters must agree exactly."""
    merged = {}
    for name in PER_LAYER_UNITS:
        values = [s[name] for s in samples]
        if name in COUNTERS:
            if len(set(values)) != 1:
                problems.append(f"counter {name} differs across samples: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged


# -- the run -----------------------------------------------------------------


def fits(started: float, seconds: float, durations: list) -> bool:
    """Whether another sample, as long as the longest so far, ends in time.

    The first sample always runs.
    """
    if not durations:
        return True
    return time.monotonic() - started + max(durations) <= seconds


def report(metrics: dict, units: dict, counts: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]:6s} n={counts[name]}")


def run(args) -> int:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runner = Runner(args.workload, args.seed, scratch)
    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else {}
    problems = []
    attempted = failed = 0
    started = time.monotonic()
    try:
        if args.trace:
            trace_root = WORK / "trace" / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(trace_root, ignore_errors=True)
            traced = []
            durations = []
            while fits(started, args.seconds, durations):
                began = time.monotonic()
                untraced = runner.job("cold", runner.root())
                root = runner.root()
                cold_dir = trace_root / f"sample{len(traced) + 1}" / "cold"
                warm_dir = cold_dir.parent / "warm"
                cold = runner.job("cold", root, cold_dir)
                warm = runner.job("warm", root, warm_dir)
                n, bad = check(cold, [warm], reference, problems)
                attempted += n
                failed += bad
                if untraced["digests"] != cold["digests"]:
                    problems.append("traced and untraced results differ")
                traced.append(layer_metrics(untraced, cold, warm, cold_dir, warm_dir))
                durations.append(time.monotonic() - began)
            metrics = merge_layers(traced, problems)
            first = cold
            report(metrics, PER_LAYER_UNITS, {name: len(traced) for name in metrics})
        else:
            probes = [runner.probe()]
            runner.job("setup", runner.root())
            # Timed before the first sample, so scaled with it.
            unscaled = [
                runner.job("setup", runner.root())["setup_s"] for _ in range(SETUP_PROBES)
            ]
            setups = []
            samples = []
            durations = []
            while fits(started, args.seconds, durations):
                began = time.monotonic()
                root = runner.root()
                cold = runner.job("cold", root)
                warms = [runner.job("warm", root) for _ in range(WARM_PROCESSES)]
                probes.append(runner.probe())
                shutil.rmtree(root, ignore_errors=True)
                n, bad = check(cold, warms, reference, problems)
                attempted += n
                failed += bad
                scale = (REFERENCE_S / statistics.mean(probes[-2:])) ** SENSITIVITY
                samples.append((cold, warms, scale))
                unscaled += [out["setup_s"] for out in [cold] + warms]
                setups += [value * scale for value in unscaled]
                unscaled = []
                durations.append(time.monotonic() - began)
            metrics = end_to_end(setups, samples)
            first = samples[0][0]
            report(metrics, END_TO_END_UNITS, sample_counts(setups, samples))
            walls = " ".join(f"{c['wall_s']:.4f}" for c, _, _ in samples)
            print(
                f"host speed: probes took {' '.join(f'{p:.4f}' for p in probes)} s; "
                f"host times above are scaled by (REFERENCE_S {REFERENCE_S} s / probe) "
                f"** {SENSITIVITY}; unscaled wall_s {walls}"
            )
    except ChildFailed as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if "fq_nu_variance" in first:
        print(
            f"fq_nu_variance (simulated)   {first['fq_nu_variance']:.4f}  "
            f"paper {PAPER_FQ_NU_VARIANCE}; the model is unvalidated against hardware"
        )
    print(f"error_rate                   {failed / attempted:.4f}  ({failed} of {attempted} jobs)")
    print(f"host {json.dumps(first['host'], sort_keys=True)} nproc {first['nproc']}")
    print(f"env {json.dumps(first['env'], sort_keys=True)}")
    for problem in problems:
        print(f"problem: {problem}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopped from outside, a run still stops its children and removes
    # its scratch directory on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"run: no program source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
