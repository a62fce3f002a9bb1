"""One sample of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per sample, so no in-process memo
(``runner._memo``, ``CmpSystem._prewarm_memo``) or ambient cache carries
over between samples.  Usage::

    python3 perfbench/job.py {setup,cold,warm} --workload NAME --seed N
        --root DIR [--trace-dir DIR]

* ``setup`` imports the program, builds the workload's inputs (and starts
  and stops the service for ``serve_grid``), and reports the time taken.
* ``cold`` runs the workload against the empty cache and store under
  ``--root``.
* ``warm`` runs it again, in a new process, against what ``cold`` left,
  and also reports the time from this script's start to the last result.

With ``--trace-dir`` the layer wrappers of ``spans.py`` are installed
before anything is built, and every process writes its spans there.
The last line of standard output is one JSON object with the timings,
the simulated work, and a digest of every result the sample saw.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from repro.experiments.figure9 import run_figure9  # noqa: E402
from repro.experiments.quads import QUAD_POLICIES  # noqa: E402
from repro.obs.manifest import host_stamp  # noqa: E402
from repro.serve.service import ExperimentService  # noqa: E402
from repro.serve.spec import SweepSpec  # noqa: E402
from repro.serve.store import ResultStore  # noqa: E402
from repro.sim import cache as result_cache  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.parallel import group_spec, run_label, run_many, solo_spec  # noqa: E402
from repro.sim.runner import default_warmup  # noqa: E402
from repro.sim.system import comparable_result  # noqa: E402
from repro.workloads.spec2000 import four_proc_workloads  # noqa: E402

#: Worker processes of the batch workloads: the host's two cores.
WORKERS = 2
#: The paper's default measurement window.
WINDOW = 60_000
PAIR = ("vpr", "art")
#: Long enough that construction is under a tenth of the job.
PAIR_WINDOW = 480_000
#: Short, so the 48 jobs stress dispatch and storage rather than the engine.
SERVE_WINDOW = 10_000
#: Tenant name -> share φ.
SERVE_TENANTS = (("a", 2.0), ("b", 1.0))
POLICY = "FQ-VFTF"
#: The span tracer of a traced sample (see ``spans.py``), else None.
TRACER = None


def digest(result) -> str:
    """Content digest of the simulated facts of ``result``.

    The ``engine_*`` extras describe how the engine ran, not what it
    computed, so they are stripped before hashing.
    """
    payload = result_cache.result_to_json(comparable_result(result))
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def job_key(spec) -> str:
    """``run_label`` plus the time scale, which tells solo baselines apart."""
    label = run_label(spec)
    return label if spec.scale == 1.0 else f"{label}/x{spec.scale:g}"


def core_cycles(cores: int, spec_cycles: int, spec_warmup: int) -> int:
    return cores * (spec_warmup + spec_cycles)


def engine_work(results) -> dict:
    steps = sum(r.extras.get("engine_steps", 0.0) for r in results)
    skipped = sum(r.extras.get("engine_cycles_skipped", 0.0) for r in results)
    return {"engine_steps": steps, "engine_cycles_skipped": skipped}


class Stamps:
    """Wall-clock stamps of results reaching the store, by run label."""

    def __init__(self):
        self.recorded = {}
        self.results = {}

    def watch(self, store: ResultStore) -> None:
        """Time ``store.record`` on this instance, from outside."""
        record = store.record

        def timed(spec, result, *args, **kwargs):
            entry = record(spec, result, *args, **kwargs)
            label = job_key(spec)
            self.recorded.setdefault(label, time.perf_counter())
            self.results[label] = result
            return entry

        store.record = timed


# -- sweep_fig9 --------------------------------------------------------------


def fig9_specs(seed: int):
    """The Figure 9 job set: quads + their 4x and 1x solo baselines."""
    warmup = default_warmup(WINDOW)
    specs = []
    for workload in four_proc_workloads():
        names = tuple(b.name for b in workload)
        specs.extend(solo_spec(name, 4.0, WINDOW, warmup, seed) for name in names)
        specs.extend(group_spec(names, p, WINDOW, warmup, seed) for p in QUAD_POLICIES)
    solos = dict.fromkeys(b.name for w in four_proc_workloads() for b in w)
    specs.extend(solo_spec(name, 1.0, WINDOW, warmup, seed) for name in solos)
    return specs


def run_fig9(mode: str, seed: int, root: Path, out: dict) -> None:
    result_cache.configure_cache(root / "cache")
    store = ResultStore(root / "store")
    specs = fig9_specs(seed)
    stamps = Stamps()
    stamps.watch(store)
    start = mark_dispatch(out)
    if mode == "setup":
        return
    figure = run_figure9(cycles=WINDOW, seed=seed, jobs=WORKERS, store=store)
    mark_done(out, start)
    results = {job_key(s): runner.memo_get(s) for s in specs}
    out["turnaround_s"] = [stamps.recorded[label] - start for label in results]
    out["digests"] = {label: digest(r) for label, r in results.items()}
    out["store_digests"] = stored_digests(root / "store", specs)
    out["core_cycles"] = sum(core_cycles(len(s.names), s.cycles, s.warmup) for s in specs)
    out["engine"] = engine_work(results.values())
    out["fq_nu_variance"] = figure.utilization_variance(POLICY)
    out["workers"] = WORKERS


def stored_digests(store_root: Path, specs) -> dict:
    """Digests of the copies a fresh ``ResultStore`` reads back."""
    store = ResultStore(store_root)
    found = {}
    for spec in specs:
        result = store.get_result(spec)
        found[job_key(spec)] = digest(result) if result is not None else None
    return found


# -- pair_long ---------------------------------------------------------------


def run_pair(mode: str, seed: int, root: Path, out: dict) -> None:
    result_cache.configure_cache(root / "cache")
    store = ResultStore(root / "store")
    spec = group_spec(PAIR, POLICY, PAIR_WINDOW, default_warmup(PAIR_WINDOW), seed)
    label = job_key(spec)
    stamps = Stamps()
    stamps.watch(store)
    start = mark_dispatch(out)
    if mode == "setup":
        return
    result = run_many([spec], jobs=1, store=store)[spec]
    end = mark_done(out, start)
    out["turnaround_s"] = [stamps.recorded[label] - start]
    out["digests"] = {label: digest(result)}
    out["store_digests"] = stored_digests(root / "store", [spec])
    out["core_cycles"] = core_cycles(len(PAIR), spec.cycles, spec.warmup)
    out["engine"] = engine_work([result])
    out["workers"] = 1


# -- serve_grid --------------------------------------------------------------


def serve_sweep(seed: int, tenant_index: int) -> SweepSpec:
    """The 24-run smoke grid, on seeds no other tenant or seed uses."""
    base = len(SERVE_TENANTS) * 3 * seed + 3 * tenant_index
    return SweepSpec(
        workloads=(("vpr", "art"), ("gzip", "twolf")),
        policies=("FR-FCFS", POLICY),
        cycles=SERVE_WINDOW,
        warmup=SERVE_WINDOW // 4,
        seeds=(base, base + 1, base + 2),
        share_vectors=(None, (2.0, 1.0)),
    )


def run_serve(mode: str, seed: int, root: Path, out: dict) -> None:
    asyncio.run(_serve(mode, seed, root, out))


async def _serve(mode: str, seed: int, root: Path, out: dict) -> None:
    result_cache.configure_cache(root / "cache")
    sweeps = [serve_sweep(seed, i) for i in range(len(SERVE_TENANTS))]
    service = ExperimentService(root / "serve", workers=WORKERS)
    stamps = Stamps()
    stamps.watch(service.store)
    busy = []
    run = service.executor.run

    async def timed_run(job):
        began = time.perf_counter()
        try:
            return await run(job)
        finally:
            busy.append((job.tenant, began, time.perf_counter()))

    service.executor.run = timed_run
    await service.start()
    try:
        start = mark_dispatch(out)
        if mode == "setup":
            return
        submitted = {}
        for (tenant, share), sweep in zip(SERVE_TENANTS, sweeps):
            submitted[tenant] = time.perf_counter()
            service.submit_sweep(tenant, sweep, share=share)
        await service.drain()
        mark_done(out, start)
    finally:
        await service.stop()
    specs = [(tenant, s) for (tenant, _), sw in zip(SERVE_TENANTS, sweeps) for s in sw.expand()]
    labels = [job_key(s) for _, s in specs]
    out["turnaround_s"] = [
        stamps.recorded[job_key(s)] - submitted[tenant] for tenant, s in specs
    ]
    out["digests"] = {label: digest(stamps.results[label]) for label in labels}
    out["store_digests"] = stored_digests(root / "serve" / "store", [s for _, s in specs])
    out["core_cycles"] = sum(core_cycles(len(s.names), s.cycles, s.warmup) for _, s in specs)
    out["engine"] = engine_work(stamps.results.values())
    out["busy"] = busy
    out["submitted"] = submitted
    out["shares"] = dict(SERVE_TENANTS)
    out["counts"] = dict(service.counts)
    out["workers"] = WORKERS


WORKLOADS = {
    "sweep_fig9": run_fig9,
    "pair_long": run_pair,
    "serve_grid": run_serve,
}


def mark_dispatch(out: dict) -> float:
    """End of set-up: the moment the first spec is handed over."""
    now = time.perf_counter()
    out["setup_s"] = now - _T0
    out["t_start"] = now
    return now


def mark_done(out: dict, start: float) -> float:
    """The last result is stored.  A traced sample writes its spans here,
    before the benchmark's own checks read the store back."""
    end = time.perf_counter()
    out["t_end"] = end
    out["wall_s"] = end - start
    if TRACER is not None:
        TRACER.span("job", start, end)
        TRACER.flush()
    return end


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "cold", "warm"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args()

    checkout = Path(__file__).resolve().parent.parent
    if Path(repro.__file__).resolve().parents[1] != checkout / "src":
        print(f"job: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    out = {"import_s": IMPORT_S, "pid": os.getpid()}
    global TRACER
    if args.trace_dir is not None:
        from spans import install

        TRACER = install(args.trace_dir)
    WORKLOADS[args.workload](args.mode, args.seed, args.root, out)
    if args.mode == "warm":
        # A fresh-process regeneration from the warm cache: start-up,
        # import and set-up included, as a user rerunning it waits.
        out["warm_s"] = out["t_end"] - _T0
    if args.mode != "setup":
        out["peak_rss_mb"] = peak_rss_mb()
        out["host"] = host_stamp()
        out["nproc"] = os.cpu_count()
        out["env"] = {k: v for k, v in os.environ.items() if k.startswith(("REPRO_", "PYTHON"))}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
