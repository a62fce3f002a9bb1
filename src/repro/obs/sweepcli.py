"""``repro-fqms sweep``: batch runs with live fleet progress.

Builds one co-scheduled run per (workload mix, policy), executes the
batch through :func:`repro.sim.parallel.run_many` (dedup + both cache
layers + process pool), and prints a per-run summary table.  With
``--progress`` the parent renders a live dashboard — one
sparkline-annotated line per run, fed by the worker heartbeats in
:mod:`repro.obs.fleet` — repainting in place on a TTY and printing a
single final snapshot otherwise.

With ``--manifest-dir`` every run (fresh or cache-served) leaves a
schema-validated run manifest behind: fresh runs write theirs from the
worker (with engine metrics when ``REPRO_OBS`` is set); cache-served
results are backfilled here with ``run.source = cache``.  Manifest
filenames are fingerprint-derived, so the directory converges instead
of accumulating.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional, Sequence

from ..policy import canonical, registered_names
from ..stats.report import render_table
from . import OBS_ENV_VAR, OBS_MANIFEST_ENV_VAR
from .fleet import FleetMonitor, FleetState


def _parse_mixes(values: Sequence[str]) -> List[List[str]]:
    mixes = []
    for value in values:
        names = [n.strip() for n in value.split(",") if n.strip()]
        if not names:
            raise SystemExit("sweep: --workload must name at least one benchmark")
        mixes.append(names)
    return mixes


def _make_queue(jobs: int):
    """(queue, jobs): a Manager queue, degrading to in-process on failure.

    Restricted sandboxes (no semaphores) cannot start a Manager; those
    environments also cannot run a process pool, so the degraded path
    pairs a plain in-process queue with ``jobs=1``.
    """
    try:
        from multiprocessing import Manager

        manager = Manager()
        return manager, manager.Queue(), jobs
    except (OSError, PermissionError, NotImplementedError):
        import queue

        return None, queue.Queue(), 1


class _Dashboard:
    """Repaints the fleet block in place on a TTY; else stays quiet."""

    def __init__(self, stream: Any):
        self._stream = stream
        self._tty = bool(getattr(stream, "isatty", lambda: False)())
        self._lines = 0

    def __call__(self, state: FleetState) -> None:
        if not self._tty:
            return
        block = state.render()
        if self._lines:
            # Cursor up over the previous block, clear to end of screen.
            self._stream.write(f"\x1b[{self._lines}F\x1b[J")
        self._stream.write(block + "\n")
        self._stream.flush()
        self._lines = block.count("\n") + 1

    def final(self, state: FleetState) -> None:
        if self._tty:
            self(state)
        else:
            self._stream.write(state.render() + "\n")
            self._stream.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fqms sweep",
        description=(
            "Run a (workload mix x policy) batch through the parallel "
            "runner, with optional live fleet progress and per-run "
            "manifests."
        ),
    )
    parser.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="A,B,...",
        help="comma-separated benchmark mix; repeat for several mixes "
        "(default vpr,art)",
    )
    parser.add_argument(
        "--policies",
        default=None,
        help="comma-separated policies (default: every registered policy; "
        f"registered: {', '.join(registered_names())})",
    )
    parser.add_argument("--cycles", type=int, default=20000, help="measurement window per run (default %(default)s)")
    parser.add_argument("--warmup", type=int, default=None, help="warmup cycles (default cycles//4)")
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream worker heartbeats to a live fleet dashboard",
    )
    parser.add_argument(
        "--manifest-dir",
        metavar="DIR",
        default=None,
        help="write one schema-validated run manifest per run into DIR "
        "(equivalent to REPRO_OBS_MANIFEST=DIR)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="attach the engine-internals metrics registry to every "
        "freshly simulated run; equivalent to REPRO_OBS=1",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    return parser


def main(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(list(argv))
    if args.jobs is not None and args.jobs <= 0:
        print("sweep: --jobs must be positive")
        return 2
    from ..sim import parallel
    from ..sim.cache import configure_cache

    mixes = _parse_mixes(args.workload or ["vpr,art"])
    try:
        if args.policies is None:
            policies = list(registered_names())
        else:
            policies = [
                canonical(p.strip())
                for p in args.policies.split(",")
                if p.strip()
            ]
    except ValueError as exc:
        print(f"sweep: {exc}")
        return 2
    if args.obs:
        # Via the environment so pool workers inherit it (same plumbing
        # as --check/--obs in the main CLI).
        os.environ[OBS_ENV_VAR] = "1"
    if args.manifest_dir:
        os.environ[OBS_MANIFEST_ENV_VAR] = args.manifest_dir
    configure_cache(enabled=not args.no_cache)

    warmup = args.cycles // 4 if args.warmup is None else args.warmup
    specs = [
        parallel.group_spec(mix, policy, args.cycles, warmup, args.seed)
        for mix in mixes
        for policy in policies
    ]

    jobs = parallel.resolve_jobs(args.jobs)
    monitor = None
    manager = None
    dashboard = None
    if args.progress:
        manager, queue, jobs = _make_queue(jobs)
        monitor = FleetMonitor(queue)
        dashboard = _Dashboard(sys.stdout)
        monitor.on_update(dashboard)
        for spec in specs:
            monitor.state.expect(parallel.run_label(spec))

    try:
        results = parallel.run_many(specs, jobs=jobs, monitor=monitor)
    finally:
        lost: List[str] = []
        if monitor is not None:
            lost = monitor.close()
            if dashboard is not None:
                dashboard.final(monitor.state)
        if manager is not None:
            manager.shutdown()
    for run_id in lost:
        print(f"sweep: run {run_id} was lost (worker died mid-run)")
    if monitor is not None:
        for run_id in sorted(monitor.state.runs):
            retries = monitor.state.runs[run_id].retries
            if retries:
                print(
                    f"sweep: run {run_id} was retried {retries}x "
                    "(crashed worker resubmitted)"
                )

    if args.manifest_dir:
        _backfill_manifests(args.manifest_dir, specs, results)

    rows = []
    for spec in specs:
        result = results[spec]
        ipcs = ", ".join(f"{t.ipc:.3f}" for t in result.threads)
        rows.append(
            ("+".join(spec.names), spec.policy, result.cycles, ipcs)
        )
    print(render_table(["mix", "policy", "cycles", "ipc/thread"], rows))
    if args.manifest_dir:
        print(f"sweep: manifests in {args.manifest_dir}")
    return 1 if lost else 0


def _backfill_manifests(directory: str, specs, results) -> None:
    """Write manifests for cache-served runs (fresh runs wrote their own).

    Fingerprint-named files make this idempotent: a manifest already
    present (written by the worker that simulated the run, with its
    engine metrics) is left untouched.
    """
    from pathlib import Path

    from .manifest import emit_run_manifest

    for spec in specs:
        fingerprint = spec.fingerprint()
        path = Path(directory) / f"run-{fingerprint[:16]}.json"
        if path.exists():
            continue
        emit_run_manifest(
            directory,
            fingerprint=fingerprint,
            policy=spec.policy,
            workload=spec.names,
            cycles=spec.cycles,
            warmup=spec.warmup,
            seed=spec.seed,
            result=results[spec],
            source="cache",
        )
