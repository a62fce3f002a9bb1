"""Command-line interface: regenerate any paper figure from a shell.

Examples::

    repro-fqms figure1
    repro-fqms figure5 --cycles 120000
    repro-fqms ablations
    repro-fqms all
    repro-fqms check --cycles 40000   # protocol/invariant sanitizers
    repro-fqms figure1 --check        # any run, with checkers attached
    repro-fqms trace --workload vpr,art --policy FQ-VFTF --out trace.json
    repro-fqms report --workload vpr,art --policy FR-FCFS
    repro-fqms compare                # rank every registered policy
    repro-fqms compare --policies FR-FCFS,FQ-VFTF,BLISS --json cmp.json
    repro-fqms sweep --progress --jobs 4       # live fleet dashboard
    repro-fqms perf BENCH_old.json BENCH_new.json --threshold 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from .experiments import (
    run_figure1,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_pairs,
    run_quads,
)
from .experiments.ablations import (
    render_accounting_sweep,
    render_buffer_sweep,
    render_discipline_sweep,
    render_inversion_sweep,
    render_share_sweep,
    sweep_buffers,
    sweep_discipline,
    sweep_inversion_bound,
    sweep_shares,
    sweep_vft_accounting,
    sweep_write_drain,
    render_write_drain_sweep,
)
from .policy import canonical, registered_names
from .sim.cache import configure_cache
from .sim.runner import DEFAULT_CYCLES

FIGURES = ("figure1", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9")


def _run_figure(
    name: str,
    cycles: int,
    seed: int,
    jobs: Optional[int] = None,
    store: Optional[Any] = None,
):
    if name == "figure1":
        return run_figure1(cycles=cycles, seed=seed, jobs=jobs, store=store)
    if name == "figure4":
        return run_figure4(cycles=cycles, seed=seed, jobs=jobs, store=store)
    if name in ("figure5", "figure6", "figure7"):
        outcomes = run_pairs(cycles=cycles, seed=seed, jobs=jobs, store=store)
        runner = {"figure5": run_figure5, "figure6": run_figure6, "figure7": run_figure7}
        return runner[name](outcomes=outcomes)
    if name in ("figure8", "figure9"):
        outcomes = run_quads(cycles=cycles, seed=seed, jobs=jobs, store=store)
        if name == "figure8":
            return run_figure8(outcomes=outcomes)
        return run_figure9(
            cycles=cycles, seed=seed, outcomes=outcomes, jobs=jobs, store=store
        )
    raise ValueError(f"unknown figure {name!r}")


def _figure_json(name: str, result) -> Dict[str, Any]:
    """Machine-readable dump of a figure result (dataclass rows only)."""
    payload: Dict[str, Any] = {"figure": name}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, list) and value and dataclasses.is_dataclass(value[0]):
            payload[field.name] = [dataclasses.asdict(v) for v in value]
        elif isinstance(value, (list, tuple)):
            payload[field.name] = [
                list(v) if isinstance(v, tuple) else v for v in value
            ]
    return payload


def _run_ablations(cycles: int, seed: int) -> str:
    sections = [
        ("Ablation A: priority-inversion bound sweep",
         render_inversion_sweep(sweep_inversion_bound(cycles=cycles, seed=seed))),
        ("Ablation B: asymmetric service shares",
         render_share_sweep(sweep_shares(cycles=cycles, seed=seed))),
        ("Ablation C: buffer partition sizing",
         render_buffer_sweep(sweep_buffers(cycles=cycles, seed=seed))),
        ("Ablation D: deferred vs arrival-time finish-time computation",
         render_accounting_sweep(sweep_vft_accounting(cycles=cycles, seed=seed))),
        ("Ablation E: finish-time vs start-time priority",
         render_discipline_sweep(sweep_discipline(cycles=cycles, seed=seed))),
        ("Ablation F: write scheduling — FCFS vs watermark draining",
         render_write_drain_sweep(sweep_write_drain(cycles=cycles, seed=seed))),
    ]
    return "\n\n".join(f"{title}\n{body}" for title, body in sections)


def _run_trace(args, export: bool) -> str:
    """Run one telemetry-attached workload; render (and maybe export) it."""
    from .telemetry.driver import resolve_profiles, run_traced
    from .telemetry.export import (
        perfetto_trace,
        validate_trace,
        write_intervals_csv,
        write_intervals_jsonl,
        write_trace,
    )
    from .telemetry.report import render_summary_table, render_trace_report

    names = [n.strip() for n in args.workload.split(",") if n.strip()]
    if not names:
        raise SystemExit("--workload must name at least one benchmark")
    try:
        profiles = resolve_profiles(names)
    except KeyError as exc:
        raise SystemExit(f"repro-fqms: error: {exc.args[0]}") from exc
    run = run_traced(
        profiles,
        args.policy,
        cycles=args.cycles,
        seed=args.seed,
        engine=args.engine,
        sample_period=args.period,
    )
    title = f"{'+'.join(names)} under {args.policy}"
    lines = [
        render_trace_report(
            run.telemetry.samples(),
            run.thread_names,
            run.fair_shares,
            title=title,
            policy=run.telemetry.policy_name,
            policy_key_fields=run.telemetry.policy_key_fields,
        ),
        "",
        render_summary_table(run.telemetry.summary()),
    ]
    if export:
        label = f"repro-fqms {title}"
        trace = perfetto_trace(run.telemetry, run.fair_shares, label=label)
        problems = validate_trace(trace)
        if problems:
            raise RuntimeError(f"generated an invalid trace: {problems[:3]}")
        out = args.out or "trace.json"
        write_trace(out, trace)
        lines.append("")
        lines.append(
            f"wrote Perfetto trace to {out} "
            "(load it at https://ui.perfetto.dev)"
        )
        if args.intervals:
            n = len(run.thread_names)
            if args.intervals.endswith(".jsonl"):
                write_intervals_jsonl(args.intervals, run.telemetry.samples(), n)
            else:
                write_intervals_csv(args.intervals, run.telemetry.samples(), n)
            lines.append(f"wrote interval metrics to {args.intervals}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: regenerate figures/ablations; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint subcommand has its own argument surface (paths,
        # --format, --rules, ...); dispatch before the experiment parser
        # so its choices= validation never sees it.
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "perf":
        # Same pre-dispatch pattern: 'perf' compares two performance
        # snapshots (obs manifests / BENCH files) and gates regressions.
        from .obs.perfcli import main as perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "sweep":
        # And 'sweep' runs a (mix x policy) batch with optional live
        # fleet progress and per-run manifests.
        from .obs.sweepcli import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] in ("serve", "submit", "status", "results"):
        # The experiment-service family: 'serve' runs the fair-queued
        # async orchestrator, 'submit'/'status' talk to it over the
        # JSON-line protocol, 'results' queries the result store
        # directly (no service needed).
        from .serve.cli import main as serve_main

        return serve_main(argv)
    parser = argparse.ArgumentParser(
        prog="repro-fqms",
        description="Fair Queuing Memory Systems (MICRO 2006) reproduction; "
        "'repro-fqms lint' runs the contract-aware static analysis, "
        "'repro-fqms perf' compares performance snapshots, and "
        "'repro-fqms sweep' runs batches with live fleet progress, and "
        "'repro-fqms serve|submit|status|results' is the fair-queued "
        "experiment service (each has its own --help)",
    )
    parser.add_argument(
        "experiment",
        choices=FIGURES + ("ablations", "all", "check", "trace", "report", "compare"),
        help="which evaluation artifact to regenerate ('check' runs the "
        "protocol/invariant sanitizers differentially; 'trace' runs one "
        "workload with telemetry and exports a Perfetto trace; 'report' "
        "prints the interval-metrics dashboard; 'compare' ranks "
        "scheduling policies by fairness on the canonical mixes)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=DEFAULT_CYCLES,
        help=f"measurement window per run (default {DEFAULT_CYCLES}; "
        "REPRO_SIM_CYCLES also honoured)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write machine-readable figure rows to this JSON file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent runs (default REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="persistent result-cache directory (default REPRO_CACHE_DIR "
        "or ~/.cache/repro-fqms)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    parser.add_argument(
        "--store",
        metavar="ROOT",
        default=None,
        help="serve-service root whose result store figures/compare read "
        "through and record into (the directory 'repro-fqms serve --root' "
        "and 'repro-fqms results --root' use); runs already in the store "
        "are served from it, fresh runs become queryable",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="attach the repro.check runtime validators (DRAM protocol "
        "sanitizer + scheduler invariant checker) to every freshly "
        "simulated run; equivalent to REPRO_CHECK=1",
    )
    parser.add_argument(
        "--engine",
        choices=("cycle", "event"),
        default=None,
        help="simulation engine: 'event' (skip-to-next-event, the "
        "default) or 'cycle' (step every cycle; the differential "
        "oracle); equivalent to REPRO_ENGINE",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="attach the repro.obs engine-internals metrics registry to "
        "every freshly simulated run; equivalent to REPRO_OBS=1 "
        "(results are unchanged; see also REPRO_OBS_MANIFEST)",
    )
    parser.add_argument(
        "--workload",
        default="vpr,art",
        help="comma-separated benchmark names for 'trace'/'report' "
        "(default vpr,art)",
    )
    parser.add_argument(
        "--policy",
        default="FQ-VFTF",
        help="scheduling policy for 'trace'/'report' (default FQ-VFTF; "
        f"registered: {', '.join(registered_names())})",
    )
    parser.add_argument(
        "--policies",
        default=None,
        help="comma-separated policies for 'compare' (default: every "
        "registered policy)",
    )
    parser.add_argument(
        "--period",
        type=int,
        default=None,
        help="interval-sampler period in cycles for 'trace'/'report' "
        "(default 1000)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="Perfetto trace output path for 'trace' (default trace.json)",
    )
    parser.add_argument(
        "--intervals",
        metavar="PATH",
        default=None,
        help="also dump interval metrics for 'trace' (.csv or .jsonl by "
        "extension; the format tools/trace_compare.py diffs)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs <= 0:
        parser.error("--jobs must be positive")
    try:
        canonical(args.policy)
        if args.policies is not None:
            args.policies = [
                canonical(p.strip())
                for p in args.policies.split(",")
                if p.strip()
            ]
    except ValueError as exc:
        parser.error(str(exc))
    if args.check:
        # Via the environment so the parallel engine's worker processes
        # inherit it.  Note cached results are served without
        # re-simulating; use --no-cache to force every run through the
        # checkers.
        os.environ["REPRO_CHECK"] = "1"
    if args.engine is not None:
        # Same environment plumbing as --check: worker processes build
        # their configs from REPRO_ENGINE.  The fingerprint includes the
        # engine, so cached results never cross engines.
        os.environ["REPRO_ENGINE"] = args.engine
    if args.obs:
        # And once more for the engine-internals metrics registry
        # (never in cache fingerprints: it cannot change results).
        os.environ["REPRO_OBS"] = "1"
    configure_cache(cache_dir=args.cache_dir, enabled=not args.no_cache)
    store = None
    if args.store:
        from pathlib import Path

        from .serve.store import ResultStore

        # Same layout the serve family uses: manifests + index live
        # under <root>/store, so 'repro-fqms results --root <ROOT>'
        # queries whatever the figures just recorded.
        store = ResultStore(Path(args.store) / "store")

    targets = FIGURES + ("ablations",) if args.experiment == "all" else (args.experiment,)
    json_payloads = []
    for target in targets:
        started = time.time()  # det: allow(wall-clock) user-facing timing
        if target == "ablations":
            body = _run_ablations(args.cycles, args.seed)
        elif target == "check":
            from .check.harness import differential_report

            body = differential_report(args.cycles, args.seed)
        elif target in ("trace", "report"):
            body = _run_trace(args, export=target == "trace")
        elif target == "compare":
            from .experiments.fairness import (
                fairness_payload,
                render_fairness,
                run_fairness,
            )

            outcomes = run_fairness(
                policies=args.policies,
                cycles=args.cycles,
                seed=args.seed,
                jobs=args.jobs,
                store=store,
            )
            body = render_fairness(outcomes)
            payload = fairness_payload(outcomes)
            payload["figure"] = "compare"
            json_payloads.append(payload)
        else:
            result = _run_figure(
                target, args.cycles, args.seed, jobs=args.jobs, store=store
            )
            body = result.render()
            json_payloads.append(_figure_json(target, result))
        elapsed = time.time() - started  # det: allow(wall-clock)
        print(f"=== {target} ({elapsed:.0f}s) ===")
        print(body)
        print()
    if args.json and json_payloads:
        with open(args.json, "w") as handle:
            json.dump(json_payloads, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
