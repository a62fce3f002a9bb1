"""Differential checking harness: run policies with and without checks.

Drives a fresh (uncached) simulation of a shared workload under each
scheduling policy twice — once plain, once with the runtime checkers
attached — and verifies both that no checker fired and that the two
runs produced **bit-identical** results.  The second property is what
makes ``--check`` safe to leave on: the checkers observe, they must
never steer.

The same harness also cross-checks the two simulation engines: the
event-driven engine (skip-to-next-event) must produce bit-identical
results to the per-cycle oracle for every policy, on both the
two-processor and four-processor canonical workloads.

Used by the ``check`` CLI subcommand and the differential test suite.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence, Tuple

from ..policy import HEADLINE_POLICIES
from ..sim.config import SystemConfig
from ..sim.system import CmpSystem, SimResult, comparable_result
from ..workloads.spec2000 import profile
from . import RunChecker

#: The policies every differential check covers: the paper's three
#: headline schedulers (§5 evaluation) plus the post-paper policies
#: (BLISS, MISE) — all must satisfy the protocol sanitizer and engine
#: bit-identity.
DEFAULT_POLICIES: Tuple[str, ...] = HEADLINE_POLICIES

#: The paper's canonical mixed pair: latency-sensitive vpr against the
#: bandwidth-hungry art stream (Figures 1 and 5–7).
DEFAULT_WORKLOAD: Tuple[str, ...] = ("vpr", "art")

#: Four-processor mix covering the interesting behaviours: a stream
#: (art), an irregular latency-sensitive thread (vpr), a mixed pointer
#: chaser (parser), and a cache-resident thread (crafty).
QUAD_WORKLOAD: Tuple[str, ...] = ("art", "vpr", "parser", "crafty")


def run_checked_pair(
    policy: str,
    cycles: int,
    seed: int = 0,
    workload: Sequence[str] = DEFAULT_WORKLOAD,
    warmup: int = 0,
    engine: str | None = None,
) -> Tuple[SimResult, SimResult, Dict[str, int]]:
    """Run ``workload`` under ``policy`` unchecked then checked.

    Returns ``(plain, checked, counters)`` where ``counters`` is the
    checker's :meth:`~repro.check.RunChecker.summary`.
    Both runs build fresh systems from the same config, so any
    divergence is the checkers' fault, not residual state.  ``engine``
    pins the simulation engine; None defers to the environment default.
    """
    kwargs = {} if engine is None else {"engine": engine}
    config = SystemConfig(
        policy=policy, num_cores=len(workload), seed=seed, **kwargs
    )
    profiles = [profile(name) for name in workload]
    plain = CmpSystem(config, profiles, probes=()).run(cycles, warmup=warmup)
    checker = RunChecker()
    checked = CmpSystem(config, profiles, probes=[checker]).run(
        cycles, warmup=warmup
    )
    return plain, checked, checker.summary()


def run_engine_pair(
    policy: str,
    cycles: int,
    seed: int = 0,
    workload: Sequence[str] = DEFAULT_WORKLOAD,
    warmup: int = 0,
    check: bool = True,
) -> Tuple[SimResult, SimResult]:
    """Run ``workload`` under both engines; return (cycle, event) results.

    Both systems are built from otherwise-identical configs, with the
    runtime checkers attached so the event engine is validated against
    the protocol sanitizer as well as against the oracle.
    """
    profiles = [profile(name) for name in workload]
    results = []
    for engine in ("cycle", "event"):
        config = SystemConfig(
            policy=policy, num_cores=len(workload), seed=seed, engine=engine
        )
        probes = [RunChecker()] if check else []
        results.append(
            CmpSystem(config, profiles, probes=probes).run(cycles, warmup=warmup)
        )
    return results[0], results[1]


def _assert_identical(label: str, oracle: SimResult, subject: SimResult) -> None:
    a = dataclasses.asdict(comparable_result(oracle))
    b = dataclasses.asdict(comparable_result(subject))
    if a != b:
        raise AssertionError(
            f"{label}: results diverged (oracle={a!r}, subject={b!r})"
        )


def differential_report(
    cycles: int,
    seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    workload: Sequence[str] = DEFAULT_WORKLOAD,
) -> str:
    """Run the differential checks for every policy; return a report.

    Two independent comparisons per policy: checked vs unchecked (the
    checkers must observe, never steer) and event engine vs per-cycle
    oracle (skipping must not change a single bit) — the latter on both
    the pair workload and the four-processor mix.

    Raises the underlying :class:`~repro.check.CheckError` on any
    protocol or invariant violation, and :class:`AssertionError` on any
    divergence.
    """
    lines = [
        f"differential check: workload={'+'.join(workload)} "
        f"cycles={cycles} seed={seed}"
    ]
    for policy in policies:
        plain, checked, counters = run_checked_pair(
            policy, cycles, seed=seed, workload=workload
        )
        if checked != plain:
            raise AssertionError(
                f"{policy}: checked run diverged from unchecked run — "
                f"the checkers must observe, never steer "
                f"(plain={plain!r}, checked={checked!r})"
            )
        detail = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        lines.append(f"  {policy:<10s} OK bit-identical; {detail}")
    for engine_workload in (workload, QUAD_WORKLOAD):
        tag = "+".join(engine_workload)
        for policy in policies:
            oracle, event = run_engine_pair(
                policy, cycles, seed=seed, workload=engine_workload
            )
            _assert_identical(f"{policy} on {tag}", oracle, event)
            ratio = event.extras.get("engine_skip_ratio", 0.0)
            lines.append(
                f"  {policy:<10s} OK engines bit-identical on {tag} "
                f"(skip ratio {ratio:.1%})"
            )
    lines.append("all policies clean: 0 violations, results identical")
    return "\n".join(lines)
