"""Regenerate the golden migration matrix (``golden_migration.json``).

Run from the repository root::

    PYTHONPATH=src python tests/policy/make_golden.py

The golden file freezes the :class:`~repro.sim.system.SimResult`s of
the paper's three policies across 2 engines x 2 seeds x pair/quad
workloads, with the runtime checkers attached.  It was first generated
at the commit *preceding* the ``repro.policy`` migration, so the
differential test proves the migrated policies are bit-identical to
the pre-refactor scheduler.  Regenerate it only when a change is
*meant* to alter simulation results (and say so in the commit).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.check import RunChecker
from repro.sim.cache import result_to_json
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result
from repro.workloads.spec2000 import profile

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_migration.json"

POLICIES = ("FR-FCFS", "FR-VFTF", "FQ-VFTF")
ENGINES = ("cycle", "event")
SEEDS = (0, 1)
WORKLOADS = {
    "pair": ("vpr", "art"),
    "quad": ("art", "vpr", "parser", "crafty"),
}
CYCLES = 6000
WARMUP = 1500


def run_matrix() -> dict:
    runs = {}
    for policy in POLICIES:
        for engine in ENGINES:
            for seed in SEEDS:
                for tag, names in WORKLOADS.items():
                    config = SystemConfig(
                        num_cores=len(names),
                        policy=policy,
                        seed=seed,
                        engine=engine,
                    )
                    profiles = [profile(name) for name in names]
                    result = CmpSystem(
                        config, profiles, probes=[RunChecker()]
                    ).run(CYCLES, warmup=WARMUP)
                    key = f"{policy}|{engine}|seed{seed}|{tag}"
                    # Engine step counts are instrumentation, not results;
                    # the golden freezes what the simulation *computed*.
                    runs[key] = result_to_json(comparable_result(result))
    return {
        "cycles": CYCLES,
        "warmup": WARMUP,
        "policies": list(POLICIES),
        "engines": list(ENGINES),
        "seeds": list(SEEDS),
        "workloads": {k: list(v) for k, v in WORKLOADS.items()},
        "runs": runs,
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(run_matrix(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
