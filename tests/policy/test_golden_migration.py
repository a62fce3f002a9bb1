"""Golden differential test for the ``repro.policy`` migration.

``golden_migration.json`` was generated at the commit *preceding* the
pluggable-policy refactor (see ``make_golden.py``); replaying its
matrix — the paper's three policies x both engines x two seeds x the
pair and quad mixes, checkers attached — proves the migrated policies
are bit-identical to the pre-refactor scheduler.  Any diff here means
the refactor changed simulation results, which it must never do.
"""

import json
from pathlib import Path

import pytest

from repro.check import RunChecker
from repro.sim.cache import result_to_json
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem, comparable_result
from repro.workloads.spec2000 import profile

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_migration.json").read_text()
)


def _matrix():
    for key in sorted(GOLDEN["runs"]):
        policy, engine, seed, tag = key.split("|")
        yield pytest.param(
            key, policy, engine, int(seed.removeprefix("seed")), tag, id=key
        )


@pytest.mark.parametrize("key, policy, engine, seed, tag", _matrix())
def test_migrated_policy_is_bit_identical(key, policy, engine, seed, tag):
    names = GOLDEN["workloads"][tag]
    config = SystemConfig(
        num_cores=len(names), policy=policy, seed=seed, engine=engine
    )
    profiles = [profile(name) for name in names]
    result = CmpSystem(config, profiles, probes=[RunChecker()]).run(
        GOLDEN["cycles"], warmup=GOLDEN["warmup"]
    )
    # Through serialized text, exactly as the golden was written.
    replayed = json.loads(
        json.dumps(result_to_json(comparable_result(result)))
    )
    assert replayed == GOLDEN["runs"][key], (
        f"{key}: migrated scheduler diverged from the pre-refactor golden"
    )


def test_matrix_is_complete():
    """The golden covers the full 3x2x2x2 matrix (24 runs)."""
    expected = (
        len(GOLDEN["policies"])
        * len(GOLDEN["engines"])
        * len(GOLDEN["seeds"])
        * len(GOLDEN["workloads"])
    )
    assert len(GOLDEN["runs"]) == expected == 24
