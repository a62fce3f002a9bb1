"""Simulation harness: configuration, the CMP system, and run helpers.

Performance layers live alongside the system model: ``repro.sim.cache``
(the result lookup path: in-process memo in front of one result store)
and ``repro.sim.parallel`` (multi-process fan-out of independent runs).
"""

from .cache import ResultCache, configure_cache
from .config import SystemConfig
from .parallel import RunSpec, run_many
from .runner import (
    DEFAULT_CYCLES,
    clear_solo_cache,
    coscheduled_pair,
    default_warmup,
    run_group,
    run_solo,
    run_workload,
)
from .system import CmpSystem, SimResult, ThreadResult

__all__ = [
    "CmpSystem",
    "DEFAULT_CYCLES",
    "ResultCache",
    "RunSpec",
    "SimResult",
    "SystemConfig",
    "ThreadResult",
    "clear_solo_cache",
    "configure_cache",
    "coscheduled_pair",
    "default_warmup",
    "run_group",
    "run_many",
    "run_solo",
    "run_workload",
]
