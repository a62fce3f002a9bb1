"""The result lookup path: the process memo in front of one result store.

Every figure in the evaluation is a sweep of *independent, fully
deterministic* simulations, so a run is reproducible from its inputs
alone: the :class:`~repro.sim.config.SystemConfig`, the workload
profiles, the run window (cycles + warmup), and the seed.  This module
fingerprints those inputs — plus a *code salt* derived from the
package sources, so any change to simulator code invalidates stale
entries — and resolves every run through one path:

1. the in-process memo (same object back, bounded LRU of
   :data:`MEMO_CAP` results),
2. one :class:`~repro.serve.store.ResultStore`, whose fingerprint-named
   ``runs/run-<fp16>.json`` manifests are the only durable result
   format (they embed the canonical JSON of :func:`result_to_json`;
   JSON round-trips Python floats exactly, so a hit equals a fresh
   run),
3. a fresh simulation, written back to both.

:class:`ResultCache` is that path; ``runner``, ``run_many`` and the
experiment service all go through it.  The process-wide instance sits
over the store at ``REPRO_CACHE_DIR``; ``run_many(store=s)`` and the
service use their own store *instead* of it.  Result files of the old
``<root>/<xx>/<fp>.json`` layout are ignored, not migrated.

Configuration:

* ``REPRO_CACHE_DIR`` — store root (default ``~/.cache/repro-fqms``).
* ``REPRO_NO_CACHE=1`` — no store: only the memo.
* ``REPRO_CACHE_SALT`` — override the source-derived code salt
  (used by tests; also handy to pin a salt across checkouts).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Union

from .. import env
from .system import SimResult, ThreadResult

if TYPE_CHECKING:
    from ..serve.store import ResultStore
    from .parallel import RunSpec

#: Bump when the stored JSON layout changes shape.
SCHEMA_VERSION = 1

#: Default cache root when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = Path("~/.cache/repro-fqms")

_code_salt_memo: Optional[str] = None


def code_salt() -> str:
    """Digest of every ``repro`` source file (or ``REPRO_CACHE_SALT``).

    Baked into every fingerprint so a simulator code change can never
    satisfy a lookup with results computed by older code.
    """
    override = env.raw("REPRO_CACHE_SALT")
    if override:
        return override
    global _code_salt_memo
    if _code_salt_memo is None:
        digest = hashlib.sha256()
        package_root = Path(__file__).resolve().parent.parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_salt_memo = digest.hexdigest()[:16]
    return _code_salt_memo


def _profile_payload(profile: Any) -> Any:
    """Canonical content of one workload profile.

    Profiles are fingerprinted by *content*, not name, so a test that
    registers a modified profile under an existing name cannot hit a
    stale entry.
    """
    if dataclasses.is_dataclass(profile) and not isinstance(profile, type):
        return {type(profile).__name__: dataclasses.asdict(profile)}
    return repr(profile)


def fingerprint(
    config: Any,
    profiles: Sequence[Any],
    cycles: int,
    warmup: int,
    seed: int,
) -> str:
    """Content hash identifying one simulation run."""
    payload = {
        "schema": SCHEMA_VERSION,
        "salt": code_salt(),
        "config": dataclasses.asdict(config),
        "profiles": [_profile_payload(p) for p in profiles],
        "cycles": cycles,
        "warmup": warmup,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- SimResult <-> JSON ----------------------------------------------------


def result_to_json(result: SimResult) -> Dict[str, Any]:
    """Plain-JSON form of a :class:`SimResult` (exact float round-trip)."""
    return {
        "schema": SCHEMA_VERSION,
        "policy": result.policy,
        "cycles": result.cycles,
        "threads": [dataclasses.asdict(t) for t in result.threads],
        "data_bus_utilization": result.data_bus_utilization,
        "bank_utilization": result.bank_utilization,
        "refreshes": result.refreshes,
        "extras": dict(result.extras),
    }


def result_from_json(payload: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` stored by :func:`result_to_json`.

    ``extras`` is a *required* payload key: the engine counters ride in
    it, and silently defaulting them away would make cache hits
    distinguishable from fresh runs.  A payload without it (hand-edited
    or written by a pre-``extras`` schema) raises ``KeyError``, which
    :meth:`~repro.serve.store.ResultStore.get_result` treats as a miss —
    the run is simply re-simulated and re-stored.
    """
    return SimResult(
        policy=payload["policy"],
        cycles=payload["cycles"],
        threads=[ThreadResult(**t) for t in payload["threads"]],
        data_bus_utilization=payload["data_bus_utilization"],
        bank_utilization=payload["bank_utilization"],
        refreshes=payload.get("refreshes", 0),
        extras=dict(payload["extras"]),
    )


# -- the in-process memo ----------------------------------------------------

#: Upper bound on memoized results.  Holds a full figure regeneration
#: (hundreds of runs) while bounding long-lived processes that sweep
#: thousands of configurations; eviction is least-recently-used.
MEMO_CAP = 4096

#: spec -> result object (identity-stable per process while resident).
_memo: "OrderedDict[RunSpec, SimResult]" = OrderedDict()


def memo_get(spec: "RunSpec") -> Optional[SimResult]:
    """The memoized result for ``spec``, if this process has one."""
    result = _memo.get(spec)
    if result is not None:
        _memo.move_to_end(spec)
    return result


def memo_put(spec: "RunSpec", result: SimResult) -> None:
    """Install ``result`` as the canonical in-process result for ``spec``."""
    _memo[spec] = result
    _memo.move_to_end(spec)
    while len(_memo) > MEMO_CAP:
        _memo.popitem(last=False)


def memo_clear() -> None:
    """Drop every memoized result (the store needs no flushing: it is
    content-keyed)."""
    _memo.clear()


# -- the lookup path -------------------------------------------------------


class ResultCache:
    """memo → ``store`` → simulate → write back, for one store (or none).

    ``store`` is a :class:`~repro.serve.store.ResultStore`, or None for
    a memo-only path (``--no-cache``).  Callers that look a spec up and
    then write it back pass the fingerprint from :meth:`key` to both
    calls, so each pass computes it once.
    """

    def __init__(self, store: Optional["ResultStore"] = None):
        self.store = store

    def key(self, spec: "RunSpec") -> Optional[str]:
        """``spec``'s store key (its fingerprint); None without a store."""
        return spec.fingerprint() if self.store is not None else None

    def get(self, spec: "RunSpec", key: Optional[str] = None) -> Optional[SimResult]:
        """The memoized or stored result for ``spec``, or None.

        A store hit is memoized, so the next lookup returns that object.
        """
        result = memo_get(spec)
        if result is None and self.store is not None:
            result = self.store.get_result(spec, key)
            if result is not None:
                memo_put(spec, result)
        return result

    def put(
        self,
        spec: "RunSpec",
        result: SimResult,
        key: Optional[str] = None,
        source: str = "fresh",
        tenant: Optional[str] = None,
        attempts: int = 0,
    ) -> None:
        """Memoize ``result`` and record it in the store.

        Recording is idempotent by fingerprint, so writing back a hit
        only labels it; ``source``, ``tenant`` and ``attempts`` land in
        the manifest of a run's first record.
        """
        memo_put(spec, result)
        if self.store is not None:
            self.store.record(
                spec, result, source=source, tenant=tenant,
                attempts=attempts, fingerprint=key,
            )

    def fetch(self, spec: "RunSpec") -> SimResult:
        """``spec``'s result from the memo or the store, else simulated."""
        result = memo_get(spec)
        if result is not None:
            return result
        key = self.key(spec)
        result = self.get(spec, key)
        if result is None:
            from .parallel import execute_spec  # parallel imports this module

            result = execute_spec(spec)
            self.put(spec, result, key)
        return result


# -- process-wide active cache --------------------------------------------

_active: Optional[ResultCache] = None


def _over_store(root: Union[str, os.PathLike]) -> ResultCache:
    from ..serve.store import ResultStore  # serve.store imports this module

    return ResultCache(ResultStore(root))


def active_cache() -> ResultCache:
    """The process-wide lookup path, configured from the environment on
    first use: over the ``REPRO_CACHE_DIR`` store, or memo-only under
    ``REPRO_NO_CACHE``."""
    global _active
    if _active is None:
        if env.truthy("REPRO_NO_CACHE"):
            _active = ResultCache()
        else:
            _active = _over_store(env.raw("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR)
    return _active


def configure_cache(
    cache_dir: Optional[Union[str, os.PathLike]] = None, enabled: bool = True
) -> ResultCache:
    """Explicitly set the process-wide path (CLI ``--cache-dir``/``--no-cache``).

    ``enabled=False`` drops the store (memo only); otherwise
    ``cache_dir`` (or the environment/default resolution) names the
    store root.
    """
    global _active
    if not enabled:
        _active = ResultCache()
    elif cache_dir is not None:
        _active = _over_store(cache_dir)
    else:
        _active = None
        return active_cache()
    return _active
