"""Worker-side broadcast cache for small-side lookup state.

``ray.put`` the object once on the driver, pass the ``ObjectRef`` into a
task closure, and call :func:`get_broadcast` inside the task: the first
call on each worker process deserialises from the local object store, and
every later task on that worker (across dataset executions) reuses the
cached value. This gives task-pool stages the load-once-per-worker
property of actor pools without paying actor-pool startup, and is the
broadcast-join primitive for small lookup tables (annotation maps, ARK
lookups, postcode geo tables — reference precedent:
``warc-indexer/src/main/java/uk/bl/wa/annotation/Annotator.java:127-232``
loads its maps once per JVM).
"""

from __future__ import annotations

from typing import Any

_CACHE: dict[Any, Any] = {}


def get_broadcast(ref) -> Any:
    """Resolve an ObjectRef via a per-process cache (deserialise once)."""
    import ray

    key = ref.hex() if hasattr(ref, "hex") else ref
    if key not in _CACHE:
        _CACHE[key] = ray.get(ref)
    return _CACHE[key]


def get_broadcast_derived(ref, tag: str, build) -> Any:
    """Per-process cache for a value DERIVED from a broadcast object
    (e.g. a scoring matrix built from a broadcast profile dict). ``build``
    receives the resolved broadcast value and runs at most once per
    (ref, tag) per worker process — batch functions that previously
    rebuilt derived state on every call hang it here instead."""
    key = (ref.hex() if hasattr(ref, "hex") else ref, tag)
    if key not in _CACHE:
        _CACHE[key] = build(get_broadcast(ref))
    return _CACHE[key]

