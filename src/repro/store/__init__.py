"""Cross-process artifact store for binary NumPy/SciPy intermediates.

The store generalises the JSON-only result cache
(:mod:`repro.runtime.cache`) to the *binary* warm state that dominates a
solve's wall time: segment-propagator replay checkpoints, generator-template
index arrays, assembled coarse-space operators and warm-start distribution
stacks.  Artifacts are content-addressed (the key digests their identity plus
the code-version tag), written atomically, digest-verified on read with
quarantine on corruption, bounded by a byte-budget disk LRU, and fronted by a
per-process read-through memory tier so hot artifacts cost one dict lookup.

See :mod:`repro.store.artifacts` for the implementation and
:mod:`repro.service` for the long-lived server that keeps one store's memory
tier warm across many requests.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "artifacts": (
            "DEFAULT_MEMORY_BYTES",
            "DEFAULT_STORE_BYTES",
            "STORE_DIR_ENV",
            "ArtifactStore",
            "StoreStats",
            "artifact_key",
            "current_store",
            "default_store",
            "default_store_dir",
            "store_context",
        ),
    },
)
