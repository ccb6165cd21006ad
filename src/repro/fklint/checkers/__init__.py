"""Checker registration: importing this package populates the registry."""

from . import (  # noqa: F401  (imported for their @register side effect)
    atomic_commit,
    blocking,
    config_hygiene,
    copy_discipline,
    determinism,
    handler_state,
    storage_access,
    watch_guard,
)

__all__ = ["atomic_commit", "blocking", "config_hygiene", "copy_discipline",
           "determinism", "handler_state", "storage_access", "watch_guard"]
