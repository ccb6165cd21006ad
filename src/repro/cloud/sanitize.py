"""Runtime sanitizer: the storage disciplines FK002/FK003, checked at the
kvstore on the *resolved* table names and update lists.

The kvstore facade calls :func:`check_mutation` at the top of every
mutator when ``FK_SANITIZE=1`` is set (the CI sanitizer leg runs the whole
tier-1 suite this way).  Each ``KeyValueStore`` reads the variable once, at
construction, so set it before the store exists.  The checks are cheap string/type tests — disarmed, the
cost is one attribute read per storage op — and a violation raises
:class:`SanitizerError` at the exact offending call, ASan-style, instead of
letting a torn commit or an unguarded watch sweep surface three tests later
as a flaky timeout.

Armed invariants:

* **FK002** — ``fk-system-log`` accepts appends only inside a storage
  transaction (``transact_update``: the commit's conditional multi-item
  write); plain ``put_item``/``update_item`` on it raises.  Deletes
  (compaction) must be conditional.
* **FK003** — a ``Remove`` of an ``inst.*`` attribute on
  ``fk-system-watches`` must carry a condition (the id + session-list
  guard of the guarded-removal protocol), transactional or not.
* **Frozen images** — reads hand stored images out uncopied, so a store
  snapshots each one and checks it (:func:`check_frozen`) on the next op.

This module is imported by :mod:`repro.cloud.kvstore`, so it must not
import anything from :mod:`repro.cloud` or :mod:`repro.faaskeeper` —
update actions are duck-typed by class name.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence

__all__ = ["SanitizerError", "enabled", "check_mutation", "check_frozen",
           "APPEND_ONLY_TABLE"]

#: The one table whose append path must ride the commit transaction.
APPEND_ONLY_TABLE = "fk-system-log"
WATCH_TABLE = "fk-system-watches"


class SanitizerError(BaseException):
    """A machine-checked storage-discipline invariant was violated.

    Not an ``Exception``: it must escape ``Environment.run()`` at once, and
    a client request's pipeline and a listener's isolation catch
    ``Exception`` (triggers redeliver only :data:`~repro.cloud.errors.REDELIVERED`)."""


def enabled() -> bool:
    """True when ``FK_SANITIZE=1`` arms the assertions."""
    return os.environ.get("FK_SANITIZE", "") == "1"


def check_frozen(what: str, image: Any, snapshot: Any) -> None:
    """Assert a stored image still equals its snapshot from store time."""
    if image != snapshot:
        raise SanitizerError(f"{what} was mutated in place after it was stored;"
                             " images are frozen — build a new one, see CONTRIBUTING.md")


def _is_instance_remove(action: Any) -> bool:
    return (type(action).__name__ == "Remove"
            and str(getattr(action, "path", "")).startswith("inst"))


def check_mutation(method: str, table_name: str, key: str,
                   updates: Optional[Sequence[Any]] = None,
                   condition: Optional[Any] = None,
                   transactional: bool = False) -> None:
    """Assert the FK002/FK003 storage invariants for one mutation.

    Called by the kvstore facade with the *resolved* table name, so
    dynamically-built names the static checker cannot see are covered.
    """
    if table_name == APPEND_ONLY_TABLE:
        if method in ("put_item", "update_item") and not transactional:
            raise SanitizerError(
                f"FK002: direct {method} on {table_name!r} (key={key!r}) "
                "outside a storage transaction — commit records must "
                "ride the commit's conditional transact_update "
                "(SnapshotManager.append_log); see CONTRIBUTING.md")
        if method == "delete_item" and condition is None:
            raise SanitizerError(
                f"FK002: unconditional delete_item on {table_name!r} "
                f"(key={key!r}) — compaction deletes must be guarded "
                "by a condition; see CONTRIBUTING.md")
    if table_name == WATCH_TABLE and updates is not None and \
            condition is None:
        for action in updates:
            if _is_instance_remove(action):
                raise SanitizerError(
                    f"FK003: unguarded Remove of watch instance "
                    f"{getattr(action, 'path', '?')!r} on {table_name!r} "
                    f"(key={key!r}) — condition the update on the "
                    "observed instance id AND session list "
                    "(guarded-removal protocol); see CONTRIBUTING.md")
