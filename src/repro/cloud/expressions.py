"""Condition and update expressions for the key-value store.

This is the semantic core of DynamoDB's *update expressions* (the paper's
Table 2 row "Concurrency primitives: conditional updates"): a structured,
composable mini-language with

* **conditions** — attribute existence, comparisons, boolean combinators —
  evaluated atomically against the current item; and
* **update actions** — ``SET``, ``ADD`` (atomic numeric add), ``REMOVE``,
  ``LIST_APPEND``, ``LIST_REMOVE`` — applied atomically iff the condition
  holds.

The paper's synchronization primitives (timed lock, atomic counter, atomic
list, Section 3.3) are implemented purely in terms of these expressions in
:mod:`repro.primitives`.

We deliberately implement the expressions as Python objects rather than a
string parser: the semantics (what FaaSKeeper relies on) are identical and
the construction is type-checked.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Attr",
    "Condition",
    "And",
    "Or",
    "Not",
    "Always",
    "UpdateAction",
    "Set",
    "SetIfNotExists",
    "Add",
    "Remove",
    "ListAppend",
    "ListRemove",
    "ListPopHead",
    "apply_updates",
    "updated_image",
    "clone",
    "clone_sized",
    "item_size_bytes",
    "item_size_kb",
]


# --------------------------------------------------------------------------
# Conditions
# --------------------------------------------------------------------------
class Condition:
    """Base condition; supports ``&``, ``|`` and ``~`` composition."""

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


@dataclass(frozen=True)
class Always(Condition):
    """Unconditional (used when no condition is supplied)."""

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return True


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return self.left.evaluate(item) and self.right.evaluate(item)


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return self.left.evaluate(item) or self.right.evaluate(item)


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return not self.inner.evaluate(item)


_MISSING = object()


def _get(item: Optional[Dict[str, Any]], path: str) -> Any:
    """Resolve a dotted attribute path; returns _MISSING when absent."""
    if item is None:
        return _MISSING
    node: Any = item
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


@dataclass(frozen=True)
class _Compare(Condition):
    path: str
    op: str
    value: Any

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        current = _get(item, self.path)
        if current is _MISSING:
            return False
        if self.op == "==":
            return current == self.value
        if self.op == "!=":
            return current != self.value
        if self.op == "<":
            return current < self.value
        if self.op == "<=":
            return current <= self.value
        if self.op == ">":
            return current > self.value
        if self.op == ">=":
            return current >= self.value
        raise ValueError(f"unknown comparison {self.op!r}")  # pragma: no cover


@dataclass(frozen=True)
class _ItemExists(Condition):
    """True iff the item itself exists (any attributes)."""

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return item is not None


@dataclass(frozen=True)
class _Exists(Condition):
    path: str
    exists: bool

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        present = _get(item, self.path) is not _MISSING
        return present == self.exists


@dataclass(frozen=True)
class _Contains(Condition):
    path: str
    value: Any

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        current = _get(item, self.path)
        if current is _MISSING:
            return False
        try:
            return self.value in current
        except TypeError:
            return False


class Attr:
    """Condition builder for one attribute path (DynamoDB-style).

    Examples::

        Attr("lock.ts").not_exists() | (Attr("lock.ts") <= now - limit)
        Attr("version") == expected
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def exists(self) -> Condition:
        return _Exists(self.path, True)

    def not_exists(self) -> Condition:
        return _Exists(self.path, False)

    def contains(self, value: Any) -> Condition:
        return _Contains(self.path, value)

    def between(self, low: Any, high: Any) -> Condition:
        return And(_Compare(self.path, ">=", low), _Compare(self.path, "<=", high))

    def __eq__(self, value: Any) -> Condition:  # type: ignore[override]
        return _Compare(self.path, "==", value)

    def __ne__(self, value: Any) -> Condition:  # type: ignore[override]
        return _Compare(self.path, "!=", value)

    def __lt__(self, value: Any) -> Condition:
        return _Compare(self.path, "<", value)

    def __le__(self, value: Any) -> Condition:
        return _Compare(self.path, "<=", value)

    def __gt__(self, value: Any) -> Condition:
        return _Compare(self.path, ">", value)

    def __ge__(self, value: Any) -> Condition:
        return _Compare(self.path, ">=", value)

    def __hash__(self) -> int:  # Attr instances are builders, hash by path
        return hash(("Attr", self.path))


def item_exists() -> Condition:
    """Condition on the presence of the whole item."""
    return _ItemExists()


# --------------------------------------------------------------------------
# Update actions
# --------------------------------------------------------------------------
class UpdateAction:
    """Base update action.

    ``apply`` assigns into the *top level* of ``item`` and nowhere deeper:
    nested maps on the way to a dotted path are path-copied, lists are
    rebuilt, and container operands are cloned as they enter.  So after
    ``new = dict(old); action.apply(new)`` the two share every untouched
    attribute and ``old`` is exactly what it was — the copy-on-write step
    the key-value store's image discipline rests on.
    """

    path: str

    def apply(self, item: Dict[str, Any]) -> None:
        raise NotImplementedError


def _set_path(item: Dict[str, Any], path: str, value: Any) -> None:
    if "." not in path:
        item[path] = value
        return
    *parents, last = path.split(".")
    node = item
    for part in parents:
        child = node.get(part, _MISSING)
        if child is _MISSING:
            child = {}
        elif isinstance(child, dict):
            child = dict(child)  # path copy: the old map may be shared
        else:
            raise TypeError(f"cannot descend into non-map attribute {part!r}")
        node[part] = child
        node = child
    node[last] = value


def _del_path(item: Dict[str, Any], path: str) -> None:
    head, _, last = path.rpartition(".")
    if not head:
        item.pop(last, None)
        return
    parent = _get(item, head)
    if isinstance(parent, dict) and last in parent:
        parent = dict(parent)
        del parent[last]
        _set_path(item, head, parent)


@dataclass(frozen=True)
class Set(UpdateAction):
    path: str
    value: Any

    def apply(self, item: Dict[str, Any]) -> None:
        _set_path(item, self.path, clone(self.value))


@dataclass(frozen=True)
class SetIfNotExists(UpdateAction):
    path: str
    value: Any

    def apply(self, item: Dict[str, Any]) -> None:
        if _get(item, self.path) is _MISSING:
            _set_path(item, self.path, clone(self.value))


@dataclass(frozen=True)
class Add(UpdateAction):
    """Atomic numeric add (DynamoDB ``ADD``); missing attribute counts as 0."""

    path: str
    delta: float

    def apply(self, item: Dict[str, Any]) -> None:
        current = _get(item, self.path)
        base = 0 if current is _MISSING else current
        if not isinstance(base, (int, float)):
            raise TypeError(f"ADD on non-numeric attribute {self.path!r}")
        _set_path(item, self.path, base + self.delta)


@dataclass(frozen=True)
class Remove(UpdateAction):
    path: str

    def apply(self, item: Dict[str, Any]) -> None:
        _del_path(item, self.path)


@dataclass(frozen=True)
class ListAppend(UpdateAction):
    """Append values to a list attribute, creating it when missing."""

    path: str
    values: Tuple[Any, ...]

    def __init__(self, path: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "values", tuple(values))

    def apply(self, item: Dict[str, Any]) -> None:
        current = _get(item, self.path)
        base = [] if current is _MISSING else list(current)
        base.extend(clone(v) for v in self.values)
        _set_path(item, self.path, base)


@dataclass(frozen=True)
class ListRemove(UpdateAction):
    """Remove (first occurrences of) the given values from a list attribute."""

    path: str
    values: Tuple[Any, ...]

    def __init__(self, path: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "values", tuple(values))

    def apply(self, item: Dict[str, Any]) -> None:
        current = _get(item, self.path)
        if current is _MISSING:
            return
        base = list(current)
        for v in self.values:
            try:
                base.remove(v)
            except ValueError:
                pass
        _set_path(item, self.path, base)


@dataclass(frozen=True)
class ListPopHead(UpdateAction):
    """Drop the first ``count`` elements of a list attribute (queue pop)."""

    path: str
    count: int = 1

    def apply(self, item: Dict[str, Any]) -> None:
        current = _get(item, self.path)
        if current is _MISSING:
            return
        _set_path(item, self.path, list(current)[self.count:])


def apply_updates(item: Dict[str, Any], updates: Sequence[UpdateAction]) -> Dict[str, Any]:
    """Apply all actions in order; returns the same dict for convenience."""
    for action in updates:
        action.apply(item)
    return item


def updated_image(image: Optional[Dict[str, Any]], size_bytes: int,
                  updates: Sequence[UpdateAction]) -> Tuple[Dict[str, Any], int]:
    """Copy-on-write update: the new image and its exact size in bytes.

    ``image`` (of ``size_bytes``; None/empty starts from ``{}``) is left
    untouched and shares every attribute the actions do not name.  The
    size is the old one plus the byte delta of the touched top-level
    attributes — the same integer a full :func:`item_size_bytes` walk of
    the result returns, without walking what did not change: a name only
    when it comes or goes, a fixed-size scalar replaced by one of its own
    type not at all.
    """
    if not image:
        image, size_bytes = {}, _CONTAINER_BYTES
    new = apply_updates(dict(image), updates)
    for name in {action.path.partition(".")[0] for action in updates}:
        before, after = image.get(name, _MISSING), new.get(name, _MISSING)
        if before is after or (type(before) is type(after) and type(after) in _FIXED_BYTES):
            continue  # a no-op, or a fixed-size scalar replaced by its own kind
        if before is _MISSING:
            size_bytes += _value_size_bytes(name) + _value_size_bytes(after)
        elif after is _MISSING:
            size_bytes -= _value_size_bytes(name) + _value_size_bytes(before)
        else:
            size_bytes += _value_size_bytes(after) - _value_size_bytes(before)
    return new, size_bytes


# --------------------------------------------------------------------------
# Image cloning (the one copy at the key-value store's API boundary)
# --------------------------------------------------------------------------
_ATOMIC = frozenset({str, bytes, int, float, bool, type(None)})


def clone(value: Any) -> Any:
    """Structural copy of an attribute value: maps and lists are rebuilt,
    immutable scalars are shared, anything else goes to ``copy.deepcopy``."""
    kind = type(value)
    if kind in _ATOMIC:
        return value
    if kind is dict:
        return {k: v if type(v) in _ATOMIC else clone(v) for k, v in value.items()}
    if kind is list:
        return [v if type(v) in _ATOMIC else clone(v) for v in value]
    return copy.deepcopy(value)


def clone_sized(value: Any) -> Tuple[Any, int]:
    """``(clone(value), item_size_bytes(value))`` in one walk: the copy-in
    of a caller's item, sized as it is copied."""
    kind = type(value)
    if kind is dict:
        twin, size = {}, _CONTAINER_BYTES
        for key, item in value.items():
            if type(item) in _ATOMIC:
                twin[key] = item
                size += _value_size_bytes(key) + _value_size_bytes(item)
            else:
                twin[key], item_bytes = clone_sized(item)
                size += _value_size_bytes(key) + item_bytes
        return twin, size
    if kind is list:
        twin, size = [], _CONTAINER_BYTES
        for item in value:
            if type(item) in _ATOMIC:
                size += _value_size_bytes(item)
            else:
                item, item_bytes = clone_sized(item)
                size += item_bytes
            twin.append(item)
        return twin, size
    return clone(value), _value_size_bytes(value)


# --------------------------------------------------------------------------
# Size accounting (drives per-kB billing and bandwidth latency terms)
# --------------------------------------------------------------------------
_CONTAINER_BYTES = 3
#: Bytes of the fixed-size scalars, by exact type.
_FIXED_BYTES = {type(None): 1, bool: 1, int: 8, float: 8}


def _value_size_bytes(value: Any) -> int:
    """Dispatched on the exact type; subclasses (an ``IntEnum``, a named
    tuple) and the rarer types take the ``isinstance`` ladder below."""
    kind = type(value)
    if kind is str:  # first: every attribute name lands here
        return (len(value) if value.isascii()
                else len(value.encode("utf-8", errors="replace")))
    if kind is dict:
        return (_CONTAINER_BYTES + sum(map(_value_size_bytes, value))
                + sum(map(_value_size_bytes, value.values())))
    size = _FIXED_BYTES.get(kind)
    if size is not None:
        return size
    if kind is list:
        return _CONTAINER_BYTES + sum(map(_value_size_bytes, value))
    if isinstance(value, str):
        return (len(value) if value.isascii()
                else len(value.encode("utf-8", errors="replace")))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return _CONTAINER_BYTES + sum(map(_value_size_bytes, value))
    if isinstance(value, dict):
        return (_CONTAINER_BYTES + sum(map(_value_size_bytes, value))
                + sum(map(_value_size_bytes, value.values())))
    return 8  # int and float subclasses (bool has none), opaque objects: a word


def item_size_bytes(item: Optional[Dict[str, Any]]) -> int:
    """Approximate billable size of an item, in bytes (0 for no item)."""
    return 0 if item is None else _value_size_bytes(item)


def item_size_kb(item: Optional[Dict[str, Any]]) -> float:
    """Approximate billable size of an item, in kB."""
    return item_size_bytes(item) / 1024.0
