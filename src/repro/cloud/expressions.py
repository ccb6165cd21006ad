"""Condition and update expressions for the key-value store.

This is the semantic core of DynamoDB's *update expressions* (the paper's
Table 2 row "Concurrency primitives: conditional updates"): a structured,
composable mini-language with

* **conditions** — attribute existence, comparisons, boolean combinators —
  evaluated atomically against the current item; and
* **update actions** — ``SET``, ``ADD`` (atomic numeric add, and its
  set form on a list), ``REMOVE``, ``LIST_APPEND``, ``LIST_REMOVE`` —
  applied atomically iff the condition holds.

The paper's synchronization primitives (timed lock, atomic counter, atomic
list, Section 3.3) are implemented purely in terms of these expressions in
:mod:`repro.primitives`.

We deliberately implement the expressions as Python objects rather than a
string parser: the semantics (what FaaSKeeper relies on) are identical and
the construction is type-checked.
"""

from __future__ import annotations

import copy
import operator
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Attr",
    "Condition",
    "And",
    "Or",
    "Not",
    "UpdateAction",
    "Set",
    "SetIfNotExists",
    "Add",
    "Remove",
    "ListAppend",
    "ListAdd",
    "ListRemove",
    "ListPopHead",
    "apply_updates",
    "updated_image",
    "clone",
    "clone_sized",
    "item_size_bytes",
    "item_size_kb",
]


class _Expr:
    """Value semantics for conditions and actions: equal (and hashed) by
    type and fields, shown as ``Name(field=value, ...)``.  Plain
    ``__slots__`` classes, since one is built for every storage call."""

    __slots__ = ()
    #: The constructor's arguments; the slots derived from them are not fields.
    _fields: Tuple[str, ...] = ()

    def _key(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Expr) and type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


# --------------------------------------------------------------------------
# Conditions
# --------------------------------------------------------------------------
class Condition(_Expr):
    """Base condition; supports ``&``, ``|`` and ``~`` composition."""

    __slots__ = ()

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


class And(Condition):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Condition, right: Condition) -> None:
        self.left, self.right = left, right

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return self.left.evaluate(item) and self.right.evaluate(item)


class Or(Condition):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Condition, right: Condition) -> None:
        self.left, self.right = left, right

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return self.left.evaluate(item) or self.right.evaluate(item)


class Not(Condition):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: Condition) -> None:
        self.inner = inner

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return not self.inner.evaluate(item)


_MISSING = object()


def _get(item: Optional[Dict[str, Any]], parts: List[str]) -> Any:
    """Resolve a split attribute path; returns _MISSING when absent."""
    if item is None:
        return _MISSING
    node: Any = item
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


_COMPARISONS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class _Compare(Condition):
    __slots__ = ("path", "op", "value", "_parts", "_fn")
    _fields = ("path", "op", "value")

    def __init__(self, path: str, op: str, value: Any) -> None:
        fn = _COMPARISONS.get(op)
        if fn is None:
            raise ValueError(f"unknown comparison {op!r}")
        self.path, self.op, self.value = path, op, value
        self._parts, self._fn = path.split("."), fn

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        current = _get(item, self._parts)
        return current is not _MISSING and self._fn(current, self.value)


class _ItemExists(Condition):
    """True iff the item itself exists (any attributes)."""

    __slots__ = ()

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        return item is not None


class _Exists(Condition):
    __slots__ = ("path", "exists", "_parts")
    _fields = ("path", "exists")

    def __init__(self, path: str, exists: bool) -> None:
        self.path, self.exists, self._parts = path, exists, path.split(".")

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        present = _get(item, self._parts) is not _MISSING
        return present == self.exists


class _Contains(Condition):
    __slots__ = ("path", "value", "_parts")
    _fields = ("path", "value")

    def __init__(self, path: str, value: Any) -> None:
        self.path, self.value, self._parts = path, value, path.split(".")

    def evaluate(self, item: Optional[Dict[str, Any]]) -> bool:
        current = _get(item, self._parts)
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
class UpdateAction(_Expr):
    """Base update action.

    ``apply`` assigns into the *top level* of ``item`` and nowhere deeper:
    nested maps on the way to a dotted path are path-copied, lists are
    rebuilt, and container operands are cloned as they enter.  So after
    ``new = dict(old); action.apply(new)`` the two share every untouched
    attribute and ``old`` is exactly what it was — the copy-on-write step
    the key-value store's image discipline rests on.

    ``apply`` returns the exact bytes the item grew by (negative when it
    shrank): the size delta of the one leaf it sets, appends to, removes
    or pops from, plus the name and container bytes of each map it creates
    on the way to a dotted path.  Sizes are additive (a map is its container
    bytes plus its names and values, a list its container bytes plus its
    elements), so the deltas sum to exactly what a full walk would.
    """

    __slots__ = ("path", "_parts")
    _fields = ("path",)

    def __init__(self, path: str) -> None:
        self.path, self._parts = path, path.split(".")

    def apply(self, item: Dict[str, Any]) -> int:
        raise NotImplementedError


def _put(item: Dict[str, Any], parts: List[str], value: Any) -> int:
    """Assign ``value`` at the split path, path-copying the maps on the way
    (the old ones may be shared) and creating the missing ones; returns the
    bytes of what that added besides the value: each created map's name and
    container, and the leaf's name when the leaf is new."""
    node, added = item, 0
    for part in parts[:-1]:
        child = node.get(part, _MISSING)
        if child is _MISSING:
            child = {}
            added += _value_size_bytes(part) + _CONTAINER_BYTES
        elif isinstance(child, dict):
            child = dict(child)
        else:
            raise TypeError(f"cannot descend into non-map attribute {part!r}")
        node[part] = child
        node = child
    last = parts[-1]
    if last not in node:
        added += _value_size_bytes(last)
    node[last] = value
    return added


def _swap_bytes(old: Any, new: Any) -> int:
    """Bytes a leaf grows by when ``new`` replaces ``old`` (_MISSING: none)."""
    if old is _MISSING:
        return _value_size_bytes(new)
    if type(old) is type(new) and type(new) in _FIXED_BYTES:
        return 0
    return _value_size_bytes(new) - _value_size_bytes(old)


class Set(UpdateAction):
    __slots__ = ("value",)
    _fields = ("path", "value")

    def __init__(self, path: str, value: Any) -> None:
        self.path, self._parts, self.value = path, path.split("."), value

    def apply(self, item: Dict[str, Any]) -> int:
        old, value = _get(item, self._parts), clone(self.value)
        return _put(item, self._parts, value) + _swap_bytes(old, value)


class SetIfNotExists(Set):
    __slots__ = ()

    def apply(self, item: Dict[str, Any]) -> int:
        if _get(item, self._parts) is not _MISSING:
            return 0
        value = clone(self.value)
        return _put(item, self._parts, value) + _value_size_bytes(value)


class Add(UpdateAction):
    """Atomic numeric add (DynamoDB ``ADD``); missing attribute counts as 0."""

    __slots__ = ("delta",)
    _fields = ("path", "delta")

    def __init__(self, path: str, delta: float) -> None:
        self.path, self._parts, self.delta = path, path.split("."), delta

    def apply(self, item: Dict[str, Any]) -> int:
        old = _get(item, self._parts)
        base = 0 if old is _MISSING else old
        if not isinstance(base, (int, float)):
            raise TypeError(f"ADD on non-numeric attribute {self.path!r}")
        new = base + self.delta
        return _put(item, self._parts, new) + _swap_bytes(old, new)


class Remove(UpdateAction):
    __slots__ = ()

    def apply(self, item: Dict[str, Any]) -> int:
        parts = self._parts
        last = parts[-1]
        parent = item if len(parts) == 1 else _get(item, parts[:-1])
        if not isinstance(parent, dict) or last not in parent:
            return 0
        if parent is not item:
            parent = dict(parent)  # path copy: the old map may be shared
            _put(item, parts[:-1], parent)
        return -(_value_size_bytes(last) + _value_size_bytes(parent.pop(last)))


def _list_at(item: Dict[str, Any], action: UpdateAction) -> Any:
    """The list under the action's path, or _MISSING; anything else there
    raises, as DynamoDB's list operations reject a non-list attribute."""
    current = _get(item, action._parts)
    if current is not _MISSING and not isinstance(current, list):
        raise TypeError(f"list operation on non-list attribute {action.path!r}")
    return current


class ListAppend(UpdateAction):
    """Append values to a list attribute, creating it when missing."""

    __slots__ = ("values",)
    _fields = ("path", "values")

    def __init__(self, path: str, values: Iterable[Any]) -> None:
        self.path, self._parts, self.values = path, path.split("."), tuple(values)

    def apply(self, item: Dict[str, Any]) -> int:
        current = _list_at(item, self)
        added = [clone(v) for v in self.values]
        grown = sum(map(_value_size_bytes, added))
        if current is _MISSING:
            current, grown = [], grown + _CONTAINER_BYTES
        return _put(item, self._parts, current + added) + grown


class ListAdd(ListAppend):
    """Append only the values the list does not hold yet — DynamoDB ``ADD``
    on a string set, kept in first-added order."""

    __slots__ = ()

    def apply(self, item: Dict[str, Any]) -> int:
        current = _list_at(item, self)
        base, grown = ([], _CONTAINER_BYTES) if current is _MISSING else (list(current), 0)
        for v in self.values:
            if v not in base:
                v = clone(v)
                base.append(v)
                grown += _value_size_bytes(v)
        return _put(item, self._parts, base) + grown


class ListRemove(ListAppend):  # for its (path, values) constructor
    """Remove (first occurrences of) the given values from a list attribute."""

    __slots__ = ()

    def apply(self, item: Dict[str, Any]) -> int:
        current = _list_at(item, self)
        if current is _MISSING:
            return 0
        base, shrunk = list(current), 0
        for v in self.values:
            try:  # the element removed may differ in size from ``v`` (1 == True)
                shrunk += _value_size_bytes(base.pop(base.index(v)))
            except ValueError:
                pass
        _put(item, self._parts, base)
        return -shrunk


class ListPopHead(UpdateAction):
    """Drop the first ``count`` elements of a list attribute (queue pop)."""

    __slots__ = ("count",)
    _fields = ("path", "count")

    def __init__(self, path: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"cannot pop a negative count ({count}) off {path!r}")
        self.path, self._parts, self.count = path, path.split("."), count

    def apply(self, item: Dict[str, Any]) -> int:
        current = _list_at(item, self)
        if current is _MISSING:
            return 0
        _put(item, self._parts, current[self.count:])
        return -sum(map(_value_size_bytes, current[:self.count]))


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
    size is the old one plus the delta of the leaves the update changed,
    as each action reports it — the same integer a full
    :func:`item_size_bytes` walk of the result returns, without walking
    what did not change: joining a watch instance sizes the one session
    name it appends, not the list it appends to.
    """
    if not image:
        image, size_bytes = {}, _CONTAINER_BYTES
    new = dict(image)
    for action in updates:
        size_bytes += action.apply(new)
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
