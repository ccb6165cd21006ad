"""Unit tests for the condition/update expression engine."""

import copy
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.expressions import (
    Add,
    Attr,
    ListAdd,
    ListAppend,
    ListPopHead,
    ListRemove,
    Remove,
    Set,
    SetIfNotExists,
    _Compare,
    _value_size_bytes,
    apply_updates,
    clone,
    clone_sized,
    item_exists,
    item_size_bytes,
    item_size_kb,
    updated_image,
)
from repro.faaskeeper.model import NodeStat


# ------------------------------------------------------------- conditions
def test_attr_exists():
    assert Attr("a").exists().evaluate({"a": 1})
    assert not Attr("a").exists().evaluate({"b": 1})
    assert not Attr("a").exists().evaluate(None)


def test_attr_not_exists():
    assert Attr("a").not_exists().evaluate({"b": 1})
    assert Attr("a").not_exists().evaluate(None)
    assert not Attr("a").not_exists().evaluate({"a": 0})


def test_comparisons():
    item = {"n": 5}
    assert (Attr("n") == 5).evaluate(item)
    assert (Attr("n") != 4).evaluate(item)
    assert (Attr("n") < 6).evaluate(item)
    assert (Attr("n") <= 5).evaluate(item)
    assert (Attr("n") > 4).evaluate(item)
    assert (Attr("n") >= 5).evaluate(item)
    assert not (Attr("n") > 5).evaluate(item)


def test_comparison_on_missing_attr_is_false():
    assert not (Attr("n") == 0).evaluate({})
    assert not (Attr("n") < 100).evaluate(None)


def test_nested_paths():
    item = {"lock": {"ts": 42}}
    assert (Attr("lock.ts") == 42).evaluate(item)
    assert Attr("lock.ts").exists().evaluate(item)
    assert not Attr("lock.owner").exists().evaluate(item)


def test_boolean_combinators():
    item = {"a": 1, "b": 2}
    cond = (Attr("a") == 1) & (Attr("b") == 2)
    assert cond.evaluate(item)
    cond = (Attr("a") == 9) | (Attr("b") == 2)
    assert cond.evaluate(item)
    assert (~(Attr("a") == 9)).evaluate(item)


def test_contains():
    item = {"lst": [1, 2, 3]}
    assert Attr("lst").contains(2).evaluate(item)
    assert not Attr("lst").contains(99).evaluate(item)
    assert not Attr("missing").contains(1).evaluate(item)


def test_item_exists_condition():
    assert item_exists().evaluate({})
    assert not item_exists().evaluate(None)


# ------------------------------------------------------------- updates
def test_set_and_nested_set():
    item = {}
    apply_updates(item, [Set("a", 1), Set("b.c", 2)])
    assert item == {"a": 1, "b": {"c": 2}}


def test_set_if_not_exists():
    item = {"a": 1}
    apply_updates(item, [SetIfNotExists("a", 99), SetIfNotExists("b", 2)])
    assert item == {"a": 1, "b": 2}


def test_add_creates_and_increments():
    item = {}
    apply_updates(item, [Add("cnt", 5)])
    apply_updates(item, [Add("cnt", -2)])
    assert item["cnt"] == 3


def test_add_non_numeric_raises():
    with pytest.raises(TypeError):
        apply_updates({"cnt": "x"}, [Add("cnt", 1)])


def test_remove():
    item = {"a": 1, "b": {"c": 2, "d": 3}}
    apply_updates(item, [Remove("a"), Remove("b.c"), Remove("missing")])
    assert item == {"b": {"d": 3}}


def test_list_append_creates_list():
    item = {}
    apply_updates(item, [ListAppend("w", [1, 2]), ListAppend("w", [3])])
    assert item["w"] == [1, 2, 3]


def test_list_remove_first_occurrences():
    item = {"w": [1, 2, 1, 3]}
    apply_updates(item, [ListRemove("w", [1, 3, 99])])
    assert item["w"] == [2, 1]
    apply_updates({}, [ListRemove("missing", [1])])  # no-op, no raise


def test_list_pop_head():
    item = {"q": [1, 2, 3]}
    apply_updates(item, [ListPopHead("q", 2)])
    assert item["q"] == [3]
    apply_updates(item, [ListPopHead("q", 5)])
    assert item["q"] == []


@pytest.mark.parametrize("current", ["abc", {"a": 1}, 5])
@pytest.mark.parametrize("action", [ListAppend("q", ["d"]), ListAdd("q", ["d"]),
                                    ListRemove("q", ["a"]), ListPopHead("q", 1)])
def test_a_list_action_rejects_a_non_list_attribute(action, current):
    """As DynamoDB's ``list_append`` does: a string is not spread into its
    characters, nor a map into its keys."""
    with pytest.raises(TypeError, match="non-list"):
        apply_updates({"q": current}, [action])


def test_a_negative_pop_is_rejected_at_construction():
    with pytest.raises(ValueError):
        ListPopHead("q", -1)


def test_an_unknown_comparison_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown comparison"):
        _Compare("n", "=~", 1)


def test_expressions_compare_and_print_by_their_fields():
    assert Set("a", [1]) == Set("a", [1]) != SetIfNotExists("a", [1])
    assert ListAdd("l", [1]) != ListAppend("l", [1])
    assert hash(Attr("n") == 5) == hash(Attr("n") == 5)
    assert repr(Set("a", 1)) == "Set(path='a', value=1)"
    assert repr(~(Attr("n") < 2)) == "Not(inner=_Compare(path='n', op='<', value=2))"


def test_update_order_matters():
    item = {}
    apply_updates(item, [Set("a", 1), Add("a", 1), Set("a", 10)])
    assert item["a"] == 10


# ------------------------------------------------------------- sizes
def test_item_size_none_is_zero():
    assert item_size_kb(None) == 0.0


def test_item_size_scales_with_payload():
    small = item_size_kb({"data": b"x" * 100})
    large = item_size_kb({"data": b"x" * 100_000})
    assert small < 0.2
    assert 95 < large < 100


def test_item_size_counts_strings_and_numbers():
    sz = item_size_kb({"a": 1, "b": "hello", "c": [1.0, 2.0]})
    assert sz > 0


# ------------------------------------------------ copy-on-write invariant
_KEYS = st.sampled_from(["a", "b", "c", "d"])
_SCALARS = (st.none() | st.booleans() | st.integers(-5, 5)
            | st.floats(allow_nan=False, allow_infinity=False, width=16)
            | st.text(max_size=4) | st.binary(max_size=4))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=8)
_ITEMS = st.dictionaries(_KEYS, _VALUES, max_size=4)
_PATHS = st.lists(_KEYS, min_size=1, max_size=3).map(".".join)
_ACTIONS = st.one_of(
    st.builds(Set, _PATHS, _VALUES),
    st.builds(SetIfNotExists, _PATHS, _VALUES),
    st.builds(Add, _PATHS, st.integers(-3, 3)),
    st.builds(Remove, _PATHS),
    st.builds(ListAppend, _PATHS, st.lists(_VALUES, max_size=2)),
    st.builds(ListAdd, _PATHS, st.lists(_VALUES, max_size=2)),
    st.builds(ListRemove, _PATHS, st.lists(_SCALARS, max_size=2)),
    st.builds(ListPopHead, _PATHS, st.integers(0, 2)),
)


@given(_ITEMS, st.lists(_ACTIONS, max_size=5))
@settings(max_examples=300, deadline=None)
def test_copy_on_write_update_matches_deepcopy_then_apply(image, updates):
    snapshot = copy.deepcopy(image)
    try:
        expected = apply_updates(copy.deepcopy(image), updates)
    except TypeError:  # ADD on a non-number, descending into a non-map, ...
        with pytest.raises(TypeError):
            updated_image(image, item_size_bytes(image), updates)
        assert image == snapshot  # a failed update leaves no trace either
        return
    new, size_bytes = updated_image(image, item_size_bytes(image), updates)
    assert new == expected                        # (a) same result
    assert image == snapshot                      # (b) input untouched
    assert size_bytes == item_size_bytes(new)     # (c) derived size is exact


@given(st.lists(_ACTIONS, max_size=5))
@settings(max_examples=100, deadline=None)
def test_update_from_a_missing_item_starts_empty(updates):
    try:
        expected = apply_updates({}, updates)
    except TypeError:
        return
    for absent in (None, {}):
        new, size_bytes = updated_image(absent, item_size_bytes(absent), updates)
        assert new == expected and size_bytes == item_size_bytes(new)


@given(_ITEMS, _ACTIONS)
@settings(max_examples=300, deadline=None)
def test_an_action_returns_the_bytes_it_added(image, action):
    new = dict(image)
    try:
        delta = action.apply(new)
    except TypeError:
        return
    assert delta == item_size_bytes(new) - item_size_bytes(image)


@pytest.mark.parametrize("image, action, after", [
    ({"l": [True, 2]}, ListRemove("l", [1]), {"l": [2]}),  # drops 1 B, not 8
    ({"l": [1.0]}, ListRemove("l", [True]), {"l": []}),
    ({"l": [1]}, ListAdd("l", [True, 1.0]), {"l": [1]}),   # holds an equal one
    ({}, Set("a.b.c", 1), {"a": {"b": {"c": 1}}}),        # two maps made on the way
    ({"a": {}}, ListAppend("a.b.c", ["x"]), {"a": {"b": {"c": ["x"]}}}),
    ({"a": {"b": 1, "c": 2}}, Remove("a.b"), {"a": {"c": 2}}),
    ({"n": 1}, Add("n", 0.5), {"n": 1.5}),                # int to float: same size
])
def test_an_action_returns_the_bytes_of_the_leaf_it_changed(image, action, after):
    new = dict(image)
    delta = action.apply(new)
    assert new == after
    assert delta == item_size_bytes(after) - item_size_bytes(image)


@given(_VALUES)
@settings(max_examples=100, deadline=None)
def test_clone_is_equal_and_shares_no_container(value):
    twin = clone(value)
    assert twin == value and type(twin) is type(value)

    def containers(node):
        if isinstance(node, (dict, list)):
            yield id(node)
            for child in (node.values() if isinstance(node, dict) else node):
                yield from containers(child)

    assert not set(containers(value)) & set(containers(twin))


@given(_ITEMS, st.lists(st.lists(_ACTIONS | st.builds(Set, _PATHS, _SCALARS),
                                 max_size=3), max_size=4))
@settings(max_examples=300, deadline=None)
def test_a_chain_of_updates_keeps_the_exact_size(image, batches):
    """Each update derives its size from the last one's, touching only the
    attributes it names: the chain never drifts from a full walk."""
    size_bytes = item_size_bytes(image)
    for updates in batches:
        try:
            image, size_bytes = updated_image(image, size_bytes, updates)
        except TypeError:
            continue
        assert size_bytes == item_size_bytes(image)


# ------------------------------------------------ sizing by exact type
def _ladder_size_bytes(value):
    """The ``isinstance`` ladder the sizer was before it dispatched on the
    exact type: the reference it must agree with on every value."""
    if isinstance(value, str):
        return (len(value) if value.isascii()
                else len(value.encode("utf-8", errors="replace")))
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 3 + sum(map(_ladder_size_bytes, value))
    if isinstance(value, dict):
        return (3 + sum(map(_ladder_size_bytes, value))
                + sum(map(_ladder_size_bytes, value.values())))
    return 8


class _Kind(enum.IntEnum):
    LOW = 1
    HIGH = 1 << 40


class _Name(str):
    pass


class _Opaque:
    pass


_SUBCLASSED = (_SCALARS | st.sampled_from(_Kind) | st.text(max_size=4).map(_Name)
               | st.binary(max_size=4).map(bytearray)
               | st.text(alphabet="aé€😀\udc80", max_size=4)
               | st.builds(NodeStat, *[st.integers(0, 9)] * 6,
                           st.none() | st.text(max_size=3)))


def _nested(scalars):
    return st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=3) | st.tuples(inner, inner)
        | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=3)),
        max_leaves=10)


@given(_nested(_SUBCLASSED | st.builds(_Opaque)))
@settings(max_examples=300, deadline=None)
def test_sizing_by_exact_type_matches_the_isinstance_ladder(value):
    assert _value_size_bytes(value) == _ladder_size_bytes(value)


def _containers(node):
    """ids of every mutable container in ``node``, itself included."""
    if isinstance(node, (dict, list, bytearray)):
        yield id(node)
    children = (node.values() if isinstance(node, dict)
                else node if isinstance(node, (list, tuple)) else ())
    for child in children:
        yield from _containers(child)


@given(st.dictionaries(_KEYS, _nested(_SUBCLASSED)) | st.lists(_nested(_SUBCLASSED)))
@settings(max_examples=300, deadline=None)
def test_clone_sized_is_clone_and_size_in_one_walk(value):
    twin, size_bytes = clone_sized(value)
    assert (twin, size_bytes) == (clone(value), item_size_bytes(value))
    assert not set(_containers(value)) & set(_containers(twin))


def test_clone_falls_back_to_deepcopy_for_other_types():
    value = {"t": (1, [2]), "s": {3}}
    twin = clone(value)
    assert twin == value and twin["t"][1] is not value["t"][1]
    assert twin["s"] is not value["s"]
