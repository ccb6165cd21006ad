"""Unit tests for the condition/update expression engine."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.expressions import (
    Add,
    Always,
    Attr,
    ListAppend,
    ListPopHead,
    ListRemove,
    Remove,
    Set,
    SetIfNotExists,
    apply_updates,
    clone,
    item_exists,
    item_size_bytes,
    item_size_kb,
    updated_image,
)


# ------------------------------------------------------------- conditions
def test_always_true_on_missing_item():
    assert Always().evaluate(None)


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


def test_between_and_contains():
    item = {"n": 5, "lst": [1, 2, 3]}
    assert Attr("n").between(1, 5).evaluate(item)
    assert not Attr("n").between(6, 9).evaluate(item)
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


def test_clone_falls_back_to_deepcopy_for_other_types():
    value = {"t": (1, [2]), "s": {3}}
    twin = clone(value)
    assert twin == value and twin["t"][1] is not value["t"][1]
    assert twin["s"] is not value["s"]
