"""The two data-model pieces every read touches: ``NodeStat`` and
``validate_path``."""

import pytest

from repro.faaskeeper import BadArgumentsError
from repro.faaskeeper.model import NodeStat, validate_path

_REJECTED = ("a", "", "relative/path", "/a/", "/a//b", "/a/./b", "/a/../b",
             "//", "/.", "/..")


def test_node_stat_is_an_immutable_named_tuple():
    stat = NodeStat(1, 2, 3, 4, 5, 6)
    created, modified, version, cversion, children, length, owner = stat
    assert (created, modified, version, cversion, children, length, owner) \
        == (1, 2, 3, 4, 5, 6, None)
    assert stat.modified_tx == 2 and stat.ephemeral_owner is None
    assert stat == NodeStat(1, 2, 3, 4, 5, 6, None)
    assert stat != NodeStat(1, 2, 3, 4, 5, 7)
    assert len({stat, NodeStat(1, 2, 3, 4, 5, 6)}) == 1
    with pytest.raises(AttributeError):
        stat.version = 9
    with pytest.raises(AttributeError):
        stat.extra = 1
    bumped = stat._replace(version=9, ephemeral_owner="s1")
    assert (bumped.version, bumped.ephemeral_owner, stat.version) == (9, "s1", 3)


def test_node_stat_from_image_defaults_and_counts():
    bare = NodeStat.from_image({"created_tx": 7, "modified_tx": 8,
                                "version": 1, "cversion": 2})
    assert bare == NodeStat(7, 8, 1, 2, 0, 0, None)
    full = NodeStat.from_image({
        "created_tx": 7, "modified_tx": 9, "version": 2, "cversion": 3,
        "children": ["x", "y"], "data": b"abc", "ephemeral_owner": "s4",
        "epoch": ["w1"], "acl": None})
    assert full == NodeStat(7, 9, 2, 3, 2, 3, "s4")
    assert NodeStat.from_image({"data": None}).data_length == 0
    assert NodeStat.from_image({}) == NodeStat(0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("bad", _REJECTED)
def test_a_rejection_is_never_remembered(bad):
    for _again in range(3):
        with pytest.raises(BadArgumentsError):
            validate_path(bad)
        with pytest.raises(BadArgumentsError):
            validate_path(bad, allow_root=False)


def test_root_accepted_as_a_target_is_still_not_writable():
    assert validate_path("/") is None
    assert validate_path("/") is None
    for _again in range(2):
        with pytest.raises(BadArgumentsError):
            validate_path("/", allow_root=False)
    assert validate_path("/") is None


def test_the_memo_is_bounded():
    bound = validate_path.cache_info().maxsize
    assert bound and bound <= 4096
    for i in range(10 * bound):
        validate_path(f"/bound/n{i}")
    assert validate_path.cache_info().currsize <= bound
    with pytest.raises(BadArgumentsError):  # still checking, not just recalling
        validate_path("/bound/n1/")


def test_a_recreated_path_needs_no_invalidation(client):
    """The verdict is a function of the string alone: what the tree holds
    at the path — nothing, a node, a node again — never enters it."""
    for _round in range(2):
        client.create("/again", b"x")
        assert client.get_data("/again")[0] == b"x"
        client.delete("/again")
        assert client.exists("/again") is None
    with pytest.raises(BadArgumentsError):
        client.create("/again/")
