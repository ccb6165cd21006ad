"""ACL tests (Section 4.4): write permissions enforced by functions, read
permissions at the storage boundary."""

import pytest

from repro.faaskeeper import AccessDeniedError
from repro.faaskeeper.layout import SYSTEM_NODES
from repro.faaskeeper.model import OPEN_ACL, acl_allows
from repro.faaskeeper.userstore import BACKENDS
from .conftest import make_service


def test_acl_allows_semantics():
    assert acl_allows(None, "write", "s1")            # no ACL = open
    assert acl_allows(OPEN_ACL, "read", "anyone")
    acl = {"write": ["s1"], "read": ["world"]}
    assert acl_allows(acl, "write", "s1")
    assert not acl_allows(acl, "write", "s2")
    assert acl_allows(acl, "read", "s2")
    assert not acl_allows(acl, "delete", "s2")        # unlisted perm = denied


def test_owner_only_write():
    cloud, service = make_service(seed=300)
    owner = service.connect()
    other = service.connect()
    acl = {"read": ["world"], "write": [owner.session_id],
           "delete": [owner.session_id], "create": ["world"]}
    owner.create("/protected", b"v0", acl=acl)

    owner.set_data("/protected", b"v1")  # owner may write
    with pytest.raises(AccessDeniedError):
        other.set_data("/protected", b"x")
    data, _ = other.get_data("/protected")  # world-readable
    assert data == b"v1"


def test_read_denied_at_storage():
    cloud, service = make_service(seed=301)
    owner = service.connect()
    other = service.connect()
    acl = {"read": [owner.session_id], "write": [owner.session_id],
           "delete": [owner.session_id], "create": []}
    owner.create("/secret", b"classified", acl=acl)
    assert owner.get_data("/secret")[0] == b"classified"
    with pytest.raises(AccessDeniedError):
        other.get_data("/secret")
    with pytest.raises(AccessDeniedError):
        other.exists("/secret")


def test_delete_permission():
    cloud, service = make_service(seed=302)
    owner = service.connect()
    other = service.connect()
    acl = {"read": ["world"], "write": ["world"],
           "delete": [owner.session_id], "create": ["world"]}
    owner.create("/node", b"", acl=acl)
    with pytest.raises(AccessDeniedError):
        other.delete("/node")
    owner.delete("/node")
    assert owner.exists("/node") is None


def test_create_permission_on_parent():
    cloud, service = make_service(seed=303)
    owner = service.connect()
    other = service.connect()
    acl = {"read": ["world"], "write": ["world"],
           "delete": ["world"], "create": [owner.session_id]}
    owner.create("/dir", b"", acl=acl)
    owner.create("/dir/mine")
    with pytest.raises(AccessDeniedError):
        other.create("/dir/theirs")
    assert other.get_children("/dir") == ["mine"]


def test_acl_survives_set_data():
    cloud, service = make_service(seed=304)
    owner = service.connect()
    other = service.connect()
    acl = {"read": ["world"], "write": [owner.session_id],
           "delete": ["world"], "create": ["world"]}
    owner.create("/node", b"v0", acl=acl)
    owner.set_data("/node", b"v1")
    with pytest.raises(AccessDeniedError):
        other.set_data("/node", b"x")  # still protected after the write
    assert owner.get_acl("/node")["write"] == [owner.session_id]


def test_get_acl_open_node():
    cloud, service = make_service(seed=305)
    c = service.connect()
    c.create("/open", b"")
    assert c.get_acl("/open") is None


def test_get_acl_validates_like_other_reads():
    """get_acl rides the same read pipeline as get_data/exists: closed
    sessions and malformed paths are rejected client-side."""
    from repro.faaskeeper import BadArgumentsError, SessionClosedError

    cloud, service = make_service(seed=306)
    c = service.connect()
    c.create("/n", b"")
    with pytest.raises(BadArgumentsError):
        c.get_acl("no-leading-slash")
    with pytest.raises(BadArgumentsError):
        c.get_acl("/n/")
    assert c.get_acl_async("/n").wait() is None  # async variant, aligned
    c.close()
    with pytest.raises(SessionClosedError):
        c.get_acl("/n")


def _owner_only(session_id):
    return {perm: [session_id] for perm in ("read", "write", "create", "delete")}


@pytest.mark.parametrize("store", sorted(BACKENDS))
def test_a_child_create_or_delete_keeps_the_parent_acl(store):
    """A create/delete rewrites its parent's user-store metadata (child
    list, cversion); the rewrite must carry the parent's ACL, or the
    protected parent becomes readable by anyone."""
    cloud, service = make_service(seed=7, user_store=store)
    owner = service.connect()
    other = service.connect()
    acl = _owner_only(owner.session_id)
    owner.create("/secret", b"s3cr3t", acl=acl)
    with pytest.raises(AccessDeniedError):
        other.get_data("/secret")
    for change in (lambda: owner.create("/secret/child"),
                   lambda: owner.delete("/secret/child")):
        change()
        cloud.run(until=cloud.now + 1_000)
        with pytest.raises(AccessDeniedError):
            other.get_data("/secret")
        assert owner.get_acl("/secret") == acl
        for region in service.config.regions:
            assert service.user_store.peek(region, "/secret")["acl"] == acl


def test_a_recreated_node_drops_its_old_acl():
    """Deleting a node leaves a tombstone, which the GC stage collects
    ``TOMBSTONE_GRACE_MS`` after the leader pops the delete; re-creating
    the node inside that grace period without an ACL must not inherit the
    tombstone's ACL in the system store."""
    cloud, service = make_service(seed=7)
    owner = service.connect()
    other = service.connect()
    owner.create("/n", b"v0", acl=_owner_only(owner.session_id))
    owner.delete("/n")
    owner.create("/n", b"v1")
    other.set_data("/n", b"v2")  # open again: anyone may write
    assert other.get_data("/n")[0] == b"v2"
    assert other.get_acl("/n") is None
    assert "acl" not in service.system_store.table(SYSTEM_NODES).raw("/n")
