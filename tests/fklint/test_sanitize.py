"""Runtime-sanitizer tests: the FK002/FK003 assertions armed by
``FK_SANITIZE=1``, both as pure functions and wired through the
simulated kvstore."""

import pytest

from repro.cloud import Attr, Cloud, OpContext, Remove, Set
from repro.fklint import sanitize
from repro.fklint.sanitize import SanitizerError, check_mutation


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv("FK_SANITIZE", "1")


@pytest.fixture
def cloud():
    return Cloud.aws(seed=99)


@pytest.fixture
def ctx():
    return OpContext()


# ------------------------------------------------------- unit: enabled
def test_disarmed_by_default(monkeypatch):
    monkeypatch.delenv("FK_SANITIZE", raising=False)
    assert not sanitize.enabled()
    monkeypatch.setenv("FK_SANITIZE", "1")
    assert sanitize.enabled()


# ------------------------------------------------- unit: check_mutation
def test_fk002_rejects_direct_log_writes():
    for method in ("put_item", "update_item"):
        with pytest.raises(SanitizerError, match="FK002"):
            check_mutation(method, "fk-system-log", "k")


def test_fk002_has_one_table_defined_once():
    from repro.fklint.checkers import atomic_commit
    assert atomic_commit.APPEND_ONLY_TABLE is sanitize.APPEND_ONLY_TABLE
    assert sanitize.APPEND_ONLY_TABLE == "fk-system-log"


def test_fk002_allows_transactional_log_writes():
    check_mutation("update_item", "fk-system-log", "k", transactional=True)


def test_fk002_rejects_unconditional_log_delete():
    with pytest.raises(SanitizerError, match="FK002"):
        check_mutation("delete_item", "fk-system-log", "k")
    check_mutation("delete_item", "fk-system-log", "k",
                   condition=object())


def test_fk003_rejects_unguarded_watch_instance_remove():
    with pytest.raises(SanitizerError, match="FK003"):
        check_mutation("update_item", "fk-system-watches", "/a",
                       updates=[Remove("inst.exists")])


def test_fk003_allows_guarded_or_non_instance_updates():
    check_mutation("update_item", "fk-system-watches", "/a",
                   updates=[Remove("inst.exists")], condition=object())
    check_mutation("update_item", "fk-system-watches", "/a",
                   updates=[Remove("pending")])
    check_mutation("update_item", "fk-user-nodes", "/a",
                   updates=[Remove("inst.exists")])


def test_fk003_applies_inside_transactions_too():
    with pytest.raises(SanitizerError, match="FK003"):
        check_mutation("update_item", "fk-system-watches", "/a",
                       updates=[Remove("inst.data")], transactional=True)


# --------------------------------------------- integration: the kvstore
def test_armed_kvstore_rejects_direct_log_put(armed, cloud, ctx):
    kv = cloud.kv()
    kv.create_table("fk-system-log")

    def flow():
        yield from kv.put_item(ctx, "fk-system-log", "txid-1", {"t": 1})

    with pytest.raises(SanitizerError, match="FK002"):
        cloud.run_process(flow())


def test_armed_kvstore_accepts_the_commit_transaction(armed, cloud, ctx):
    kv = cloud.kv()
    kv.create_table("fk-system-log")
    kv.create_table("fk-system-state")

    def flow():
        images = yield from kv.transact_update(ctx, [
            ("fk-system-log", "txid-1", [Set("t", 1)], None),
            ("fk-system-state", "log:head", [Set("s0", 1)], None),
        ])
        return images

    assert len(cloud.run_process(flow())) == 2


def test_armed_kvstore_rejects_unguarded_watch_sweep(armed, cloud, ctx):
    kv = cloud.kv()
    kv.create_table("fk-system-watches")

    def set_up():
        yield from kv.put_item(ctx, "fk-system-watches", "/a",
                               {"inst": {"id": 7}})

    cloud.run_process(set_up())

    def sweep():
        yield from kv.update_item(ctx, "fk-system-watches", "/a",
                                  [Remove("inst")])

    with pytest.raises(SanitizerError, match="FK003"):
        cloud.run_process(sweep())

    def guarded_sweep():
        yield from kv.update_item(ctx, "fk-system-watches", "/a",
                                  [Remove("inst")],
                                  condition=Attr("inst").exists())

    cloud.run_process(guarded_sweep())


def test_disarmed_kvstore_does_not_intercept(monkeypatch, cloud, ctx):
    monkeypatch.delenv("FK_SANITIZE", raising=False)
    kv = cloud.kv()
    kv.create_table("fk-system-log")

    def flow():
        yield from kv.put_item(ctx, "fk-system-log", "txid-1", {"t": 1})

    cloud.run_process(flow())  # discipline unchecked when disarmed


def test_sanitized_service_runs_a_real_workload(armed):
    """End-to-end: a whole FaaSKeeper deployment under FK_SANITIZE=1 —
    create/set/get/delete plus a watch consume — trips nothing."""
    from repro.faaskeeper import FaaSKeeperService

    service = FaaSKeeperService.deploy(Cloud.aws(seed=7))
    client = service.connect()
    client.create("/job", b"v0")
    fired = []
    client.get_data("/job", watch=fired.append)
    client.set_data("/job", b"v1")
    data, _stat = client.get_data("/job")
    assert data == b"v1"
    client.delete("/job")
    assert fired  # the watch pipeline ran under the sanitizer
