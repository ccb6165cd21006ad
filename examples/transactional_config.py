"""Atomic configuration swap with ``transaction()`` (ZooKeeper's multi).

A deployment pipeline promotes a staged configuration to production: the
new primary and secondary configs must flip together, the staging marker
must disappear, and the swap must be guarded against a concurrent deploy
(version check on the release pointer).  A crash or race between four
separate writes would leave the cluster half-configured; one atomic
transaction cannot — either every member op commits under one transaction
id, or none do and the per-op errors say why.

The demo performs one successful swap, then shows a conflicting deploy
being rolled back wholesale, and compares the queue/invocation traffic of
the transaction against the equivalent sequence of single writes.
"""

from repro.cloud import Cloud
from repro.faaskeeper import (
    BadVersionError,
    FaaSKeeperConfig,
    FaaSKeeperService,
    RolledBackError,
)


def main() -> None:
    cloud = Cloud.aws(seed=23)
    fk = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig())
    deployer = fk.connect()

    # Bootstrap: production config v1 is live, v2 sits in staging.
    deployer.create("/cfg", b"")
    deployer.create("/cfg/release", b"v1")           # version-checked pointer
    deployer.create("/cfg/primary", b"primary-v1")
    deployer.create("/cfg/secondary", b"secondary-v1")
    deployer.create("/cfg/staging", b"v2-candidate")
    release_version = deployer.get_data("/cfg/release")[1].version

    # A watcher (e.g. the serving fleet) observes the release pointer.
    events = []
    observer = fk.connect()
    observer.get_data("/cfg/release", watch=events.append)

    # --- the atomic swap ------------------------------------------------
    with deployer.transaction() as txn:
        txn.check("/cfg/release", version=release_version)
        txn.set_data("/cfg/release", b"v2")
        txn.set_data("/cfg/primary", b"primary-v2")
        txn.set_data("/cfg/secondary", b"secondary-v2")
        txn.delete("/cfg/staging")
    cloud.run(until=cloud.now + 5_000)

    primary = deployer.get_data("/cfg/primary")[0].decode()
    secondary = deployer.get_data("/cfg/secondary")[0].decode()
    staging = deployer.exists("/cfg/staging")
    assert (primary, secondary, staging) == ("primary-v2", "secondary-v2", None)
    assert len(events) == 1, "one transaction, one release notification"
    print(f"committed atomically: primary={primary} secondary={secondary} "
          f"staging removed, release watch fired once (txid {events[0].txid})")

    # --- a conflicting deploy is rolled back wholesale ------------------
    rival = fk.connect()
    results = (rival.transaction()
               .check("/cfg/release", version=release_version)  # stale!
               .set_data("/cfg/primary", b"primary-rogue")
               .delete("/cfg/secondary")
               .commit())
    assert isinstance(results[0], BadVersionError)
    assert all(isinstance(r, RolledBackError) for r in results[1:])
    assert deployer.get_data("/cfg/primary")[0] == b"primary-v2"
    assert deployer.exists("/cfg/secondary") is not None
    print("conflicting deploy rolled back: "
          + ", ".join(type(r).__name__ for r in results))

    # --- why it is also cheaper -----------------------------------------
    # The 5-op transaction rode ONE session-queue message and ONE leader
    # invocation; five single writes pay five of each (the per-invocation
    # cost the paper's Section 5.3 model is built around).
    queue_sends = sum(q.sent for q in fk._session_queues.values())
    leader_msgs = fk.leader_queues[0].sent
    print(f"traffic so far: {queue_sends} session-queue messages, "
          f"{leader_msgs} leader messages for "
          f"{5 + 5 + 2} logical write ops")
    print(f"simulated cost of this demo: ${cloud.meter.total:.6f}")


if __name__ == "__main__":
    main()
