"""Change-data-capture: stream every committed change to a JSON-lines feed.

Watches notify *connected* clients; the transactional outbox streams the
same committed changes to consumers that live outside the deployment —
audit pipelines, search indexers, downstream caches.  This demo deploys
FaaSKeeper with the outbox enabled, subscribes a callback that appends each
event to a JSON-lines file, drives a small configuration workload, and
tails the resulting CDC feed: one JSON object per committed event (txid,
path, op, session, commit timestamp), in txid order, delivered by the
publisher function the leader wakes after each batch it logs.

Because the publisher reads the events out of the commit log — the record
the write itself committed with — the feed can neither describe a change
that never happened nor miss one that did: the property an out-of-band
"poll and diff" pipeline cannot offer.

Run with::

    python examples/change_data_capture.py [--feed /tmp/fk_cdc.jsonl]
"""

import argparse
import json
import os
import tempfile

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--feed", default=None,
                        help="CDC feed path (default: a temp file)")
    args = parser.parse_args()
    feed = args.feed or os.path.join(tempfile.mkdtemp(prefix="fk_cdc_"),
                                     "changes.jsonl")

    cloud = Cloud.aws(seed=7)
    fk = FaaSKeeperService.deploy(cloud, FaaSKeeperConfig(
        commit_log_enabled=True,
        outbox_enabled=True,           # publisher runs as the log moves
    ))

    def append_line(event):
        with open(feed, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    feed_sink = fk.outbox.subscribe(append_line)

    # An ordinary configuration workload: nothing here knows the outbox
    # exists — streaming is a deployment concern, not a client one.
    admin = fk.connect()
    admin.create("/cluster", b"")
    admin.create("/cluster/config", b"flush_interval=60")
    admin.set_data("/cluster/config", b"flush_interval=30")
    admin.create("/cluster/feature-x", b"on")
    admin.delete("/cluster/feature-x")
    cloud.run(until=cloud.now + 5_000)   # let the last pass finish

    print(f"CDC feed: {feed}\n")
    with open(feed, encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            print(f"  txid={ev['txid']:>3}  {ev['op']:<10} {ev['path']:<22}"
                  f" session={ev['session']}")

    logged = fk.metrics.get("fk_log_appends_total").value
    lag = fk.metrics.get("fk_outbox_publish_lag_ms")
    print(f"\n{int(logged)} commits logged, "
          f"{len(feed_sink.delivered)} events delivered, "
          f"publish lag p50 = {lag.quantile(0.5):.0f} ms "
          f"(one queue trigger behind the commit)")
    admin.close()


if __name__ == "__main__":
    main()
