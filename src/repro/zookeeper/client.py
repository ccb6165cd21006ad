"""ZooKeeper client with the same surface as the FaaSKeeper client.

Benchmarks drive both systems through an identical API, so the comparison
figures (8, 9, 14) exercise the same call patterns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..faaskeeper.client import WriteResult
from ..faaskeeper.exceptions import (
    BadVersionError,
    NoChildrenForEphemeralsError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    SessionClosedError,
)
from ..faaskeeper.model import NodeStat, WatchType, validate_path
from .ensemble import ZooKeeperEnsemble

__all__ = ["ZooKeeperClient"]

_ERRORS = {
    "no_node": NoNodeError,
    "node_exists": NodeExistsError,
    "bad_version": BadVersionError,
    "not_empty": NotEmptyError,
    "no_children_for_ephemerals": NoChildrenForEphemeralsError,
}


class ZooKeeperClient:
    """Synchronous client bound to one session of the ensemble."""

    def __init__(self, ensemble: ZooKeeperEnsemble,
                 server_index: Optional[int] = None) -> None:
        self.ensemble = ensemble
        self.env = ensemble.env
        self.session = ensemble.open_session(server_index)
        self.watch_events: List = []
        self._heartbeating = True
        self.env.process(self._heartbeat_loop(),
                         name=f"zk-hb-{self.session.session_id}")

    # ------------------------------------------------------------ plumbing
    @property
    def session_id(self) -> str:
        return self.session.session_id

    @property
    def closed(self) -> bool:
        return self.session.expired

    def _heartbeat_loop(self):
        period = self.ensemble.session_timeout_ms / 3.0
        while self._heartbeating and not self.session.expired:
            self.ensemble.heartbeat(self.session_id)
            yield self.env.timeout(period)

    def stop_heartbeats(self) -> None:
        """Simulate a client failure (the session will expire); the loop
        ends at its next wake."""
        self._heartbeating = False

    def _run(self, generator) -> Any:
        proc = self.env.process(generator)
        return self.env.run(until=proc)

    def _check_open(self) -> None:
        if self.session.expired:
            raise SessionClosedError(self.session_id)

    # ------------------------------------------------------------ writes
    def _write(self, op: str, path: str, **kwargs) -> Tuple[str, Any]:
        self._check_open()
        validate_path(path, allow_root=False)

        def flow():
            return (yield from self.ensemble.submit_write(
                op, path, session=self.session, **kwargs))

        error, txn = self._run(flow())
        if error != "ok":
            raise _ERRORS[error](f"{op} {path}: {error}")
        return error, txn

    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequence: bool = False) -> str:
        _, txn = self._write("create", path, data=bytes(data),
                             ephemeral=ephemeral, sequence=sequence)
        return txn.path

    def set_data(self, path: str, data: bytes, version: int = -1) -> WriteResult:
        _, txn = self._write("set_data", path, data=bytes(data), version=version)
        node = self.ensemble.leader.tree[path]
        return WriteResult(path=path, txid=txn.zxid, version=node["version"])

    def delete(self, path: str, version: int = -1) -> None:
        self._write("delete", path, version=version)

    # ------------------------------------------------------------ reads
    def _read(self, path: str, wtype: Optional[WatchType],
              watch: Optional[Callable]) -> Optional[Dict[str, Any]]:
        self._check_open()
        validate_path(path)
        if watch is not None and wtype is not None:
            def tracked(event):
                self.watch_events.append(event)
                watch(event)
            self.session.server.register_watch(path, wtype, self.session_id, tracked)
        return self._run(self.ensemble.read(self.session, path))

    def get_data(self, path: str, watch: Optional[Callable] = None
                 ) -> Tuple[bytes, NodeStat]:
        image = self._read(path, WatchType.DATA, watch)
        if image is None:
            raise NoNodeError(path)
        return image["data"], NodeStat.from_image(image)

    def exists(self, path: str, watch: Optional[Callable] = None
               ) -> Optional[NodeStat]:
        image = self._read(path, WatchType.EXISTS, watch)
        if image is None:
            return None
        return NodeStat.from_image(image)

    def get_children(self, path: str, watch: Optional[Callable] = None
                     ) -> List[str]:
        image = self._read(path, WatchType.CHILDREN, watch)
        if image is None:
            raise NoNodeError(path)
        return sorted(image["children"])

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self.session.expired:
            return
        self.stop_heartbeats()
        self._run(self.ensemble.close_session(self.session))

    def __enter__(self) -> "ZooKeeperClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
