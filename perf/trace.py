"""Wall-clock layer bucketer for traced benchmark runs.

A ``sys.setprofile`` hook keeps, per Python frame, the *layer* it runs in:
the module file under ``src/repro`` (``cloud/kvstore.py`` is layer
``cloud.kvstore``) or ``driver`` for the benchmark's own files.  Frames of
anything else (stdlib, builtins, C calls) inherit the layer of the repo frame
that called them, so ``copy.deepcopy`` is charged to the module that asked for
the copy.  Elapsed ``perf_counter`` time is charged at every layer switch to
the (parent layer -> layer) edge the current layer was entered through, and
function entries are counted per layer.  Nothing here touches the simulation:
a traced run replays the untraced run's virtual clock bit for bit.

The hook's own time lands on whichever layer is current, so layers made of
many small Python calls read somewhat larger than they are untraced; the
shares are for comparing a layer with itself across commits.
"""

from __future__ import annotations

import copy
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List

DRIVER = "driver"
_COPY_FILE = copy.__file__
_PERF_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_WIDTH = 1 << 12    # edge key = parent index * _WIDTH + layer index

#: Repo modules that generate load rather than serve it: their time is the
#: benchmark driver's.
_GENERATOR_MODULES = ("faaskeeper.swarm", "workloads.ycsb")


def layer_of(filename: str) -> str:
    """Layer name of a source file, or "" when the file inherits its caller's."""
    if filename.startswith(_PERF_DIR):
        return DRIVER
    _head, mark, tail = filename.rpartition(_REPRO_MARK)
    if not mark or not tail.endswith(".py"):
        return ""
    name = tail[:-3].replace(os.sep, ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return DRIVER if name in _GENERATOR_MODULES else name


class LayerTracer:
    """Buckets wall time and call counts by layer between start() and stop().

    ``virtual_now`` reads the simulation clock; it is called only while raw
    spans are being kept, that is while ``op_id < span_ops``.  The load
    generator sets ``op_id`` to the index of the operation it last submitted,
    so with concurrent sessions a span carries the latest operation submitted
    before it began, which need not be the one that caused it.
    """

    def __init__(self, virtual_now: Callable[[], float], span_ops: int = 200,
                 max_spans: int = 50_000) -> None:
        self.virtual_now = virtual_now
        self.span_ops = span_ops
        self.max_spans = max_spans
        self.op_id = 0
        self.names: List[str] = [DRIVER]
        self.calls: List[int] = [0]
        self.deepcopies: List[int] = [0]
        self.kernel_steps = 0
        #: edge key -> [crossing calls, self seconds]; key 0 is the root.
        self.edges: Dict[int, List[Any]] = {0: [0, 0.0]}
        #: name, wall start, wall end, virtual start, virtual end, parent, op
        self.spans: List[List[Any]] = []
        self.wall_s = 0.0
        self._started = 0.0
        self._finish: Callable[[], None] = lambda: None

    def start(self) -> None:
        file_layer: Dict[str, int] = {}
        names, calls, deepcopies, edges = (
            self.names, self.calls, self.deepcopies, self.edges)
        spans, virtual_now = self.spans, self.virtual_now
        span_ops, max_spans = self.span_ops, self.max_spans
        tracer = self
        #: One entry per live frame: 0 when the frame stayed in its caller's
        #: layer, else what to restore: (edge key, layer, cell, span index).
        stack: List[Any] = []
        open_spans: List[int] = [-1]
        kernel = -1
        cur_key, cur_layer, cur_cell = 0, 0, edges[0]
        last = perf_counter()

        def classify(filename: str) -> int:
            nonlocal kernel
            if filename == _COPY_FILE:
                index = -2
            else:
                name = layer_of(filename)
                if not name:
                    index = -1
                elif name in names:
                    index = names.index(name)
                else:
                    index = len(names)
                    names.append(name)
                    calls.append(0)
                    deepcopies.append(0)
                    if name == "sim.kernel":
                        kernel = index
            file_layer[filename] = index
            return index

        def hook(frame, event, arg):
            nonlocal cur_key, cur_layer, cur_cell, last
            if event == "call":
                code = frame.f_code
                filename = code.co_filename
                layer = file_layer.get(filename)
                if layer is None:
                    layer = classify(filename)
                if layer < 0:
                    stack.append(0)
                    if (layer == -2 and code.co_name == "deepcopy"
                            and frame.f_back.f_code.co_filename != filename):
                        deepcopies[cur_layer] += 1
                    return
                calls[layer] += 1
                if layer == kernel and code.co_name == "step":
                    tracer.kernel_steps += 1
                if layer == cur_layer:
                    stack.append(0)
                    return
                now = perf_counter()
                cur_cell[1] += now - last
                last = now
                span = -1
                if tracer.op_id < span_ops and len(spans) < max_spans:
                    span = len(spans)
                    spans.append([f"{names[layer]}:{code.co_name}", now, now,
                                  virtual_now(), 0.0, open_spans[-1],
                                  tracer.op_id])
                    open_spans.append(span)
                stack.append((cur_key, cur_layer, cur_cell, span))
                cur_key = cur_layer * _WIDTH + layer
                cur_layer = layer
                cur_cell = edges.get(cur_key)
                if cur_cell is None:
                    cur_cell = edges[cur_key] = [0, 0.0]
                cur_cell[0] += 1
            elif event == "return" and stack:
                saved = stack.pop()
                if saved:
                    now = perf_counter()
                    cur_cell[1] += now - last
                    last = now
                    cur_key, cur_layer, cur_cell, span = saved
                    if span >= 0:
                        open_spans.pop()
                        spans[span][2] = now
                        spans[span][4] = virtual_now()

        started = self._started = last

        def finish() -> None:
            now = perf_counter()
            cur_cell[1] += now - last
            tracer.wall_s = now - started

        self._finish = finish
        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)
        self._finish()

    # --------------------------------------------------------------- results
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, function entries, deepcopies requested."""
        out = {name: {"self_s": 0.0, "calls": self.calls[i],
                      "deepcopies": self.deepcopies[i]}
               for i, name in enumerate(self.names)}
        for key, (_count, self_s) in self.edges.items():
            out[self.names[key % _WIDTH]]["self_s"] += self_s
        return out

    def edge_table(self) -> List[Dict[str, Any]]:
        return [{"parent": self.names[key // _WIDTH],
                 "layer": self.names[key % _WIDTH],
                 "calls": count, "self_s": self_s}
                for key, (count, self_s) in sorted(self.edges.items())]

    def chrome_trace(self) -> Dict[str, Any]:
        """The raw spans in Chrome-trace form (chrome://tracing, Perfetto);
        ``ts`` and ``dur`` are wall microseconds since start()."""
        events = []
        for index, (name, w0, w1, v0, v1, parent, op) in enumerate(self.spans):
            events.append({
                "name": name, "cat": name.partition(":")[0], "ph": "X",
                "pid": 0, "tid": 0,
                "ts": round((w0 - self._started) * 1e6, 3),
                "dur": round((w1 - w0) * 1e6, 3),
                "args": {"id": index, "parent": parent, "op": op,
                         "virtual_start_ms": v0, "virtual_end_ms": v1},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
