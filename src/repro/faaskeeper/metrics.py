"""Prometheus-style metrics registry: first-class observability.

One registry per deployment answers "what is this deployment doing?" in
the Prometheus data model (Counter / Gauge / Histogram with fixed buckets,
each optionally labelled):

* stage logics increment registry counters, and the registry is the one
  way to read them: ``service.metrics.get(name)[.labels(...)].value``;
* every deployed function's timing segments (``fctx.record``) feed one
  labelled histogram via the runtime's ``on_segment`` probe — the data
  behind Figure 10 / Table 3 per stage, and their only record here;
* values that already live elsewhere (the cost meter, per-session cache
  counters, function invocation counts) are exposed through *callback*
  metrics (:meth:`_Child.set_function`) sampled at snapshot time, the
  same device as a Prometheus collector;
* ``service.metrics_snapshot()`` returns the whole registry as one
  stable, JSON-able dict and ``service.metrics_text()`` renders the
  Prometheus text exposition format.

Metrics are pure Python bookkeeping: no simulated latency, no RNG draws,
no billed traffic — instrumenting a pipeline cannot change its
fingerprint, which is what lets the registry ride inside the
bit-for-bit-gated default deployment.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Type, TypeVar, cast)

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram",
           "DEFAULT_BUCKETS"]

#: Default histogram buckets (ms-scale latencies; +Inf is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0)


def _label_key(labelnames: Sequence[str], labelvalues: Sequence[Any]) -> str:
    """Stable string key for one label combination (Prometheus inner
    syntax: ``a="1",b="x"``; empty string for unlabelled metrics)."""
    return ",".join(f'{n}="{v}"' for n, v in zip(labelnames, labelvalues))


class _Child:
    """One (metric, label combination): holds the actual value.

    ``set_function`` turns the child into a callback metric: its value is
    computed by ``fn()`` at read time instead of being stored — used to
    expose counters maintained elsewhere (the cost meter, per-session
    caches, the function runtime) without double bookkeeping.
    """

    __slots__ = ("_value", "_fn", "_sum", "_count", "_bucket_counts",
                 "_buckets")

    def __init__(self, buckets: Optional[Tuple[float, ...]] = None) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._buckets = buckets
        if buckets is not None:
            self._sum = 0.0
            self._count = 0
            self._bucket_counts = [0] * (len(buckets) + 1)  # + [+Inf]

    # ------------------------------------------------------------ scalar
    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def set_function(self, fn: Callable[[], float]) -> "_Child":
        self._fn = fn
        return self

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set(self, value: float) -> None:
        self._value = float(value)

    # ------------------------------------------------------------ histogram
    def observe(self, value: float) -> None:
        assert self._buckets is not None, "observe() on a non-histogram"
        self._sum += value
        self._count += 1
        # First bucket whose bound is >= value; past the last one: +Inf.
        self._bucket_counts[bisect_left(self._buckets, value)] += 1

    def histogram_snapshot(self) -> Dict[str, Any]:
        assert self._buckets is not None, "snapshot of a non-histogram"
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self._buckets, self._bucket_counts):
            running += count
            cumulative[_fmt_bound(bound)] = running
        cumulative["+Inf"] = self._count
        return {"count": self._count, "sum": self._sum,
                "buckets": cumulative}

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus
        ``histogram_quantile``): enough for p50/p99 bench assertions."""
        assert self._buckets is not None, "quantile of a non-histogram"
        if self._count == 0:
            return 0.0
        target = q * self._count
        running = 0
        lower = 0.0
        for bound, count in zip(self._buckets, self._bucket_counts):
            if running + count >= target:
                frac = (target - running) / count if count else 0.0
                return lower + (bound - lower) * frac
            running += count
            lower = bound
        return self._buckets[-1]


def _fmt_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class _Metric:
    """Base of the three metric kinds: name, help, labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = buckets
        self._children: Dict[Tuple[Any, ...], _Child] = {}
        if not self.labelnames:
            self._children[()] = _Child(buckets)

    # ------------------------------------------------------------ children
    def labels(self, *args: Any, **kwargs: Any) -> _Child:
        if args and kwargs:
            raise ValueError("pass label values positionally or by name")
        if kwargs:
            missing = set(self.labelnames) - set(kwargs)
            extra = set(kwargs) - set(self.labelnames)
            if missing or extra:
                raise ValueError(
                    f"{self.name}: labels {sorted(kwargs)} != "
                    f"declared {list(self.labelnames)}")
            values = tuple(kwargs[n] for n in self.labelnames)
        else:
            if len(args) != len(self.labelnames):
                raise ValueError(
                    f"{self.name}: expected {len(self.labelnames)} label "
                    f"values, got {len(args)}")
            values = tuple(args)
        child = self._children.get(values)
        if child is None:
            child = _Child(self._buckets)
            self._children[values] = child
        return child

    def items(self) -> Iterator[Tuple[Tuple[Any, ...], _Child]]:
        return iter(sorted(self._children.items(),
                           key=lambda kv: tuple(str(v) for v in kv[0])))

    # Unlabelled convenience passthroughs.
    def _solo(self) -> _Child:
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled: call .labels() first")
        return self._children[()]

    @property
    def value(self) -> float:
        return self._solo().value

    def set_function(self, fn: Callable[[], float]) -> "_Metric":
        self._solo().set_function(fn)
        return self

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        for labelvalues, child in self.items():
            key = _label_key(self.labelnames, labelvalues)
            if self._buckets is not None:
                values[key] = child.histogram_snapshot()
            else:
                values[key] = child.value
        return {"type": self.kind, "help": self.help, "values": values}

    def expose(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for labelvalues, child in self.items():
            inner = _label_key(self.labelnames, labelvalues)
            if self._buckets is None:
                label = f"{{{inner}}}" if inner else ""
                lines.append(f"{self.name}{label} {_fmt_value(child.value)}")
                continue
            snap = child.histogram_snapshot()
            sep = "," if inner else ""
            for bound, count in snap["buckets"].items():
                lines.append(
                    f'{self.name}_bucket{{{inner}{sep}le="{bound}"}} {count}')
            label = f"{{{inner}}}" if inner else ""
            lines.append(f"{self.name}_sum{label} {_fmt_value(snap['sum'])}")
            lines.append(f"{self.name}_count{label} {snap['count']}")
        return lines


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


M = TypeVar("M", bound=_Metric)


class Counter(_Metric):
    """Monotonically increasing count (resets only with the deployment)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)


class Gauge(_Metric):
    """A value that can go up and down (or be computed via callback)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo()._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)


class Histogram(_Metric):
    """Fixed-bucket distribution (cumulative counts + sum + count)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        super().__init__(name, help, labelnames, buckets=buckets)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def quantile(self, q: float) -> float:
        return self._solo().quantile(q)


class MetricsRegistry:
    """One deployment's metric namespace.

    Registration is idempotent: asking for an existing name returns the
    existing metric (so stage logics can declare their own metrics
    without coordinating), but re-registering with a different type,
    label set or bucket layout is an error — two writers disagreeing
    about a metric's shape is a bug, not a merge.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------ factories
    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, labelnames, buckets)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, Histogram) or \
                metric.labelnames != tuple(labelnames) or \
                metric._buckets != tuple(sorted(float(b) for b in buckets)):
            raise ValueError(f"metric {name!r} re-registered incompatibly")
        return metric

    def _register(self, cls: Type[M], name: str, help: str,
                  labelnames: Sequence[str]) -> M:
        metric = self._metrics.get(name)
        if metric is None:
            created = cls(name, help, labelnames)
            self._metrics[name] = created
            return created
        if type(metric) is not cls or metric.labelnames != tuple(labelnames):
            raise ValueError(f"metric {name!r} re-registered incompatibly")
        return cast(M, metric)

    # ------------------------------------------------------------ access
    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------ output
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The whole registry as one stable dict (sorted names, stable
        label keys) — the machine-readable side of ``/metrics``."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def expose(self) -> str:
        """Prometheus text exposition format (one scrape's worth)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].expose())
        return "\n".join(lines) + "\n"
