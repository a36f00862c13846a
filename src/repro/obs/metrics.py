"""A stdlib-only metrics registry: labeled counters, gauges and histograms.

The registry is the system's single source of numeric telemetry.  Three
metric kinds cover the serving tier's needs:

* :class:`Counter` — monotonically increasing event counts (requests served,
  cache hits, mutations applied), labeled so one family covers a dimension
  (``repro_requests_total{op="access", status="ok"}``).
* :class:`Gauge` — point-in-time values that move both ways (epoch lag,
  pending delta tuples, cached plan count).
* :class:`Histogram` — fixed-bucket latency/size distributions from which
  p50/p95/p99 are derivable without storing samples; buckets are cumulative
  in the Prometheus style, so scrapes can be aggregated across processes.

Concurrency contract: every mutation of a child's state happens under its
family's lock, so totals are **exact** under arbitrary thread interleaving
(the GIL alone does not make ``+=`` atomic).  The critical sections are a
handful of arithmetic operations — lock-cheap, not lock-free — and the whole
registry can be disabled (:meth:`MetricsRegistry.disable`), which turns every
record call into a single attribute check and an early return.

Exposition: :meth:`MetricsRegistry.render_prometheus` emits the text format
Prometheus scrapes (``# HELP`` / ``# TYPE`` / sample lines with escaped label
values); :meth:`MetricsRegistry.snapshot` emits the same state as a JSON-able
document for the ``/v1/metrics`` op and the ``repro metrics`` CLI.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond point lookups up to
#: multi-second cold builds.  Chosen once so every latency family aggregates.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelValues = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    """A Prometheus-compatible number: integral floats render without dot."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - defensive
        return "NaN"
    if value == int(value) and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(value)


def _render_labels(labelnames: Sequence[str], labelvalues: _LabelValues,
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile from cumulative bucket counts.

    ``bounds`` are the finite upper edges, ``counts`` the cumulative counts
    per bucket **including** the implicit ``+Inf`` bucket as the last entry.
    Linear interpolation within the owning bucket, the Prometheus
    ``histogram_quantile`` convention; returns ``None`` for an empty
    histogram.  Values above the largest finite bound clamp to it (there is
    no upper edge to interpolate toward).
    """
    total = counts[-1]
    if total <= 0:
        return None
    target = q * total
    previous_count = 0
    previous_bound = 0.0
    for bound, count in zip(bounds, counts):
        if count >= target:
            in_bucket = count - previous_count
            if in_bucket <= 0:  # pragma: no cover - defensive
                return bound
            fraction = (target - previous_count) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_count = count
        previous_bound = bound
    return bounds[-1] if bounds else None


class _Family:
    """Common machinery of one named metric family (all label combinations)."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str]) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[_LabelValues, object] = {}

    # -- shared helpers -------------------------------------------------
    def _values(self, labels: Sequence) -> _LabelValues:
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {len(labels)} value(s)"
            )
        # Hot paths pass tuples of strings; skip the generator for those.
        values = labels if type(labels) is tuple else tuple(labels)
        for value in values:
            if type(value) is not str:
                return tuple(str(v) for v in values)
        return values

    def clear(self) -> None:
        """Drop every child (label combination) of this family."""
        with self._lock:
            self._children.clear()

    def _items(self) -> List[Tuple[_LabelValues, object]]:
        with self._lock:
            return sorted(self._children.items())


class Counter(_Family):
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def inc(self, labels: Sequence = (), amount: int = 1) -> None:
        if not self._registry.enabled:
            return
        values = self._values(labels)
        with self._lock:
            self._children[values] = self._children.get(values, 0) + amount

    def bind(self, labels: Sequence) -> "_BoundCounter":
        """One label combination, validated now instead of on every ``inc``."""
        return _BoundCounter(self, self._values(labels))

    def value(self, labels: Sequence = ()) -> float:
        with self._lock:
            return self._children.get(self._values(labels), 0)

    def samples(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labelnames, values)} "
            f"{_format_number(count)}"
            for values, count in self._items()
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "values": [
                {"labels": dict(zip(self.labelnames, values)), "value": count}
                for values, count in self._items()
            ],
        }


class _Bound:
    """One child of a family, its labels validated once (at import) instead
    of on every record call — for series a hot path feeds per request.

    Writes go through the family's children map by key, so :meth:`_Family.
    clear` and the registry's enable switch keep working.
    """

    __slots__ = ("_family", "_values")

    def __init__(self, family: _Family, values: _LabelValues) -> None:
        self._family = family
        self._values = values


class _BoundCounter(_Bound):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        family = self._family
        if not family._registry.enabled:
            return
        with family._lock:
            children = family._children
            children[self._values] = children.get(self._values, 0) + amount


class Gauge(_Family):
    """A labeled point-in-time value (settable both ways)."""

    kind = "gauge"

    def set(self, value: float, labels: Sequence = ()) -> None:
        if not self._registry.enabled:
            return
        values = self._values(labels)
        with self._lock:
            self._children[values] = value

    def inc(self, labels: Sequence = (), amount: float = 1) -> None:
        if not self._registry.enabled:
            return
        values = self._values(labels)
        with self._lock:
            self._children[values] = self._children.get(values, 0) + amount

    def dec(self, labels: Sequence = (), amount: float = 1) -> None:
        self.inc(labels, -amount)

    def value(self, labels: Sequence = ()) -> float:
        with self._lock:
            return self._children.get(self._values(labels), 0)

    samples = Counter.samples
    to_dict = Counter.to_dict


class _HistogramChild:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # per-bucket (not cumulative)
        self.count = 0
        self.sum = 0.0


class Histogram(_Family):
    """A fixed-bucket distribution; cumulative buckets in exposition."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str],
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.bounds = bounds

    def bind(self, labels: Sequence) -> "_BoundHistogram":
        """One label combination, validated now instead of on every ``observe``."""
        return _BoundHistogram(self, self._values(labels))

    def observe(self, value: float, labels: Sequence = ()) -> None:
        if not self._registry.enabled:
            return
        self._observe(value, self._values(labels))

    def _observe(self, value: float, values: _LabelValues) -> None:
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._children[values] = _HistogramChild(len(self.bounds) + 1)
            # Linear scan beats bisect for ~14 buckets and observations
            # clustered in the low buckets (latencies usually are).
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    child.bucket_counts[i] += 1
                    break
            else:
                child.bucket_counts[-1] += 1
            child.count += 1
            child.sum += value

    # -- reads ----------------------------------------------------------
    def _cumulative(self, child: _HistogramChild) -> List[int]:
        cumulative: List[int] = []
        running = 0
        for count in child.bucket_counts:
            running += count
            cumulative.append(running)
        return cumulative

    def count(self, labels: Sequence = ()) -> int:
        with self._lock:
            child = self._children.get(self._values(labels))
            return child.count if child is not None else 0

    def sum(self, labels: Sequence = ()) -> float:
        with self._lock:
            child = self._children.get(self._values(labels))
            return child.sum if child is not None else 0.0

    def quantile(self, q: float, labels: Sequence = ()) -> Optional[float]:
        with self._lock:
            child = self._children.get(self._values(labels))
            if child is None:
                return None
            cumulative = self._cumulative(child)
        return quantile_from_buckets(self.bounds, cumulative, q)

    def samples(self) -> List[str]:
        lines: List[str] = []
        for values, child in self._items():
            cumulative = self._cumulative(child)
            for bound, count in zip(self.bounds, cumulative):
                le = _format_number(bound)
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(self.labelnames, values, (('le', le),))} "
                    f"{count}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.labelnames, values, (('le', '+Inf'),))} "
                f"{child.count}"
            )
            labels_text = _render_labels(self.labelnames, values)
            lines.append(f"{self.name}_sum{labels_text} {_format_number(child.sum)}")
            lines.append(f"{self.name}_count{labels_text} {child.count}")
        return lines

    def to_dict(self) -> Dict[str, object]:
        entries = []
        for values, child in self._items():
            cumulative = self._cumulative(child)
            entry = {
                "labels": dict(zip(self.labelnames, values)),
                "count": child.count,
                "sum": round(child.sum, 9),
                "buckets": {
                    _format_number(bound): count
                    for bound, count in zip(self.bounds, cumulative)
                },
            }
            for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                quantile = quantile_from_buckets(self.bounds, cumulative, q)
                entry[name] = round(quantile, 9) if quantile is not None else None
            entries.append(entry)
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "values": entries,
        }


class _BoundHistogram(_Bound):
    __slots__ = ()

    def observe(self, value: float) -> None:
        family = self._family
        if family._registry.enabled:
            family._observe(value, self._values)


class MetricsRegistry:
    """A named collection of metric families, with one global default.

    Families are created idempotently: asking twice for the same name returns
    the same family (and validates that kind and label names agree, so two
    modules cannot silently split one series).  ``enabled`` gates every
    write; reads and rendering work either way.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every family's children (families themselves persist)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.clear()

    # -- family constructors -------------------------------------------
    def _family(self, cls, name: str, help: str, labelnames: Sequence[str],
                **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = cls(self, name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str, labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._family(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    # -- exposition -----------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text-exposition document (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family.samples())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """The registry as a JSON-able document (the ``/v1/metrics`` shape)."""
        return {family.name: family.to_dict() for family in self.families()}


def render_snapshot_prometheus(snapshot: Mapping[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document as exposition text.

    This is how the master aggregates *worker* registries at ``GET /metrics``:
    each worker ships its snapshot (a plain JSON document) over its pipe, and
    the master renders the documents after its own registry.  Worker family
    names are disjoint from the master's (``repro_pool_worker_*``), so simple
    concatenation yields a valid exposition document.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if not isinstance(family, Mapping):
            continue
        kind = family.get("type", "untyped")
        labelnames = list(family.get("labels", ()))
        lines.append(f"# HELP {name} {family.get('help', '')}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family.get("values", ()):
            labels = entry.get("labels", {})
            values = tuple(str(labels.get(label, "")) for label in labelnames)
            if kind == "histogram":
                for le, count in entry.get("buckets", {}).items():
                    rendered = _render_labels(labelnames, values, (("le", le),))
                    lines.append(f"{name}_bucket{rendered} {count}")
                rendered = _render_labels(labelnames, values, (("le", "+Inf"),))
                lines.append(f"{name}_bucket{rendered} {entry.get('count', 0)}")
                text = _render_labels(labelnames, values)
                lines.append(f"{name}_sum{text} {_format_number(entry.get('sum', 0))}")
                lines.append(f"{name}_count{text} {entry.get('count', 0)}")
            else:
                text = _render_labels(labelnames, values)
                lines.append(f"{name}{text} {_format_number(entry.get('value', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def merge_label_filters(
    snapshot: Mapping[str, object], names: Iterable[str]
) -> Dict[str, object]:
    """The snapshot restricted to the given family names (CLI convenience)."""
    wanted = set(names)
    return {name: doc for name, doc in snapshot.items() if name in wanted}
