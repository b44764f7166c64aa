"""Metrics: counters, gauges, and histograms.

A dependency-free metrics registry in the style of Prometheus clients.
The full node updates it after every epoch (when given one); snapshots
serialise to plain dicts/JSON for dashboards or test assertions, and
:func:`repro.obs.prom.render_prometheus` renders the whole registry in
the Prometheus text exposition format.

Metrics may carry **labels** (``registry.counter("aborts", labels={
"reason": "doomed_reorder"})``): each (name, label-set) pair is its own
time series inside one typed family, exactly like Prometheus client
libraries.  Unlabelled usage is unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Type, TypeVar, Union

from repro.analysis.metrics import percentile
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.node.phases import EpochReport


class MetricsError(ReproError):
    """Metric misuse (wrong type for an existing name)."""


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise MetricsError("counters cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move in both directions."""

    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def add(self, amount: float) -> None:
        """Adjust the current value."""
        self.value += amount


@dataclass
class Histogram:
    """Sample distribution with simple summary statistics.

    A running sum is maintained alongside the capped sample ring, so
    ``total``/``mean`` are O(1) instead of re-summing every retained
    sample per call; evicted samples are subtracted as they drop out.
    ``observed_count``/``observed_sum`` accumulate over *every*
    observation ever made (never reset by eviction) — the cumulative
    semantics Prometheus expects from ``_count``/``_sum``.
    """

    samples: list[float] = field(default_factory=list)
    max_samples: int = 10_000
    observed_count: int = 0
    observed_sum: float = 0.0
    _retained_sum: float = field(default=0.0, repr=False)

    def observe(self, value: float) -> None:
        """Record one sample (oldest samples are dropped past the cap)."""
        self.samples.append(value)
        self._retained_sum += value
        self.observed_count += 1
        self.observed_sum += value
        if len(self.samples) > self.max_samples:
            excess = len(self.samples) - self.max_samples
            for dropped in self.samples[:excess]:
                self._retained_sum -= dropped
            del self.samples[:excess]

    @property
    def count(self) -> int:
        """Number of retained samples."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of retained samples (O(1): tracked on observe/evict)."""
        return self._retained_sum

    @property
    def mean(self) -> float:
        """Mean of retained samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Linear-interpolated quantile of retained samples."""
        return percentile(sorted(self.samples), fraction)

    def summary(self) -> dict[str, float]:
        """count / mean / p50 / p95 / max (one sort for all quantiles)."""
        ordered = sorted(self.samples)
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "max": ordered[-1] if ordered else 0.0,
        }


Metric = Union[Counter, Gauge, Histogram]
MetricT = TypeVar("MetricT", Counter, Gauge, Histogram)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Named metric registry with typed accessors and optional labels."""

    def __init__(self) -> None:
        self._kinds: dict[str, type] = {}
        self._families: dict[str, dict[LabelKey, Metric]] = {}

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Counter:
        """Get or create a counter series."""
        return self._typed(name, Counter, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        """Get or create a gauge series."""
        return self._typed(name, Gauge, labels)

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Histogram:
        """Get or create a histogram series."""
        return self._typed(name, Histogram, labels)

    def _typed(
        self,
        name: str,
        kind: Type[MetricT],
        labels: Mapping[str, str] | None = None,
    ) -> MetricT:
        existing_kind = self._kinds.get(name)
        if existing_kind is not None and existing_kind is not kind:
            raise MetricsError(
                f"metric {name!r} is a {existing_kind.__name__}, not {kind.__name__}"
            )
        family = self._families.setdefault(name, {})
        self._kinds.setdefault(name, kind)
        key = _label_key(labels)
        metric = family.get(key)
        if metric is None:
            metric = kind()
            family[key] = metric
        assert isinstance(metric, kind)
        return metric

    def families(
        self,
    ) -> Iterator[tuple[str, type, list[tuple[dict[str, str], Metric]]]]:
        """Iterate metric families: (name, kind, [(labels, metric), ...]).

        Names ascend; within a family, label sets ascend — deterministic
        output for exporters and tests.
        """
        for name in sorted(self._families):
            series = [
                (dict(key), self._families[name][key])
                for key in sorted(self._families[name])
            ]
            yield name, self._kinds[name], series

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view of every series.

        Unlabelled series keep their bare name (backwards compatible);
        labelled series render as ``name{k="v",...}``.
        """
        out: dict[str, object] = {}
        for name in sorted(self._families):
            for key in sorted(self._families[name]):
                metric = self._families[name][key]
                series_name = _render_series_name(name, key)
                if isinstance(metric, Histogram):
                    out[series_name] = metric.summary()
                else:
                    out[series_name] = metric.value
        return out

    def to_json(self, indent: int | None = None) -> str:
        """JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __len__(self) -> int:
        return sum(len(family) for family in self._families.values())


def record_epoch(metrics: MetricsRegistry, report: "EpochReport") -> None:
    """Fold one :class:`~repro.node.phases.EpochReport` into the registry."""
    metrics.counter("epochs_total").inc()
    metrics.counter("epochs_by_scheme_total", labels={"scheme": report.scheme}).inc()
    metrics.counter("txns_input_total").inc(report.input_transactions)
    metrics.counter("txns_committed_total").inc(report.committed)
    metrics.counter("txns_aborted_total").inc(report.aborted)
    metrics.counter("txns_failed_simulation_total").inc(report.failed_simulation)
    for reason, count in sorted(report.abort_reasons.items()):
        metrics.counter(
            "txns_abort_reason_total", labels={"reason": reason}
        ).inc(count)
    if report.revived:
        metrics.counter("txns_revived_total").inc(report.revived)
    if report.delta_commuted:
        metrics.counter("txns_delta_commuted_total").inc(report.delta_commuted)
    metrics.gauge("last_epoch_index").set(report.epoch_index)
    metrics.gauge("last_abort_rate").set(report.abort_rate)
    metrics.histogram("epoch_latency_seconds").observe(report.phases.total)
    for phase, seconds in sorted(report.phases.as_dict().items()):
        metrics.histogram(
            "phase_latency_seconds", labels={"phase": phase}
        ).observe(seconds)
    metrics.histogram("commit_group_count").observe(report.commit_group_count)
    if report.scheduler_failed:
        metrics.counter("scheduler_failures_total").inc()
