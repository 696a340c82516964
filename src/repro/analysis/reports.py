"""Plain-text report formatting for trace analyses.

The paper's collector feeds an operator who reads tables; these helpers
render them from span forests and the pipeline's own metric registry.
Everything returns strings so the CLI and the examples can print or log
them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.obs.registry import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sampler import StatsSampler
    from repro.tracing.spans import SpanForest


def format_ns(value_ns: float) -> str:
    """Human-scale time: ns / us / ms picked by magnitude."""
    if value_ns >= 1e6:
        return f"{value_ns / 1e6:.2f} ms"
    if value_ns >= 1e3:
        return f"{value_ns / 1e3:.2f} us"
    return f"{value_ns:.0f} ns"


def _table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), separator] + [line(row) for row in rows])


def hop_stats_table(forest: "SpanForest") -> str:
    """Per-hop percentile table across every tree in a span forest:
    the critical-path analyzer's p50/p95/p99 view (docs/TIMELINES.md)."""
    from repro.tracing.critical import aggregate_hops

    rows = []
    for stats in aggregate_hops(forest):
        rows.append(
            [
                stats.name,
                stats.kind,
                stats.count,
                format_ns(stats.avg_ns),
                format_ns(stats.p50_ns),
                format_ns(stats.p95_ns),
                format_ns(stats.p99_ns),
                format_ns(stats.max_ns),
            ]
        )
    return _table(["hop", "kind", "n", "avg", "p50", "p95", "p99", "max"], rows)


def anomaly_table(forest: "SpanForest", factor: float = 3.0) -> str:
    """Spans exceeding ``factor`` x their hop's flow median, worst first."""
    from repro.tracing.critical import flag_anomalies

    anomalies = flag_anomalies(forest, factor=factor)
    if not anomalies:
        return f"no spans above {factor:g}x their hop median"
    rows = [
        [
            f"0x{a.trace_id:08x}",
            a.name,
            format_ns(a.duration_ns),
            format_ns(a.median_ns),
            f"{a.ratio:.1f}x",
        ]
        for a in anomalies
    ]
    return _table(["trace", "hop", "duration", "flow median", "ratio"], rows)


def pipeline_health_table(registry: MetricsRegistry) -> str:
    """One row per exported metric, grouped by pipeline stage.

    Counters and gauges show their across-labels total; histograms show
    observation count and mean.  This is the human-readable face of the
    contract in ``docs/OBSERVABILITY.md``.
    """
    rows: List[Sequence[str]] = []
    for metric in registry.metrics():
        spec = metric.spec
        if isinstance(metric, Histogram):
            count = int(metric.total())
            total_sum = sum(data.sum for _, data in metric.samples())
            value = f"n={count} avg={total_sum / count:.1f}" if count else "n=0"
        else:
            total = metric.total()
            value = f"{total:.0f}" if float(total).is_integer() else f"{total:.2f}"
        rows.append([spec.stage, spec.name, spec.kind, spec.unit, value])
    return _table(["stage", "metric", "type", "unit", "value"], rows)


def pipeline_health_report(
    registry: MetricsRegistry, sampler: Optional["StatsSampler"] = None
) -> str:
    """The self-observability report every experiment run can emit
    alongside its paper-figure output: the metric table plus, when a
    sampler ran, a one-line summary of the collected time series."""
    lines = ["pipeline health (self-observability, docs/OBSERVABILITY.md):",
             pipeline_health_table(registry)]
    if sampler is not None and sampler.rows:
        span_ns = sampler.rows[-1]["t_ns"] - sampler.rows[0]["t_ns"]
        lines.append(
            f"stats series: {len(sampler.rows)} samples every "
            f"{format_ns(sampler.interval_ns)} spanning {format_ns(span_ns)}"
        )
    return "\n".join(lines)
