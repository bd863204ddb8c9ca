"""The benchmark's metric names and the traced run's per-layer report.

``END_TO_END`` and ``per_layer_names()`` are the names ``BENCHMARK.json``
lists; ``selftest.py`` checks the two agree.  A traced run installs the
spans of ``tracing.py`` on every second round (or window of control
operations) and reports, for the traced part only, each layer's calls,
busy and self time plus the counts the program already exports.
"""

from __future__ import annotations

import tracing

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivered_pps", "pkt/s"),
    ("gateway_pps", "pkt/s"),
    ("router_pps", "pkt/s"),
    ("burst_p50_us", "us"),
    ("burst_p99_us", "us"),
    ("req_per_s", "req/s"),
    ("eer_setup_p50_ms", "ms"),
    ("eer_setup_p99_ms", "ms"),
    ("eer_renew_p50_ms", "ms"),
    ("eer_renew_p99_ms", "ms"),
)
END_TO_END_NAMES = tuple(name for name, _ in END_TO_END)

VERDICTS = (
    "forward",
    "deliver_host",
    "drop_expired",
    "drop_stale",
    "drop_bad_hvf",
    "drop_blocked",
    "drop_duplicate",
    "drop_overuse",
)
COUNTS = (
    *(f"dataplane.router.verdict.{verdict}" for verdict in VERDICTS),
    "dataplane.duplicate.rotated_bursts",
    "dataplane.sigma_cache.hits",
    "dataplane.sigma_cache.misses",
    "dataplane.ofd.flagged",
    "dataplane.monitor.confirmed",
    "dataplane.gateway.stamped",
    "control.cserv.rate_limited",
    "control.retry.retries",
)
GAUGES = (
    "reservation.store.live_eers",
    "reservation.e2e.flood_live_versions",
)
SHARES = (
    "bench.layer_coverage_pct",
    "bench.trace_overhead_pct",
)


def per_layer_names() -> list:
    """``(name, unit)`` of every per-layer metric, in reporting order."""
    names = []
    for call in tracing.LAYER_CALLS:
        names += [(f"{call}.calls", "count"), (f"{call}.busy_s", "s"), (f"{call}.self_s", "s")]
    names += [(f"{name}.self_s", "s") for name in tracing.HOP_SELF]
    names += [(name, "count") for name in COUNTS + GAUGES]
    names += [(name, "%") for name in SHARES]
    return names


def snapshot(net, run) -> dict:
    """Current values of the program's own counters, network-wide."""
    from repro.dataplane.router import Verdict

    values = dict.fromkeys(COUNTS, 0)
    for isd_as in net.ases():
        stack = net.stack(isd_as)
        router = stack.router
        for verdict in VERDICTS:
            values[f"dataplane.router.verdict.{verdict}"] += router.stats[Verdict(verdict)]
        if router.sigma_cache is not None:
            values["dataplane.sigma_cache.hits"] += router.sigma_cache.counters.get("hits")
            values["dataplane.sigma_cache.misses"] += router.sigma_cache.counters.get("misses")
        values["dataplane.ofd.flagged"] += router.ofd.reports
        values["dataplane.monitor.confirmed"] += router.monitor.confirmed_count()
        values["dataplane.gateway.stamped"] += stack.gateway.packets_sent
        service = stack.cserv
        values["control.cserv.rate_limited"] += (
            service.request_limiter.rejected + service.renewal_limiter.rejected
        )
        values["control.retry.retries"] += service.caller.stats.retries
    if run is not None:
        values["dataplane.duplicate.rotated_bursts"] = run.rotations
    return values


class TraceSession:
    """Spans and counter deltas over the traced part of one run."""

    def __init__(self):
        self.tracer = tracing.Tracer()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.flood_live_versions = 0
        self._before = None

    def attach(self, net, hop_routers, run) -> None:
        self.net = net
        self.hop_routers = hop_routers
        self.run = run

    def begin(self) -> None:
        self._before = snapshot(self.net, self.run)
        tracing.install(self.tracer, self.net, self.hop_routers)

    def end(self) -> None:
        self.tracer.uninstall()
        after = snapshot(self.net, self.run)
        for name in COUNTS:
            self.counts[name] += after[name] - self._before[name]

    def _shares(self, split) -> tuple:
        """Layer coverage and tracing overhead, in percent.

        The time no layer accounts for is the traced time outside every
        root span.  Coverage compares it, per operation, with the untraced
        time per operation, so the wrappers' own bookkeeping (booked
        inside the spans) does not inflate the layers' share."""
        traced_s, traced_ops = split[True]
        plain_s, plain_ops = split[False]
        coverage = overhead = 0.0
        if traced_ops and plain_ops and plain_s:
            plain_per_op = plain_s / plain_ops
            uncovered = (traced_s - self.tracer.root_s) / traced_ops
            coverage = 100.0 * (1.0 - uncovered / plain_per_op)
            overhead = 100.0 * ((traced_s / traced_ops) / plain_per_op - 1.0)
        return coverage, overhead

    def metrics(self, split) -> dict:
        tracer = self.tracer
        coverage, overhead = self._shares(split)
        live = sum(self.net.cserv(isd_as).store.eer_count() for isd_as in self.net.ases())
        values = {}
        for call in tracing.LAYER_CALLS:
            for field in ("calls", "busy_s", "self_s"):
                values[f"{call}.{field}"] = tracer.value(call, field)
        for name in tracing.HOP_SELF:
            values[f"{name}.self_s"] = tracer.value(name, "self_s")
        values.update(self.counts)
        values["reservation.store.live_eers"] = live
        values["reservation.e2e.flood_live_versions"] = self.flood_live_versions
        values["bench.layer_coverage_pct"] = coverage
        values["bench.trace_overhead_pct"] = overhead
        return {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in per_layer_names()
        }

    def table(self, split) -> str:
        traced_s = split[True][0]
        coverage, overhead = self._shares(split)
        return "\n".join(
            [
                tracing.layer_table(self.tracer, traced_s),
                f"traced time {traced_s:.3f} s; the layers cover {coverage:.1f}% "
                "of the untraced time per operation; tracing overhead "
                f"{overhead:+.1f}% per operation against the untraced rounds of this run",
            ]
        )
