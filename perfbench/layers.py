"""Per-layer metrics from a traced pass, against its untraced twin.

Every metric is named ``<layer>.<what>`` after the ``repro`` module it
measures.  Times per read request (``*_ms`` of ``crs``, ``scw``,
``fs2``) are summed layer time divided by the reads in the window, so
they add up towards the read latency; ``*_us`` figures are per call of
a per-clause entry point.  ``README.md`` lists which end-to-end metric
each should move, and on which workload.
"""

from __future__ import annotations

import math
import statistics

#: metric -> unit; the order is the print order.
LAYER_UNITS = {
    "crs.retrieve_ms": "ms",
    "crs.self_ms": "ms",
    "crs.plan_us": "us",
    "crs.mode_frac.software": "ratio",
    "crs.mode_frac.fs1": "ratio",
    "crs.mode_frac.fs2": "ratio",
    "crs.mode_frac.both": "ratio",
    "crs.clauses_per_req": "count",
    "crs.selectivity": "ratio",
    "pif.decodes_per_req": "count",
    "pif.decode_us": "us",
    "unify.matches_per_req": "count",
    "unify.match_us": "us",
    "scw.search_ms": "ms",
    "scw.calls_per_req": "count",
    "scw.survivor_frac": "ratio",
    "scw.false_drop_frac": "ratio",
    "fs2.search_ms": "ms",
    "fs2.records_per_req": "count",
    "fs2.pass_frac": "ratio",
    "disk.extent_writes_per_read": "count",
    "disk.extent_write_kb_per_read": "KB",
    "disk.read_kb_per_read": "KB",
    "storage.assert_ms": "ms",
    "storage.retract_ms": "ms",
    "storage.index_build_ms": "ms",
    "storage.index_builds_per_write": "count",
    "storage.wal.wait_ms": "ms",
    "storage.wal.fsyncs_per_write": "count",
    "storage.wal.bytes_per_write": "bytes",
    "storage.wal.compactions": "count",
    "cluster.retrieve_ms": "ms",
    "cluster.retrieve_p99_ms": "ms",
    "cluster.self_ms": "ms",
    "cluster.mutate_ms": "ms",
    "net.server_decode_us": "us",
    "net.server_encode_us": "us",
    "net.resp_bytes": "bytes",
    "net.client_decode_us": "us",
    "net.residual_ms": "ms",
    "server.cpu_ms_per_op": "ms",
    "driver.lag_p99_ms": "ms",
    "driver.wait_ms": "ms",
    "read_p95_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "recover_s": "s",
    "failed_frac": "ratio",
    "trace.overhead.setup_s": "ratio",
    "trace.overhead.read_p50_ms": "ratio",
    "trace.overhead.sat_qps": "ratio",
    "trace.overhead.server_rss_mb": "ratio",
}

_MODES = {"software": "software", "fs1": "fs1", "fs2": "fs2",
          "fs1+fs2": "both"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def layer_metrics(untraced, traced) -> tuple[dict[str, float], dict[str, str]]:
    """All of :data:`LAYER_UNITS`, from two :class:`run.PassResult`."""
    spans = traced.trace or {}

    def entry(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "sums": {}, "samples": []})

    reads = [s for s in traced.samples
             if s.op.kind == "read" and s.outcome == "ok"]
    cluster = entry("cluster.retrieve")
    requests = cluster["calls"]
    mutations = entry("cluster.mutate")["calls"]
    crs = entry("crs.retrieve")
    plan = entry("crs.plan")
    decode = entry("pif.decode_compiled")
    decode_clause = entry("pif.decode_clause")
    match = entry("unify.match_head")
    scw = entry("scw.search")
    fs2 = entry("fs2.search")
    wal = traced.registry_delta
    m: dict[str, float] = {}

    m["crs.retrieve_ms"] = _ratio(crs["total_s"] * 1e3, requests)
    m["crs.self_ms"] = _ratio(crs["self_s"] * 1e3, requests)
    m["crs.plan_us"] = _ratio(plan["total_s"] * 1e6, plan["calls"])
    stats = [s.result.stats for s in reads if s.result.stats is not None]
    for value, mode in _MODES.items():
        m[f"crs.mode_frac.{mode}"] = _ratio(
            sum(1 for st in stats if st.mode.value == value), len(stats)
        )
    m["crs.clauses_per_req"] = (
        statistics.fmean(st.clauses_total for st in stats) if stats else 0.0
    )
    m["crs.selectivity"] = (
        statistics.fmean(st.selectivity for st in stats) if stats else 0.0
    )

    m["pif.decodes_per_req"] = _ratio(decode["calls"], requests)
    m["pif.decode_us"] = _ratio(
        (decode["total_s"] + decode_clause["self_s"]) * 1e6, decode["calls"]
    )
    m["unify.matches_per_req"] = _ratio(match["calls"], requests)
    m["unify.match_us"] = _ratio(match["total_s"] * 1e6, match["calls"])

    m["scw.search_ms"] = _ratio(scw["total_s"] * 1e3, requests)
    m["scw.calls_per_req"] = _ratio(scw["sums"].get("queries", 0), requests)
    m["scw.survivor_frac"] = _ratio(
        scw["sums"].get("survivors", 0), scw["sums"].get("entries", 0)
    )
    fs1_stats = [st for st in stats if st.fs1_candidates is not None]
    m["scw.false_drop_frac"] = _ratio(
        sum(st.fs1_candidates - st.final_candidates for st in fs1_stats),
        sum(st.fs1_candidates for st in fs1_stats),
    )

    m["fs2.search_ms"] = _ratio(fs2["total_s"] * 1e3, requests)
    m["fs2.records_per_req"] = _ratio(fs2["sums"].get("records", 0), requests)
    m["fs2.pass_frac"] = _ratio(
        fs2["sums"].get("passed", 0), fs2["sums"].get("records", 0)
    )

    extent_writes = entry("disk.write_extent")
    m["disk.extent_writes_per_read"] = _ratio(extent_writes["calls"], requests)
    m["disk.extent_write_kb_per_read"] = _ratio(
        extent_writes["sums"].get("bytes", 0) / 1024, requests
    )
    m["disk.read_kb_per_read"] = _ratio(
        (entry("disk.read_extent")["sums"].get("bytes", 0)
         + entry("disk.stream_records")["sums"].get("bytes", 0)) / 1024,
        requests,
    )

    for metric, name in (
        ("storage.assert_ms", "storage.assert"),
        ("storage.retract_ms", "storage.retract"),
        ("storage.index_build_ms", "storage.index_build"),
        ("storage.wal.wait_ms", "storage.wal.wait"),
    ):
        span = entry(name)
        m[metric] = _ratio(span["total_s"] * 1e3, span["calls"])
    m["storage.index_builds_per_write"] = _ratio(
        entry("storage.index_build")["calls"], mutations
    )
    m["storage.wal.fsyncs_per_write"] = _ratio(wal.get("wal.fsyncs", 0), mutations)
    m["storage.wal.bytes_per_write"] = _ratio(
        wal.get("wal.append_bytes", 0), mutations
    )
    m["storage.wal.compactions"] = float(entry("storage.wal.compact")["calls"])

    m["cluster.retrieve_ms"] = _ratio(cluster["total_s"] * 1e3, requests)
    m["cluster.retrieve_p99_ms"] = percentile(cluster["samples"], 0.99) * 1e3
    m["cluster.self_ms"] = _ratio(cluster["self_s"] * 1e3, requests)
    m["cluster.mutate_ms"] = _ratio(
        entry("cluster.mutate")["total_s"] * 1e3, mutations
    )

    server_decode = entry("net.decode_request")
    encode = entry("net.encode_response")
    client = traced.client_decode or {"calls": 0, "total_s": 0.0}
    m["net.server_decode_us"] = _ratio(
        server_decode["total_s"] * 1e6, server_decode["calls"]
    )
    m["net.server_encode_us"] = _ratio(encode["total_s"] * 1e6, encode["calls"])
    m["net.resp_bytes"] = _ratio(encode["sums"].get("bytes", 0), encode["calls"])
    m["net.client_decode_us"] = _ratio(client["total_s"] * 1e6, client["calls"])
    client_ms = (
        statistics.fmean((s.end - s.start) * 1e3 for s in reads)
        if reads else 0.0
    )
    codec_ms = (m["net.server_decode_us"] + m["net.server_encode_us"]
                + m["net.client_decode_us"]) / 1e3
    m["net.residual_ms"] = client_ms - m["cluster.retrieve_ms"] - codec_ms

    for name in ("server.cpu_ms_per_op", "driver.lag_p99_ms", "driver.wait_ms",
                 "read_p95_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms",
                 "failed_frac"):
        m[name] = untraced.extra[name]
    m["recover_s"] = untraced.extra.get("recover_s", 0.0)
    for name, value in untraced.e2e.items():
        m[f"trace.overhead.{name}"] = _ratio(traced.e2e[name], value) - 1.0
    return m, dict(LAYER_UNITS)
