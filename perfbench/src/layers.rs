//! Per-layer metrics of a traced child.
//!
//! Times are self times of the spans the benchmark records around its
//! calls into each layer, summed over the child. Counts are exact: they
//! come from `World::events_processed`, the `obs` snapshot, the counting
//! allocator and the campaign report. A ratio is reported beside its
//! base (the count it divides by); with a zero base it reads 0.

use crate::stats;
use crate::trace::{self, Span};
use crate::workloads::Measured;
use crate::world::OBS_COUNTERS;

/// Every per-layer metric with its unit, in report order. The two
/// `trace.*_cpu_s` comparisons against the untraced child are added by
/// the parent process.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("testbed.topology_s", "s"),
    ("testbed.to_job_result_s", "s"),
    ("core.world_new_s", "s"),
    ("core.run_until.warmup_s", "s"),
    ("core.run_until.measure_s", "s"),
    ("core.run_until.drain_s", "s"),
    ("core.into_records_s", "s"),
    ("core.slice_ms.p50", "ms"),
    ("core.slice_ms.tail", "ms"),
    ("core.slice_ms.tail_pct", "%"),
    ("core.slice_ms.n", "count"),
    ("sim.events", "count"),
    ("sim.ns_per_event.formation", "ns"),
    ("sim.ns_per_event.steady", "ns"),
    ("sim.trace.dropped", "count"),
    ("alloc.count.setup", "count"),
    ("alloc.count.steady", "count"),
    ("alloc.steady_per_kevent", "1/kev"),
    ("alloc.peak_bytes.setup", "bytes"),
    ("alloc.peak_bytes.run", "bytes"),
    ("alloc.peak_heap_mb", "MiB"),
    ("phy.tx_frames", "count"),
    ("phy.tx_bytes", "bytes"),
    ("phy.ns_per_frame", "ns"),
    ("ble.conn_events", "count"),
    ("ble.events_skipped", "count"),
    ("ble.data_attempts", "count"),
    ("ble.data_delivered", "count"),
    ("ble.delivery_ratio", "1"),
    ("ble.conn_lost", "count"),
    ("l2cap.sdu_tx", "count"),
    ("l2cap.credit_stalls", "count"),
    ("l2cap.mbuf_drops", "count"),
    ("sixlowpan.frames_decoded", "count"),
    ("sixlowpan.decode_errors", "count"),
    ("net.ipv6_forwarded", "count"),
    ("net.ipv6_dropped", "count"),
    ("net.ipv6_no_route", "count"),
    ("rpl.msgs_rx", "count"),
    ("rpl.parent_switches", "count"),
    ("coap.req_tx", "count"),
    ("coap.resp_rx", "count"),
    ("coap.timeouts", "count"),
    ("coap.useful_ratio", "1"),
    ("peers.attempts", "count"),
    ("peers.successes", "count"),
    ("peers.success_ratio", "1"),
    ("chaos.faults", "count"),
    ("chaos.recovery_analyze_s", "s"),
    ("obs.snapshot_s", "s"),
    ("obs.timeline_events", "count"),
    ("campaign.run_self_s", "s"),
    ("campaign.store_load_s", "s"),
    ("campaign.store_bytes", "bytes"),
    ("campaign.jobs_run", "count"),
    ("campaign.jobs_cached", "count"),
    ("campaign.cache_hit_ratio", "1"),
    ("campaign.pool_idle_s", "s"),
    ("campaign.job_cpu_s.p50", "s"),
    ("campaign.job_cpu_s.tail", "s"),
    ("campaign.job_cpu_s.tail_pct", "%"),
    ("campaign.job_cpu_s.n", "count"),
    ("bench.aggregate_s", "s"),
    ("bench.csv_write_s", "s"),
    ("trace.cpu_s", "s"),
    ("trace.untraced_cpu_s", "s"),
    ("trace.overhead_cpu_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.spans", "count"),
];

fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// Median, tail, tail percentile and count of `samples` (all zero when
/// there are none).
fn distribution(samples: &[f64]) -> [f64; 4] {
    if samples.is_empty() {
        return [0.0; 4];
    }
    let t = stats::tail(samples);
    [stats::median(samples), t.value, t.pct, t.n as f64]
}

/// The metrics a traced child can compute on its own (everything but
/// the comparisons with the untraced child), as `(name, value)`.
pub fn compute(m: &Measured, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = trace::self_secs_by_name(spans);
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let runs = &m.collect.runs;
    let sum = |f: &dyn Fn(&crate::world::WorldRun) -> f64| runs.iter().map(f).sum::<f64>();
    let counter = |name: &str| {
        let i = OBS_COUNTERS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not an obs counter"));
        sum(&|r| r.counters[i])
    };
    let events = sum(&|r| r.events as f64);
    let warm_events = sum(&|r| r.events_warmup as f64);
    let steady_events = sum(&|r| r.events_measure as f64);
    let warm_cpu = sum(&|r| r.cpu_warmup_ns as f64);
    let steady_cpu = sum(&|r| r.cpu_measure_ns as f64);
    let run_cpu = warm_cpu + steady_cpu + sum(&|r| r.cpu_drain_ns as f64);
    let steady_allocs = sum(&|r| r.steady_allocs as f64);
    let slices: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.slice_cpu_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let [slice_p50, slice_tail, slice_pct, slice_n] = distribution(&slices);
    let c = &m.collect;
    let [job_p50, job_tail, job_pct, job_n] = distribution(&c.job_cpu_s);
    let frames = counter("phy.tx_frames");

    let mut out = vec![
        ("testbed.topology_s", s("testbed.topology")),
        ("testbed.to_job_result_s", s("testbed.to_job_result")),
        ("core.world_new_s", s("core.world_new")),
        ("core.run_until.warmup_s", s("core.run_until.warmup")),
        ("core.run_until.measure_s", s("core.run_until.measure")),
        ("core.run_until.drain_s", s("core.run_until.drain")),
        ("core.into_records_s", s("core.into_records")),
        ("core.slice_ms.p50", slice_p50),
        ("core.slice_ms.tail", slice_tail),
        ("core.slice_ms.tail_pct", slice_pct),
        ("core.slice_ms.n", slice_n),
        ("sim.events", events),
        ("sim.ns_per_event.formation", ratio(warm_cpu, warm_events)),
        ("sim.ns_per_event.steady", ratio(steady_cpu, steady_events)),
        ("sim.trace.dropped", sum(&|r| r.trace_dropped as f64)),
        ("alloc.count.setup", m.alloc.setup_count as f64),
        ("alloc.count.steady", steady_allocs),
        (
            "alloc.steady_per_kevent",
            ratio(steady_allocs, steady_events / 1e3),
        ),
        ("alloc.peak_bytes.setup", m.alloc.setup_peak as f64),
        ("alloc.peak_bytes.run", m.alloc.run_peak as f64),
        (
            "alloc.peak_heap_mb",
            m.alloc.process_peak as f64 / (1024.0 * 1024.0),
        ),
    ];
    for (name, _) in OBS_COUNTERS {
        out.push((name, counter(name)));
    }
    out.extend([
        ("phy.ns_per_frame", ratio(run_cpu, frames)),
        (
            "ble.delivery_ratio",
            ratio(counter("ble.data_delivered"), counter("ble.data_attempts")),
        ),
        (
            "coap.useful_ratio",
            ratio(counter("coap.resp_rx"), counter("coap.req_tx")),
        ),
        (
            "peers.success_ratio",
            ratio(counter("peers.successes"), counter("peers.attempts")),
        ),
        ("chaos.faults", sum(&|r| r.faults as f64)),
        ("chaos.recovery_analyze_s", s("chaos.recovery_analyze")),
        ("obs.snapshot_s", s("obs.snapshot")),
        ("obs.timeline_events", sum(&|r| r.timeline_events as f64)),
        ("campaign.run_self_s", s("campaign.run")),
        ("campaign.store_load_s", s("campaign.store_load")),
        ("campaign.store_bytes", c.store_bytes as f64),
        ("campaign.jobs_run", c.jobs_run as f64),
        ("campaign.jobs_cached", c.jobs_cached as f64),
        (
            "campaign.cache_hit_ratio",
            ratio(c.jobs_cached as f64, (c.jobs_run + c.jobs_cached) as f64),
        ),
        (
            "campaign.pool_idle_s",
            c.pool_capacity_s - c.job_wall_s.iter().sum::<f64>(),
        ),
        ("campaign.job_cpu_s.p50", job_p50),
        ("campaign.job_cpu_s.tail", job_tail),
        ("campaign.job_cpu_s.tail_pct", job_pct),
        ("campaign.job_cpu_s.n", job_n),
        ("bench.aggregate_s", s("bench.aggregate")),
        ("bench.csv_write_s", s("bench.csv_write")),
        ("trace.cpu_s", m.cpu_s),
        ("trace.uncovered_s", s("bench.timed")),
        ("trace.spans", spans.len() as f64),
    ]);
    out
}
