//! One world run, as the untraced and the traced child drive it.
//!
//! Untraced, a run is the program's own path: `run_ble`, then
//! `to_job_result`. Traced, it is a replay through the public `World`
//! API, split at the points the benchmark times: building the world,
//! one `run_until` per simulated second of every phase, and the
//! read-out. The replay must give the same event stream and artifact
//! as `run_ble`, which the benchmark checks by comparing the traced
//! child's digest with the untraced child's.

use mindgap_core::{AppConfig, NodeConfig, PeersWorldConfig, TransportMode, World, WorldConfig};
use mindgap_sim::{Duration, Instant, NodeId};
use mindgap_testbed::campaign::to_job_result;
use mindgap_testbed::{run_ble, ExperimentResult, ExperimentSpec};

use mindgap_campaign::JobResult;

use crate::alloc;
use crate::sys;
use crate::trace::Tracer;

/// Where a world's spans go: the tracer, the span that caused them and
/// the run (world) they belong to.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    pub tr: &'a Tracer,
    pub parent: u32,
    pub run: u32,
}

impl Probe<'_> {
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tr.span(name, self.parent, self.run, |_| f())
    }
}

/// A built world and what its read-out needs to know about the spec.
pub struct Built {
    world: World,
    n: usize,
    consumer: NodeId,
    topo_name: String,
}

/// Build the world for `spec`: `World::new`, link PER, faults.
pub fn build(spec: &ExperimentSpec) -> Built {
    let (node_cfgs, producers, consumer, topo_name, n) = match &spec.mesh {
        Some(m) => (
            m.node_configs(),
            m.producers(),
            m.consumer,
            m.name.clone(),
            m.len(),
        ),
        None => (
            spec.topology.node_configs(),
            spec.topology.producers(),
            spec.topology.consumer,
            spec.topology.name.to_string(),
            spec.topology.len(),
        ),
    };
    let node_cfgs = if spec.peers.is_some() {
        (0..n)
            .map(|_| NodeConfig {
                edges: Vec::new(),
                routes: Vec::new(),
            })
            .collect()
    } else {
        node_cfgs
    };
    let app = AppConfig {
        producer_interval: spec.producer_interval,
        producer_jitter: spec.producer_jitter,
        warmup: spec.warmup,
        payload: spec.payload,
        ..AppConfig::paper_default(producers, consumer)
    };
    let mut cfg = WorldConfig::paper_default(spec.seed, spec.policy);
    cfg.clock_ppm_range = spec.clock_ppm_range;
    cfg.timeline_cap = spec.timeline_cap;
    cfg.supervision_timeout = spec.supervision_timeout;
    cfg.transport = spec.transport;
    cfg.dynamic_routing = spec.dynamic_routing;
    if let Some(m) = &spec.mesh {
        cfg.radio_links = Some(m.links.clone());
        cfg.rpl_dao_period_ticks = 6;
    }
    if let Some(p) = &spec.peers {
        let m = spec
            .mesh
            .as_ref()
            .expect("peers mode needs a generated mesh");
        cfg.dynamic_routing = true;
        cfg.radio_links = None;
        let (mut w, mut h) = (0.0f64, 0.0f64);
        for &(x, y) in &m.positions {
            w = w.max(x);
            h = h.max(y);
        }
        let mut pc = PeersWorldConfig::new(m.positions.clone(), (w + 1.0, h + 1.0), m.seed);
        pc.pool = p.pool;
        pc.path_loss = m.geo.path_loss;
        pc.max_link_m = m.geo.max_link_m;
        pc.mobility = p.mobility;
        pc.pinned = vec![consumer.0];
        cfg.peers = Some(pc);
    }
    let mut world = World::new(cfg, node_cfgs, app);
    if spec.par > 1 {
        world.set_parallel(spec.par);
    }
    if let Some(m) = &spec.mesh {
        if spec.peers.is_none() {
            for (a, b, per) in m.link_per_list() {
                world.set_link_per(NodeId(a), NodeId(b), per);
            }
        }
    }
    for &(a, b, per) in &spec.link_per {
        world.set_link_per(NodeId(a), NodeId(b), per);
    }
    if let Some(faults) = &spec.faults {
        world.install_faults(faults);
    }
    Built {
        world,
        n,
        consumer,
        topo_name,
    }
}

/// Program counters of one run that the per-layer report reads: the
/// benchmark's name and the `obs` metric it sums over nodes.
pub const OBS_COUNTERS: [(&str, &str); 22] = [
    ("phy.tx_frames", "phy_tx_frames"),
    ("phy.tx_bytes", "phy_tx_bytes"),
    ("ble.conn_events", "ll_conn_events_coord"),
    ("ble.events_skipped", "ll_events_skipped"),
    ("ble.data_attempts", "ll_data_attempts"),
    ("ble.data_delivered", "ll_data_delivered"),
    ("ble.conn_lost", "ll_conn_lost"),
    ("l2cap.sdu_tx", "l2cap_sdu_tx"),
    ("l2cap.credit_stalls", "l2cap_credit_stalls"),
    ("l2cap.mbuf_drops", "l2cap_mbuf_drops"),
    ("sixlowpan.frames_decoded", "sixlowpan_frames_decoded"),
    ("sixlowpan.decode_errors", "sixlowpan_decode_errors"),
    ("net.ipv6_forwarded", "ipv6_forwarded"),
    ("net.ipv6_dropped", "ipv6_dropped"),
    ("net.ipv6_no_route", "ipv6_no_route"),
    ("rpl.msgs_rx", "rpl_msgs_rx"),
    ("rpl.parent_switches", "rpl_parent_switches"),
    ("coap.req_tx", "coap_req_tx"),
    ("coap.resp_rx", "coap_resp_rx"),
    ("coap.timeouts", "coap_timeouts"),
    ("peers.attempts", "ll_peer_attempts"),
    ("peers.successes", "ll_peer_successes"),
];

/// Everything one world run hands back. An untraced run fills only
/// `result` and `events`.
#[derive(Debug, Clone, Default)]
pub struct WorldRun {
    /// The campaign artifact, as `to_job_result` makes it.
    pub result: JobResult,
    /// Kernel events over the whole run, and in the two timed phases.
    pub events: u64,
    pub events_warmup: u64,
    pub events_measure: u64,
    /// Thread CPU of the `run_until` calls of each phase, ns.
    pub cpu_warmup_ns: u64,
    pub cpu_measure_ns: u64,
    pub cpu_drain_ns: u64,
    /// CPU of each one-second slice of the measured phase.
    pub slice_cpu_ns: Vec<u64>,
    /// Allocations this thread made during the measured phase.
    pub steady_allocs: u64,
    /// Values of [`OBS_COUNTERS`], in order.
    pub counters: Vec<f64>,
    pub trace_dropped: u64,
    pub faults: usize,
    pub timeline_events: usize,
}

/// Every non-root node holds an RPL parent.
fn rpl_converged(world: &World, n: usize, root: NodeId) -> bool {
    (0..n as u16).filter(|&i| NodeId(i) != root).all(|i| {
        world
            .rpl_state(NodeId(i))
            .map(|(_, parent)| parent.is_some())
            .unwrap_or(false)
    })
}

/// Advance `world` from `from` to `to` in one-second slices, calling
/// `each` after every slice with the time reached and the slice's
/// thread CPU.
fn advance(
    world: &mut World,
    from: Duration,
    to: Duration,
    mut each: impl FnMut(&World, Duration, u64),
) {
    let mut t = from;
    while t < to {
        t = (t + Duration::from_secs(1)).min(to);
        let c0 = sys::thread_cpu_ns();
        world.run_until(Instant::ZERO + t);
        each(world, t, sys::thread_cpu_ns() - c0);
    }
}

/// Run `spec` once. Untraced, this is what the program runs
/// (`run_ble`, then `to_job_result`), and only the artifact and the
/// event count are kept; traced, it is the replay of [`build`] and
/// [`run`] with its spans.
pub fn run_spec(spec: &ExperimentSpec, p: Probe) -> WorldRun {
    if !p.tr.on() {
        let res = run_ble(spec);
        return WorldRun {
            result: to_job_result(&res, &[]),
            events: res.events_processed,
            ..WorldRun::default()
        };
    }
    let built = p.span("core.world_new", || build(spec));
    run(built, spec, p)
}

/// Run the built world through warmup, measurement and drain, then
/// read it out into a campaign artifact.
fn run(built: Built, spec: &ExperimentSpec, p: Probe) -> WorldRun {
    let Built {
        mut world,
        n,
        consumer,
        topo_name,
    } = built;
    let peers_mode = spec.peers.is_some();
    let total = spec.warmup + spec.duration;
    let mut out = WorldRun::default();
    let mut convergence_s = None;
    // Peers runs observe convergence every simulated second, as
    // `run_ble` does.
    let mut observe = |world: &World, t: Duration| {
        if peers_mode && convergence_s.is_none() && rpl_converged(world, n, consumer) {
            convergence_s = Some(t.nanos() as f64 / 1e9);
        }
    };

    p.span("core.run_until.warmup", || {
        advance(&mut world, Duration::ZERO, spec.warmup, |w, t, cpu| {
            out.cpu_warmup_ns += cpu;
            observe(w, t);
        })
    });
    out.events_warmup = world.events_processed();
    world.reset_records();
    let allocs0 = alloc::thread_count();
    p.span("core.run_until.measure", || {
        advance(&mut world, spec.warmup, total, |w, t, cpu| {
            out.cpu_measure_ns += cpu;
            out.slice_cpu_ns.push(cpu);
            observe(w, t);
        })
    });
    out.steady_allocs = alloc::thread_count() - allocs0;
    out.events_measure = world.events_processed() - out.events_warmup;
    let drain_end = total + Duration::from_secs(10);
    p.span("core.run_until.drain", || {
        advance(&mut world, total, drain_end, |_, _, cpu| {
            out.cpu_drain_ns += cpu;
        })
    });

    let reconnects = (0..n as u16).map(|i| world.reconnects(NodeId(i))).sum();
    let pool_drops = (0..n as u16).map(|i| world.pool_drops(NodeId(i))).sum();
    let skipped_events = (0..n as u16)
        .map(|i| world.ll_counters(NodeId(i)).skipped_events)
        .collect();
    let transport_label = match spec.transport {
        TransportMode::Conn => spec.policy.label(),
        TransportMode::Adv(_) => "adv".to_string(),
    };
    let mode = if peers_mode { "peers " } else { "" };
    let label = format!(
        "{} {}{} producer={}ms",
        topo_name,
        mode,
        transport_label,
        spec.producer_interval.millis()
    );
    let trace_dropped = world.trace.dropped();
    let events_processed = world.events_processed();
    let par_stats = world.par_stats();
    let metrics = p.span("obs.snapshot", || world.obs_snapshot());
    let timeline = std::mem::take(&mut world.obs.timeline);
    let recovery = p.span("chaos.recovery_analyze", || {
        mindgap_chaos::recovery::analyze(&timeline)
    });
    let records = p.span("core.into_records", || world.into_records());
    let res = ExperimentResult {
        conn_losses: records.conn_losses.len(),
        reconnects,
        pool_drops,
        skipped_events,
        trace_dropped,
        events_processed,
        metrics,
        timeline,
        recovery,
        convergence_s,
        label,
        records,
        par_stats,
    };
    out.result = p.span("testbed.to_job_result", || to_job_result(&res, &[]));
    out.events = events_processed;
    out.counters = OBS_COUNTERS
        .iter()
        .map(|(_, obs)| res.metrics.total(obs))
        // A counter the run did not register (peers counters outside
        // peers mode) reads NaN: that layer did no work.
        .map(|v| if v.is_nan() { 0.0 } else { v })
        .collect();
    out.trace_dropped = trace_dropped;
    out.faults = res.recovery.len();
    out.timeline_events = res.timeline.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ROOT;
    use mindgap_core::IntervalPolicy;
    use mindgap_testbed::{MeshTopology, Topology};

    /// The traced replay gives the same event count and artifact as the
    /// program's `run_ble`, on a static tree and on a cold-start peers
    /// field (which `run_ble` itself steps second by second).
    #[test]
    fn replay_matches_run_ble() {
        let ms = Duration::from_millis;
        let tree = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(ms(75)),
            7,
        )
        .with_duration(Duration::from_secs(20));
        let mut peers = ExperimentSpec::mesh_default(
            MeshTopology::random_geometric(12, 120.0, 7),
            IntervalPolicy::Randomized {
                lo: ms(50),
                hi: ms(200),
            },
            7,
        )
        .with_duration(Duration::from_secs(20))
        .with_peers();
        peers.warmup = Duration::from_secs(20);
        for spec in [tree, peers] {
            let (quiet, traced) = (Tracer::new(false), Tracer::new(true));
            let probe = |tr| Probe {
                tr,
                parent: ROOT,
                run: 1,
            };
            let program = run_spec(&spec, probe(&quiet));
            let replay = run_spec(&spec, probe(&traced));
            assert!(program.events > 0);
            assert_eq!(program.events, replay.events);
            // Debug text, so that NaN metrics compare equal.
            assert_eq!(
                format!("{:?}", program.result),
                format!("{:?}", replay.result)
            );
        }
    }
}
