//! Parallel-executor identity harness — the conservative parallel
//! executor must be a *pure* performance feature: for any spec and any
//! thread count, every observable artifact (timeline JSONL, metrics
//! CSV, record totals, kernel event count) is byte-identical to the
//! serial run. These tests drive `ExperimentSpec::with_par` directly;
//! the campaign-level matrix (CSV files on disk, `--par` CLI flag)
//! lives in `tests/campaign_determinism.rs`.

use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::{run_ble, ExperimentSpec, MeshTopology, Topology};

/// Full observable fingerprint of one run. Timeline + metrics are the
/// exact byte streams the campaign artifact writers serialize; the
/// scalar tail catches anything that bypasses the exporters.
fn fingerprint(spec: &ExperimentSpec) -> (String, String, u64, u64, u64, Vec<f64>, u64) {
    let res = run_ble(spec);
    (
        res.timeline.to_jsonl(),
        res.metrics.to_csv(),
        res.records.total_sent(),
        res.records.total_done(),
        res.records.ll_attempts(),
        res.records.rtt_sorted_secs(),
        res.events_processed,
    )
}

/// Assert par ∈ {2, 4} reproduce the serial fingerprint exactly.
fn assert_par_identical(spec: ExperimentSpec, what: &str) {
    let serial = fingerprint(&spec);
    for par in [2usize, 4] {
        let p = fingerprint(&spec.clone().with_par(par));
        assert_eq!(
            serial.0, p.0,
            "{what}: timeline diverges at par={par} (serial vs parallel)"
        );
        assert_eq!(serial.1, p.1, "{what}: metrics diverge at par={par}");
        assert_eq!(
            (serial.2, serial.3, serial.4, serial.6),
            (p.2, p.3, p.4, p.6),
            "{what}: record/event totals diverge at par={par}"
        );
        assert_eq!(serial.5, p.5, "{what}: RTT samples diverge at par={par}");
    }
}

#[test]
fn par_identical_conn_line() {
    let spec = ExperimentSpec::paper_default(
        Topology::line(5),
        IntervalPolicy::Static(Duration::from_millis(75)),
        42,
    )
    .with_duration(Duration::from_secs(60));
    assert_par_identical(spec, "conn line(5)");
}

#[test]
fn par_identical_conn_randomized_policy() {
    let spec = ExperimentSpec::paper_default(
        Topology::paper_tree(),
        IntervalPolicy::Randomized {
            lo: Duration::from_millis(30),
            hi: Duration::from_millis(90),
        },
        7,
    )
    .with_duration(Duration::from_secs(45));
    assert_par_identical(spec, "conn tree(7) randomized");
}

#[test]
fn par_identical_adv_transport() {
    let spec = ExperimentSpec::paper_default(
        Topology::line(4),
        IntervalPolicy::Static(Duration::from_millis(75)),
        42,
    )
    .with_duration(Duration::from_secs(45))
    .with_adv_transport();
    assert_par_identical(spec, "adv line(4)");
}

#[test]
fn par_identical_under_crash_fault() {
    // A crash mid-run exercises the conservative fallback: teardown and
    // supervision paths are outside the parallel-safe class and must
    // splice through the serial loop without reordering anything.
    let spec = ExperimentSpec::paper_default(
        Topology::line(5),
        IntervalPolicy::Static(Duration::from_millis(75)),
        42,
    )
    .with_duration(Duration::from_secs(90))
    .with_faults(
        mindgap_chaos::FaultSchedule::new().node_crash(
            Duration::from_secs(50),
            2,
            Duration::from_secs(10),
        ),
    );
    assert_par_identical(spec, "conn line(5) crash");
}

#[test]
fn par_identical_static_geometric_mesh() {
    // The mesh path: a generated random-geometric field runs on the
    // sparse `radio_links` medium with RPL routing and the 30 s DAO
    // cadence (`rpl_dao_period_ticks = 6`), at the n=500 scale
    // workload's node density.
    let mesh = MeshTopology::random_geometric(30, 200.0, 42);
    let spec = ExperimentSpec::mesh_default(
        mesh,
        IntervalPolicy::Randomized {
            lo: Duration::from_millis(65),
            hi: Duration::from_millis(85),
        },
        42,
    )
    .with_duration(Duration::from_secs(60));
    assert_par_identical(spec, "geo30 mesh");
}

#[test]
fn par_executor_actually_batches() {
    // Guard against a silent no-op: identity would trivially hold if
    // every event fell through to the serial path. A steady-state line
    // has all nodes ticking conn-event timers concurrently, so a real
    // executor must form multi-event batches.
    let spec = ExperimentSpec::paper_default(
        Topology::line(5),
        IntervalPolicy::Static(Duration::from_millis(75)),
        42,
    )
    .with_duration(Duration::from_secs(60))
    .with_par(4);
    let res = run_ble(&spec);
    let stats = res.par_stats.expect("par run must report ParStats");
    assert_eq!(stats.threads, 4);
    assert!(
        stats.batched_events > 0,
        "parallel path never engaged: {stats:?}"
    );
    assert!(stats.max_batch >= 2, "no multi-event batch formed: {stats:?}");
    assert!(
        stats.par_fraction() > 0.01,
        "parallel fraction implausibly low: {stats:?}"
    );
}

#[test]
fn par_threads_beyond_nodes_still_identical() {
    // More shards than the partitioner can fill: k clamps to n and the
    // executor must degrade gracefully, not diverge.
    let spec = ExperimentSpec::paper_default(
        Topology::line(3),
        IntervalPolicy::Static(Duration::from_millis(75)),
        9,
    )
    .with_duration(Duration::from_secs(30));
    let serial = fingerprint(&spec);
    let wide = fingerprint(&spec.clone().with_par(16));
    assert_eq!(serial, wide, "par=16 on 3 nodes must match serial");
}
