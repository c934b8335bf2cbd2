//! Regression tests pinning World behaviours that bugs once broke
//! during development — each test encodes an invariant that failed in
//! an earlier revision and must never fail again.

use mindgap_core::{
    AppConfig, EdgeConfig, EdgeRole, IntervalPolicy, NodeConfig, World, WorldConfig,
};
use mindgap_net::Ipv6Addr;
use mindgap_sim::{Duration, Instant, NodeId};

fn line3(seed: u64) -> World {
    let addr = |i: u16| Ipv6Addr::of_node(i);
    let nodes = vec![
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Subordinate,
            }],
            routes: vec![(addr(2), addr(1))],
        },
        NodeConfig {
            edges: vec![
                EdgeConfig {
                    peer: NodeId(0),
                    role: EdgeRole::Coordinator,
                },
                EdgeConfig {
                    peer: NodeId(2),
                    role: EdgeRole::Subordinate,
                },
            ],
            routes: vec![],
        },
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Coordinator,
            }],
            routes: vec![(addr(0), addr(1))],
        },
    ];
    let app = AppConfig {
        warmup: Duration::from_secs(10),
        ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
    };
    World::new(
        WorldConfig::paper_default(seed, IntervalPolicy::Static(Duration::from_millis(75))),
        nodes,
        app,
    )
}

/// Regression: the mbuf pool must never leak. Early revisions freed
/// byte counts instead of block costs on teardown; after forced
/// connection churn the pool slowly filled until every send failed.
#[test]
fn mbuf_pool_does_not_leak_across_connection_churn() {
    let mut w = line3(11);
    w.run_until(Instant::from_secs(60));
    // Churn: repeatedly sever and restore the middle link's radio
    // path, forcing supervision losses, teardown and reconnects with
    // traffic in flight.
    for round in 0..5u64 {
        w.break_link(NodeId(1), NodeId(2));
        w.run_until(Instant::from_secs(60 + round * 40 + 20));
        w.restore_link(NodeId(1), NodeId(2));
        w.run_until(Instant::from_secs(60 + round * 40 + 40));
    }
    // Let the network settle and drain.
    w.run_until(Instant::from_secs(300));
    for n in 0..3u16 {
        let used = w.pool_used(NodeId(n));
        assert!(
            used <= 2 * mindgap_l2cap::MBUF_BLOCK,
            "node {n} pool retains {used} B after drain — leak"
        );
    }
    // And traffic still flows end to end.
    w.reset_records();
    w.run_until(Instant::from_secs(360));
    assert!(
        w.records().coap_pdr() > 0.9,
        "post-churn PDR {}",
        w.records().coap_pdr()
    );
}

/// Regression: link-layer timers must die with their connection.
/// Teardown once left armed timers queued after `conn_down` — the
/// supervision timer in particular sits up to seconds in the future,
/// so every churned connection parked a dead event in the queue, and
/// a node rebuilt after a crash (whose fresh LL restarts generation
/// counters) could mistake a stale timer for its own.
#[test]
fn connection_teardown_cancels_pending_timers() {
    use mindgap_ble::ConnId;
    let mut w = line3(19);
    w.run_until(Instant::from_secs(30));
    // Sever the middle link and run just past the supervision
    // timeout: the dead connection's timers would still be pending
    // here if teardown leaked them.
    w.break_link(NodeId(1), NodeId(2));
    w.run_until(Instant::from_secs(40));
    assert!(!w.records().conn_losses.is_empty(), "link break must kill the conn");
    // More churn: reconnect attempts mint fresh conn ids that fail
    // and tear down repeatedly while the link stays dark.
    w.run_until(Instant::from_secs(80));
    let live: std::collections::HashSet<u64> = (0..3u16)
        .flat_map(|n| {
            w.conn_stats_of(NodeId(n))
                .into_iter()
                .map(|(c, _, _, _)| c.0)
        })
        .collect();
    for c in 1..200u64 {
        if !live.contains(&c) {
            assert_eq!(
                w.live_conn_timers(ConnId(c)),
                0,
                "dead conn {c} still owns pending timers — teardown leak"
            );
        }
    }
}

/// Regression: ARQ sequence numbers must survive empty keep-alives.
/// An early revision put fresh data on an unacknowledged empty PDU's
/// sequence number; under loss, one packet per ~10 000 silently
/// vanished (delivered-as-duplicate).
#[test]
fn no_silent_packet_loss_under_sustained_noise() {
    let mut w = line3(13);
    w.run_until(Instant::from_secs(600));
    let r = w.records();
    let lost = r.total_sent() - r.total_done();
    // With the default ≈1 % channel noise and no connection losses,
    // CoAP over BLE loses nothing: ARQ retries forever.
    let losses = r.conn_losses.len();
    assert!(
        losses > 0 || lost == 0,
        "{lost} packets lost without any connection loss"
    );
}

/// Regression: the world's listening slot is owned. A stale scan-end
/// once cleared a fresh connection's listen, making establishment fail
/// hundreds of times in a row.
#[test]
fn connection_survives_heavy_neighbour_scanning() {
    // Node 1 scans forever for an unreachable peer 3 while serving its
    // two live connections.
    let addr = |i: u16| Ipv6Addr::of_node(i);
    let nodes = vec![
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Subordinate,
            }],
            routes: vec![(addr(2), addr(1))],
        },
        NodeConfig {
            edges: vec![
                EdgeConfig {
                    peer: NodeId(0),
                    role: EdgeRole::Coordinator,
                },
                EdgeConfig {
                    peer: NodeId(2),
                    role: EdgeRole::Subordinate,
                },
                EdgeConfig {
                    peer: NodeId(3),
                    role: EdgeRole::Coordinator,
                },
            ],
            routes: vec![],
        },
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Coordinator,
            }],
            routes: vec![(addr(0), addr(1))],
        },
        // Node 3 exists but is out of range from the start.
        NodeConfig {
            edges: vec![EdgeConfig {
                peer: NodeId(1),
                role: EdgeRole::Subordinate,
            }],
            routes: vec![],
        },
    ];
    let app = AppConfig {
        warmup: Duration::from_secs(10),
        ..AppConfig::paper_default(vec![NodeId(2)], NodeId(0))
    };
    let mut w = World::new(
        WorldConfig::paper_default(17, IntervalPolicy::Static(Duration::from_millis(75))),
        nodes,
        app,
    );
    w.break_link(NodeId(1), NodeId(3));
    w.run_until(Instant::from_secs(600));
    let r = w.records();
    assert_eq!(
        r.conn_losses.len(),
        0,
        "permanent scanning must not kill live connections"
    );
    assert!(r.coap_pdr() > 0.99, "PDR {}", r.coap_pdr());
}

/// Regression: churn must never crash a node that is still down.
/// `FaultSchedule::churn` once drew crash instants and victims
/// independently, so two picks of one victim inside its outage made
/// `World::crash_node` panic mid-run ("crashed while already down").
/// One victim and a pick window shorter than the outage guarantee the
/// collision; the run must reach its end with the node back up.
#[test]
fn churn_never_recrashes_a_node_that_is_down() {
    use mindgap_chaos::FaultSchedule;
    let s = Duration::from_secs;
    let faults = FaultSchedule::new().churn(5, &[2], s(30), s(5), 8, s(20));
    assert_eq!(faults.len(), 1, "picks inside the outage are skipped");
    let mut w = line3(23);
    w.install_faults(&faults);
    w.run_until(Instant::from_secs(50));
    assert!(w.is_down(NodeId(2)), "the one crash fired");
    w.run_until(Instant::from_secs(120));
    assert!(!w.is_down(NodeId(2)), "node 2 rebooted");
    w.reset_records();
    w.run_until(Instant::from_secs(180));
    assert!(
        w.records().coap_pdr() > 0.9,
        "post-churn PDR {}",
        w.records().coap_pdr()
    );
}
