//! The four workloads: input generation from the seed, the timed
//! phase, and the figure aggregation each one ends in.
//!
//! Every workload is a closed batch: a fixed amount of work at a stated
//! input size, run once per child process. Inputs are made from the
//! seed only; the program receives the generated `ExperimentSpec`s.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use mindgap_campaign::{Campaign, CampaignReport, GridBuilder, JobStatus, RunConfig};
use mindgap_chaos::FaultSchedule;
use mindgap_core::{IntervalPolicy, MobilityModel};
use mindgap_sim::Duration;
use mindgap_testbed::campaign::keys;
use mindgap_testbed::stats;
use mindgap_testbed::{ExperimentSpec, MeshTopology, Topology};

use crate::alloc;
use crate::check::{self, csv_digest, Fnv, Outcome, Pin, Pins, Tally};
use crate::sys;
use crate::trace::{Tracer, ROOT};
use crate::world::{self, Probe, WorldRun};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["fig15-quick", "mesh500", "churn-peers", "fig15-resume"];

/// The set-up of `fig15-resume`, run by the parent in a child of its own
/// so that the resuming children's peak memory is the read path's own.
pub const FILL: &str = "fig15-fill";

/// Set-up repetitions per child: at least this many, and until this
/// much set-up time has passed, but no more than the cap.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.2;
const SETUP_MAX_REPS: usize = 2000;

/// Resumes of the filled store inside one `fig15-resume` timed phase,
/// so that the phase lasts seconds, not a fraction of one.
const RESUMES: usize = 16;

/// Campaign workers: `fig15` runs on both CPUs of the reference
/// machine, the churn grid on one.
const FIG15_WORKERS: usize = 2;
const CHURN_WORKERS: usize = 1;

/// Everything a child measured.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Timed phase: wall and process CPU time, seconds.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Kernel events the timed phase simulated; for `fig15-resume`, the
    /// events of the cached jobs it served.
    pub events: u64,
    pub tally: Tally,
    /// Digest of every batch outcome, to compare a traced child with an
    /// untraced one.
    pub digest: u64,
    /// Outcome digests in `digests.txt` form.
    pub pins: String,
    pub alloc: AllocFigures,
    pub collect: Collect,
}

/// Counting-allocator figures (zero when counting is off).
#[derive(Default)]
pub struct AllocFigures {
    pub setup_count: u64,
    pub setup_peak: u64,
    pub run_peak: u64,
    /// Peak over the whole child.
    pub process_peak: u64,
}

/// Per-layer raw data gathered during the timed phase.
#[derive(Default)]
pub struct Collect {
    /// World runs of the timed phase (their artifacts taken out).
    pub runs: Vec<WorldRun>,
    /// Per-job thread CPU and wall time, seconds.
    pub job_cpu_s: Vec<f64>,
    pub job_wall_s: Vec<f64>,
    /// Σ over campaign runs of (workers used × wall time), seconds.
    pub pool_capacity_s: f64,
    pub jobs_run: u64,
    pub jobs_cached: u64,
    /// Bytes of job artifacts in the store after the timed phase.
    pub store_bytes: u64,
}

/// Shared state of one child.
pub struct Ctx<'a> {
    pub tr: &'a Tracer,
    pub seed: u64,
    /// Working directory of the run (campaign store, CSVs), shared by
    /// its children, which run one after another.
    pub out: PathBuf,
    pub pins: &'a Pins,
}

/// Run `workload` once: set-up, timed phase, checks.
pub fn run(workload: &str, ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    match workload {
        "mesh500" => mesh500(ctx, &mut m),
        "fig15-quick" => fresh_grid(ctx, &mut m, Grid::fig15),
        "churn-peers" => fresh_grid(ctx, &mut m, Grid::churn),
        "fig15-resume" => fig15_resume(ctx, &mut m),
        FILL => fig15_fill(ctx, &mut m),
        other => panic!("unknown workload {other}"),
    }
    m
}

/// One CSV file of a figure: its header and rows.
type Csv = (&'static str, Vec<String>);

/// A campaign and the spec each of its jobs runs, in job order.
struct Grid {
    campaign: Campaign,
    specs: Vec<ExperimentSpec>,
    workers: usize,
    /// The figure this grid feeds.
    figure: fn(&CampaignReport) -> Vec<Csv>,
}

/// The Figure 15 quick grid: 3 producer intervals × 10 connection
/// configurations × 600 s on the paper's 15-node tree.
fn fig15_axes() -> (Vec<u64>, Vec<(String, IntervalPolicy)>) {
    let ms = Duration::from_millis;
    let conns = vec![
        ("25".into(), IntervalPolicy::Static(ms(25))),
        ("50".into(), IntervalPolicy::Static(ms(50))),
        ("75".into(), IntervalPolicy::Static(ms(75))),
        ("100".into(), IntervalPolicy::Static(ms(100))),
        ("500".into(), IntervalPolicy::Static(ms(500))),
        (
            "[15:35]".into(),
            IntervalPolicy::Randomized {
                lo: ms(15),
                hi: ms(35),
            },
        ),
        (
            "[40:60]".into(),
            IntervalPolicy::Randomized {
                lo: ms(40),
                hi: ms(60),
            },
        ),
        (
            "[65:85]".into(),
            IntervalPolicy::Randomized {
                lo: ms(65),
                hi: ms(85),
            },
        ),
        (
            "[90:110]".into(),
            IntervalPolicy::Randomized {
                lo: ms(90),
                hi: ms(110),
            },
        ),
        (
            "[490:510]".into(),
            IntervalPolicy::Randomized {
                lo: ms(490),
                hi: ms(510),
            },
        ),
    ];
    (vec![100, 1_000, 10_000], conns)
}

/// Churn quick grid constants: 40 nodes in a 220 m square, 120 s
/// warmup, 180 s measured.
const CHURN_NODES: usize = 40;
const CHURN_SIDE_M: f64 = 220.0;

impl Grid {
    fn fig15(seed: u64, p: Probe) -> Grid {
        let (prods, conns) = fig15_axes();
        let policies: BTreeMap<String, IntervalPolicy> = conns.iter().cloned().collect();
        let campaign = GridBuilder::new("fig15-quick", seed)
            .axis("prod", prods.iter().map(u64::to_string))
            .axis("conn", conns.iter().map(|(label, _)| label.clone()))
            .explicit_seeds(&[seed])
            .build();
        let specs = campaign
            .jobs
            .iter()
            .map(|job| {
                let prod: u64 = job.params["prod"].parse().expect("prod axis");
                let topo = p.span("testbed.topology", Topology::paper_tree);
                ExperimentSpec::paper_default(topo, policies[&job.params["conn"]], job.seed)
                    .with_duration(Duration::from_secs(600))
                    .with_producer_interval(Duration::from_millis(prod))
                    .with_clock_ppm(5.0)
            })
            .collect();
        Grid {
            campaign,
            specs,
            workers: FIG15_WORKERS,
            figure: fig15_figure,
        }
    }

    fn churn(seed: u64, p: Probe) -> Grid {
        let warmup = Duration::from_secs(120);
        let duration = Duration::from_secs(180);
        let churn_start = warmup + Duration::from_secs(30);
        let churn_window = duration - Duration::from_secs(60);
        let campaign = GridBuilder::new("churn-quick", seed)
            .axis("mobility", ["static", "walk"])
            .axis("churn", ["0", "4"])
            .explicit_seeds(&[seed])
            .build();
        let specs = campaign
            .jobs
            .iter()
            .map(|job| {
                let events: usize = job.params["churn"].parse().expect("churn axis");
                let mesh = p.span("testbed.topology", || {
                    MeshTopology::random_geometric(CHURN_NODES, CHURN_SIDE_M, job.seed)
                });
                let victims: Vec<u16> = (1..CHURN_NODES as u16).collect();
                let mut spec = ExperimentSpec::mesh_default(
                    mesh,
                    IntervalPolicy::Randomized {
                        lo: Duration::from_millis(50),
                        hi: Duration::from_millis(200),
                    },
                    job.seed,
                )
                .with_producer_interval(Duration::from_secs(10))
                .with_duration(duration)
                .with_timeline_cap(1 << 21);
                spec = if job.params["mobility"] == "walk" {
                    spec.with_peers_mobility(MobilityModel::walk_default())
                } else {
                    spec.with_peers()
                };
                if events > 0 {
                    spec = spec.with_faults(FaultSchedule::new().churn(
                        job.seed,
                        &victims,
                        churn_start,
                        churn_window,
                        events,
                        Duration::from_secs(10),
                    ));
                }
                spec
            })
            .collect();
        Grid {
            campaign,
            specs,
            workers: CHURN_WORKERS,
            figure: churn_figure,
        }
    }
}

/// The `fig15_matrix.csv` rows, computed as the `fig15` binary does.
fn fig15_figure(report: &CampaignReport) -> Vec<Csv> {
    let (prods, conns) = fig15_axes();
    let mut rows = Vec::new();
    for &prod in &prods {
        for (label, _) in &conns {
            let config = format!("prod={prod},conn={label}");
            let results = report.results_for_config(&config);
            let ll: f64 = results.iter().map(|r| r.get(keys::LL_PDR)).sum();
            let coap: f64 = results.iter().map(|r| r.get(keys::COAP_PDR)).sum();
            let losses: usize = results
                .iter()
                .map(|r| r.get(keys::CONN_LOSSES) as usize)
                .sum();
            let rtts = mindgap_campaign::agg::concat_series(report, &config, keys::RTT_S);
            let n = results.len() as f64;
            let p50 = stats::quantile(&rtts, 0.5).unwrap_or(f64::NAN);
            rows.push(format!(
                "{prod},{label},{:.5},{:.5},{:.4},{losses}",
                ll / n,
                coap / n,
                p50
            ));
        }
    }
    vec![(
        "producer_ms,conn_config,ll_pdr,coap_pdr,rtt_p50,conn_losses",
        rows,
    )]
}

/// Treat a missing metric as zero.
fn nan0(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// The `churn_summary.csv` and `churn_recovery_cdf.csv` rows, computed
/// as the `churn` binary does.
fn churn_figure(report: &CampaignReport) -> Vec<Csv> {
    let n = CHURN_NODES;
    let mut summary_rows = Vec::new();
    let mut cdf_rows = Vec::new();
    for mob in ["static", "walk"] {
        for events in [0, 4] {
            let config = format!("mobility={mob},churn={events}");
            let results = report.results_for_config(&config);
            let convs: Vec<f64> = results
                .iter()
                .map(|r| r.get(keys::CONVERGENCE_S))
                .filter(|v| !v.is_nan())
                .collect();
            let unconverged = results.len() - convs.len();
            let conv_mean = stats::mean(&convs).unwrap_or(f64::NAN);
            let pdr = stats::mean(
                &results
                    .iter()
                    .map(|r| r.get(keys::COAP_PDR))
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(f64::NAN);
            let sum_key = |k: &str| -> f64 { results.iter().map(|r| nan0(r.get(k))).sum() };
            let faults = sum_key(keys::CHAOS_FAULTS);
            let detected = sum_key(keys::CHAOS_DETECTED);
            let reconnected = sum_key(keys::CHAOS_RECONNECTED);
            let ttr = mindgap_campaign::agg::concat_series(report, &config, keys::CHAOS_TTR_S);
            let p = |v: &[f64], q| stats::quantile(v, q).unwrap_or(f64::NAN);
            let attempts = sum_key("obs.ll_peer_attempts");
            let successes = sum_key("obs.ll_peer_successes");
            let losses = sum_key("obs.ll_peer_losses");
            let rotations = sum_key("obs.ll_peer_rotations");
            summary_rows.push(format!(
                "{mob},{events},{n},{conv_mean:.3},{unconverged},{pdr:.4},{faults},{detected},\
                 {reconnected},{:.4},{:.4},{attempts},{successes},{losses},{rotations}",
                p(&ttr, 0.5),
                p(&ttr, 0.95),
            ));
            if !ttr.is_empty() {
                let hi = ttr.iter().cloned().fold(f64::MIN, f64::max) * 1.02;
                let grid = stats::linspace(0.0, hi, 33);
                for (x, c) in grid.iter().zip(stats::cdf_at(&ttr, &grid)) {
                    cdf_rows.push(format!("{mob},{events},{x:.4},{c:.5}"));
                }
            }
        }
    }
    vec![
        (
            "mobility,churn_events,nodes,convergence_mean_s,unconverged_runs,coap_pdr,faults,\
             detected,reconnected,ttr_p50_s,ttr_p95_s,peer_attempts,peer_successes,peer_losses,\
             peer_rotations",
            summary_rows,
        ),
        ("mobility,churn_events,x_s,cdf", cdf_rows),
    ]
}

/// Write one CSV file as the figure binaries do.
fn write_csv(path: &Path, header: &str, rows: &[String]) {
    let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for r in rows {
        content.push_str(r);
        content.push('\n');
    }
    std::fs::write(path, content).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
}

/// One job's measurements, kept beside the campaign's own report.
struct JobSide {
    run: WorldRun,
    cpu_s: f64,
    wall_s: f64,
}

/// One campaign run: the engine's report, the measurements of the jobs
/// that ran, and the wall time of `campaign::run`.
struct GridRun {
    report: CampaignReport,
    sides: Vec<Option<JobSide>>,
    wall_s: f64,
}

impl GridRun {
    fn events(&self) -> u64 {
        self.sides.iter().flatten().map(|s| s.run.events).sum()
    }
}

/// Run `grid` through the campaign engine. Job bodies run their spec
/// through [`world::run_spec`].
fn run_grid(ctx: &Ctx, grid: &Grid, resume: bool, parent: u32) -> GridRun {
    let cfg = RunConfig {
        workers: grid.workers,
        out_root: ctx.out.join("campaigns"),
        resume,
        progress: false,
    };
    let index: HashMap<&str, usize> = grid
        .campaign
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i))
        .collect();
    let sides: Mutex<Vec<Option<JobSide>>> =
        Mutex::new(grid.campaign.jobs.iter().map(|_| None).collect());
    let tr = ctx.tr;
    let t0 = Instant::now();
    let report = tr.span("campaign.run", parent, ROOT, |cr| {
        mindgap_campaign::run(&grid.campaign, &cfg, |job| {
            let i = index[job.id.as_str()];
            let run = i as u32 + 1;
            tr.span("campaign.job", cr, run, |js| {
                let (w0, c0) = (Instant::now(), sys::thread_cpu_ns());
                let p = Probe {
                    tr,
                    parent: js,
                    run,
                };
                let mut wr = world::run_spec(&grid.specs[i], p);
                let result = std::mem::take(&mut wr.result);
                sides.lock().expect("job side table poisoned")[i] = Some(JobSide {
                    run: wr,
                    cpu_s: (sys::thread_cpu_ns() - c0) as f64 / 1e9,
                    wall_s: w0.elapsed().as_secs_f64(),
                });
                result
            })
        })
    });
    GridRun {
        report,
        sides: sides.into_inner().expect("job side table poisoned"),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The artifacts of a report in job order (`None` for failed jobs).
fn job_results(report: &CampaignReport) -> Vec<Option<&mindgap_campaign::JobResult>> {
    report.outcomes.iter().map(|(_, s)| s.result()).collect()
}

/// Check one batch and fold it into the child's tally and digest.
fn account(m: &mut Measured, ctx: &Ctx, batch: &str, out: &Outcome, pin_override: Option<Pin>) {
    let pinned = ctx.pins.get(&(batch.to_string(), ctx.seed));
    let pin = pin_override.or_else(|| pinned.cloned());
    let tally = check::check(out, pin.as_ref());
    m.tally += tally;
    let got = out.pin();
    let mut h = Fnv::default();
    h.u64(m.digest)
        .u64(got.events.unwrap_or(0))
        .u64(got.csv.unwrap_or(0));
    for j in &got.jobs {
        h.u64(*j);
    }
    m.digest = h.finish();
    m.pins += &check::format_pin(batch, ctx.seed, &got);
}

/// Time `f` as (part of) the timed phase, in a `bench.timed` span.
fn timed<R>(ctx: &Ctx, m: &mut Measured, f: impl FnOnce(u32) -> R) -> R {
    let (w0, c0) = (Instant::now(), sys::process_cpu_ns());
    let out = ctx.tr.span("bench.timed", ROOT, ROOT, f);
    m.cpu_s += (sys::process_cpu_ns() - c0) as f64 / 1e9;
    m.wall_s += w0.elapsed().as_secs_f64();
    out
}

/// Run `make` in `bench.setup` spans, timing each repetition, and keep
/// the last result. It runs once when `once` is set (a set-up that is a
/// whole campaign), and otherwise at least [`SETUP_MIN_REPS`] times and
/// until [`SETUP_MIN_S`] have passed, so that a set-up of microseconds
/// still yields a steady median. Only the last repetition is traced,
/// and the allocation figures are those of the last repetition.
fn setup<T>(ctx: &Ctx, m: &mut Measured, once: bool, mut make: impl FnMut(Probe) -> T) -> T {
    let quiet = Tracer::new(false);
    let mut spent = 0.0;
    loop {
        let reps = m.setup_s.len() + 1;
        let last =
            once || (reps >= SETUP_MIN_REPS && spent >= SETUP_MIN_S) || reps >= SETUP_MAX_REPS;
        let tr = if last { ctx.tr } else { &quiet };
        alloc::reset_peak();
        let n0 = alloc::total_count();
        let t0 = Instant::now();
        let out = tr.span("bench.setup", ROOT, ROOT, |id| {
            make(Probe {
                tr,
                parent: id,
                run: ROOT,
            })
        });
        let took = t0.elapsed().as_secs_f64();
        m.setup_s.push(took);
        spent += took;
        if last {
            m.alloc.setup_count = alloc::total_count() - n0;
            m.alloc.setup_peak = alloc::peak_bytes();
            alloc::reset_peak();
            return out;
        }
    }
}

/// Campaign counters of one timed campaign run.
fn collect_campaign(m: &mut Measured, grid: &Grid, run: GridRun) {
    let c = &mut m.collect;
    let ran = run
        .report
        .outcomes
        .iter()
        .filter(|(_, s)| !matches!(s, JobStatus::Cached(_)))
        .count();
    c.jobs_run += ran as u64;
    c.jobs_cached += run.report.cached() as u64;
    c.pool_capacity_s += grid.workers.min(ran) as f64 * run.wall_s;
    for side in run.sides.into_iter().flatten() {
        c.job_cpu_s.push(side.cpu_s);
        c.job_wall_s.push(side.wall_s);
        c.runs.push(side.run);
    }
}

fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("jobs"))
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// After the timed phase of a traced child: load every stored artifact
/// once more, in a `campaign.store_load` span, for the store's read cost.
fn sweep_store(ctx: &Ctx, grid: &Grid, m: &mut Measured) {
    let store =
        mindgap_campaign::ArtifactStore::new(&ctx.out.join("campaigns"), &grid.campaign.name);
    m.collect.store_bytes = store_bytes(store.dir());
    if ctx.tr.on() {
        ctx.tr.span("campaign.store_load", ROOT, ROOT, |_| {
            for job in &grid.campaign.jobs {
                std::hint::black_box(store.load(job));
            }
        });
    }
}

/// Timed campaign run, then aggregation and CSVs. Returns the run and
/// the CSV digest.
fn grid_pass(ctx: &Ctx, m: &mut Measured, grid: &Grid, resume: bool) -> (GridRun, u64) {
    timed(ctx, m, |top| {
        let run = run_grid(ctx, grid, resume, top);
        let files = ctx
            .tr
            .span("bench.aggregate", top, ROOT, |_| (grid.figure)(&run.report));
        ctx.tr.span("bench.csv_write", top, ROOT, |_| {
            for (i, (header, rows)) in files.iter().enumerate() {
                write_csv(&ctx.out.join(format!("figure{i}.csv")), header, rows);
            }
        });
        (run, csv_digest(&files))
    })
}

/// `fig15-quick` and `churn-peers`: one campaign over a fresh store.
fn fresh_grid(ctx: &Ctx, m: &mut Measured, make: fn(u64, Probe) -> Grid) {
    let store_root = ctx.out.join("campaigns");
    let grid = setup(ctx, m, false, |p| {
        std::fs::remove_dir_all(&store_root).ok();
        let grid = make(ctx.seed, p);
        // Set-up covers `World::new` here as on `mesh500`: build every
        // job's world once and drop it. The campaign builds it again
        // inside the job, as the program does, so the timed phase and
        // peak memory are unchanged.
        for spec in &grid.specs {
            drop(world::build(spec));
        }
        grid
    });
    let (run, csv) = grid_pass(ctx, m, &grid, false);
    m.alloc.run_peak = alloc::peak_bytes();
    m.events += run.events();
    let outcome = Outcome {
        jobs: job_results(&run.report),
        events: Some(run.events()),
        csv: Some(csv),
    };
    account(m, ctx, &grid.campaign.name, &outcome, None);
    collect_campaign(m, &grid, run);
    sweep_store(ctx, &grid, m);
}

/// File in the working directory where `fig15-fill` leaves the kernel
/// events of the jobs it ran, which `fig15-resume` then serves.
const FILL_EVENTS: &str = "fill-events";

/// `fig15-fill`, the set-up of `fig15-resume`, in a child of its own:
/// fill the store with the `fig15-quick` grid. The whole fill is its
/// set-up time; it has no timed phase.
fn fig15_fill(ctx: &Ctx, m: &mut Measured) {
    let (grid, run) = setup(ctx, m, true, |p| {
        std::fs::remove_dir_all(ctx.out.join("campaigns")).ok();
        let grid = Grid::fig15(ctx.seed, p);
        let run = run_grid(ctx, &grid, false, p.parent);
        (grid, run)
    });
    let outcome = Outcome {
        jobs: job_results(&run.report),
        events: Some(run.events()),
        csv: Some(csv_digest(&(grid.figure)(&run.report))),
    };
    account(m, ctx, &grid.campaign.name, &outcome, None);
    let path = ctx.out.join(FILL_EVENTS);
    std::fs::write(&path, run.events().to_string())
        .unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
}

/// `fig15-resume`: relaunch the `fig15-quick` grid [`RESUMES`] times
/// over the store `fig15-fill` left in the working directory.
fn fig15_resume(ctx: &Ctx, m: &mut Measured) {
    let grid = setup(ctx, m, false, |p| Grid::fig15(ctx.seed, p));
    let path = ctx.out.join(FILL_EVENTS);
    let served: u64 = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no store fill at {path:?}: fig15-fill runs first"));
    // Resumed jobs carry no event count: check the figure and the jobs.
    let pin = ctx
        .pins
        .get(&(grid.campaign.name.clone(), ctx.seed))
        .map(|p| Pin {
            events: None,
            ..p.clone()
        });
    for _ in 0..RESUMES {
        let (run, csv) = grid_pass(ctx, m, &grid, true);
        m.events += served;
        let outcome = Outcome {
            jobs: job_results(&run.report),
            events: None,
            csv: Some(csv),
        };
        account(m, ctx, &grid.campaign.name, &outcome, pin.clone());
        collect_campaign(m, &grid, run);
    }
    m.alloc.run_peak = alloc::peak_bytes();
    sweep_store(ctx, &grid, m);
}

/// `mesh500`: one serial 500-node random-geometric RPL mesh.
fn mesh500(ctx: &Ctx, m: &mut Measured) {
    let spec = setup(ctx, m, false, |p| {
        let p = Probe { run: 1, ..p };
        let mesh = p.span("testbed.topology", || {
            MeshTopology::random_geometric(500, 800.0, ctx.seed)
        });
        let spec = ExperimentSpec::mesh_default(
            mesh,
            IntervalPolicy::Randomized {
                lo: Duration::from_millis(65),
                hi: Duration::from_millis(85),
            },
            ctx.seed,
        )
        .with_duration(Duration::from_secs(120));
        // As on the campaign workloads: set-up builds the world once and
        // drops it; the timed run builds it again, as the program does.
        drop(world::build(&spec));
        spec
    });
    let run = timed(ctx, m, |top| {
        let p = Probe {
            tr: ctx.tr,
            parent: top,
            run: 1,
        };
        catch_unwind(AssertUnwindSafe(|| world::run_spec(&spec, p))).ok()
    });
    m.alloc.run_peak = alloc::peak_bytes();
    let events = run.as_ref().map_or(0, |r| r.events);
    m.events += events;
    let outcome = Outcome {
        jobs: vec![run.as_ref().map(|r| &r.result)],
        events: Some(events),
        csv: None,
    };
    account(m, ctx, "mesh500", &outcome, None);
    if let Some(mut r) = run {
        r.result = Default::default();
        m.collect.runs.push(r);
    }
}
