//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--print-pins]
//! ```
//!
//! Run from the repository root. Each workload runs in fresh child
//! processes of this binary, so peak memory is the workload's own.
//! `--trace 0` times untraced children until `--seconds` of timed phase
//! have passed and prints the end-to-end metrics. `--trace 1` runs one
//! untraced child and one traced child (spans and counting allocator on)
//! and prints the per-layer metrics; the traced child must reproduce the
//! untraced one's outputs exactly.
//! `--print-pins` prints the output digests of one untraced child in
//! `digests.txt` form instead. The last line of standard output is one
//! JSON object; see README.md for every metric.

mod alloc;
mod check;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Output digests at the pinned seed.
const PINS: &str = include_str!("../digests.txt");

/// Working space for children and the span files, relative to the
/// repository root.
const OUT_DIR: &str = "perfbench/out";

/// End-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_cpu_s", "ev/s"),
    ("peak_rss_mb", "MiB"),
];

const USAGE: &str = "usage: perfbench --workload <fig15-quick|mesh500|churn-peers|fig15-resume> \
                     --seed <n> --seconds <s> --trace <0|1> [--print-pins]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--child") {
        child(&args[1..])
    } else {
        parent(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs; `switches` may appear without a value.
fn flags(args: &[String], switches: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a}\n{USAGE}"))?;
        let value = if switches.contains(&key) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value\n{USAGE}"))?
                .clone()
        };
        if out.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

fn take<T: std::str::FromStr>(f: &mut BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let v = f
        .remove(key)
        .ok_or_else(|| format!("missing --{key}\n{USAGE}"))?;
    v.parse()
        .map_err(|_| format!("--{key}: cannot parse {v:?}"))
}

fn workload_arg(
    f: &mut BTreeMap<String, String>,
    key: &str,
    known: &[&str],
) -> Result<String, String> {
    let w: String = take(f, key)?;
    if !known.contains(&w.as_str()) {
        return Err(format!("unknown workload {w:?}\n{USAGE}"));
    }
    Ok(w)
}

fn bool_arg(f: &mut BTreeMap<String, String>, key: &str) -> Result<bool, String> {
    match take::<u8>(f, key)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("--{key} must be 0 or 1, not {v}")),
    }
}

fn reject_rest(f: &BTreeMap<String, String>) -> Result<(), String> {
    match f.keys().next() {
        Some(k) => Err(format!("unknown flag --{k}\n{USAGE}")),
        None => Ok(()),
    }
}

/// A child's report, parsed from its standard output.
#[derive(Debug, Default)]
struct Report {
    setup_s: Vec<f64>,
    scalars: BTreeMap<String, f64>,
    layer: Vec<(String, f64)>,
    digest: String,
    pins: String,
}

impl Report {
    fn get(&self, key: &str) -> f64 {
        self.scalars[key]
    }
}

/// One benchmark run: its children run one after another and share a
/// working directory, which is removed when the run ends.
struct Run {
    workload: String,
    seed: u64,
    dir: PathBuf,
}

impl Run {
    fn new(workload: String, seed: u64) -> Result<Run, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Run {
            workload,
            seed,
            dir,
        })
    }

    /// The set-up child, for a workload whose set-up runs in a child of
    /// its own (`fig15-resume`: the store fill).
    fn prepare(&self) -> Result<Option<Report>, String> {
        if self.workload == "fig15-resume" {
            return self.spawn(workloads::FILL, false).map(Some);
        }
        Ok(None)
    }

    /// Run one child of this run's workload and parse its report.
    fn child(&self, traced: bool) -> Result<Report, String> {
        self.spawn(&self.workload, traced)
    }

    /// A traced child also counts allocations: the allocator's cost is
    /// part of the tracing overhead and stays out of untraced timings.
    fn spawn(&self, workload: &str, traced: bool) -> Result<Report, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let out = Command::new(exe)
            .args([
                "--child",
                "--workload",
                workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .args(["--traced", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&self.dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child: {e}"))?;
        if !out.status.success() {
            return Err(format!("{workload} child failed: {}", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|_| "child output is not UTF-8")?;
        parse_report(&text).map_err(|e| format!("{workload} child: {e}"))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn parse_report(text: &str) -> Result<Report, String> {
    let mut r = Report::default();
    for line in text.lines() {
        let mut f = line.splitn(3, ' ');
        let (kind, key, value) = (f.next(), f.next(), f.next());
        let num = || -> Result<f64, String> {
            value
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad line {line:?}"))
        };
        match (kind, key) {
            (Some("S"), Some(_)) => r.setup_s.push(num()?),
            (Some("R"), Some("digest")) => r.digest = value.unwrap_or("").to_string(),
            (Some("R"), Some(k)) => {
                r.scalars.insert(k.to_string(), num()?);
            }
            (Some("L"), Some(k)) => r.layer.push((k.to_string(), num()?)),
            (Some("P"), Some(_)) => {
                r.pins += &line[2..];
                r.pins.push('\n');
            }
            _ => {}
        }
    }
    if r.setup_s.is_empty() || r.digest.is_empty() {
        return Err("printed no report".into());
    }
    Ok(r)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("perfbench: non-finite metric value {v}, reported as 0");
        "0".to_string()
    }
}

/// Print the result line.
fn emit(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Median, tail and sample count of one timing, for the log.
fn log_timing(name: &str, samples: &[f64]) {
    let t = stats::tail(samples);
    eprintln!(
        "[perfbench] {name}: median {:.6} p{} {:.6} (n={})",
        stats::median(samples),
        t.pct,
        t.value,
        t.n
    );
}

fn parent(args: &[String]) -> Result<(), String> {
    let mut f = flags(args, &["print-pins"])?;
    let print_pins = f.remove("print-pins").is_some();
    let workload = workload_arg(&mut f, "workload", &workloads::NAMES)?;
    let seed: u64 = take(&mut f, "seed")?;
    if print_pins {
        reject_rest(&f)?;
        let run = Run::new(workload, seed)?;
        let report = match run.prepare()? {
            Some(fill) => fill,
            None => run.child(false)?,
        };
        print!("{}", report.pins);
        return Ok(());
    }
    let seconds: f64 = take(&mut f, "seconds")?;
    let trace = bool_arg(&mut f, "trace")?;
    reject_rest(&f)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let run = Run::new(workload, seed)?;
    let prep = run.prepare()?;
    let tally = |reports: &[&Report]| -> (u64, u64) {
        let sum = |k: &str| {
            reports
                .iter()
                .chain(&prep.as_ref())
                .map(|r| r.get(k) as u64)
                .sum()
        };
        (sum("attempted"), sum("failed"))
    };

    if trace {
        let base = run.child(false)?;
        let traced = run.child(true)?;
        let (attempted, mut failed) = tally(&[&base, &traced]);
        if traced.digest != base.digest {
            eprintln!(
                "[perfbench] traced run diverged from the untraced run ({} vs {})",
                traced.digest, base.digest
            );
            // Every operation of the traced child fails; do not count
            // its own failures twice.
            failed += (traced.get("attempted") - traced.get("failed")) as u64;
        }
        let mut values: BTreeMap<&str, f64> =
            traced.layer.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        values.insert("trace.untraced_cpu_s", base.get("cpu_s"));
        values.insert(
            "trace.overhead_cpu_s",
            traced.get("cpu_s") - base.get("cpu_s"),
        );
        let metrics: Vec<(&str, &str, f64)> = layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied();
                v.map(|v| (name, unit, v))
                    .ok_or_else(|| format!("child did not report {name}"))
            })
            .collect::<Result<_, _>>()?;
        eprintln!(
            "[perfbench] spans: {OUT_DIR}/spans-{}.jsonl; tracing overhead {:.3} s CPU \
             ({:.3} traced vs {:.3} untraced)",
            run.workload,
            traced.get("cpu_s") - base.get("cpu_s"),
            traced.get("cpu_s"),
            base.get("cpu_s")
        );
        emit(attempted, failed, &metrics);
        return Ok(());
    }

    let mut timed = Vec::new();
    let mut total = 0.0;
    while timed.is_empty() || total < seconds {
        let r = run.child(false)?;
        total += r.get("wall_s");
        timed.push(r);
    }
    let (attempted, mut failed) = tally(&timed.iter().collect::<Vec<_>>());
    // Same seed, same work: every child must produce the same outputs.
    for r in timed.iter().filter(|r| r.digest != timed[0].digest) {
        failed += (r.get("attempted") - r.get("failed")) as u64;
    }
    let col = |key: &str| timed.iter().map(|r| r.get(key)).collect::<Vec<f64>>();
    let setup: Vec<f64> = match &prep {
        Some(p) => p.setup_s.clone(),
        None => timed
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect(),
    };
    let rate: Vec<f64> = timed
        .iter()
        .map(|r| r.get("events") / r.get("cpu_s"))
        .collect();
    let rss_mb: Vec<f64> = col("peak_rss_kib").iter().map(|k| k / 1024.0).collect();
    for (name, samples) in [
        ("setup_s", &setup),
        ("wall_s", &col("wall_s")),
        ("cpu_s", &col("cpu_s")),
    ] {
        log_timing(name, samples);
    }
    let values = [
        stats::median(&setup),
        stats::median(&col("wall_s")),
        stats::median(&col("cpu_s")),
        stats::median(&rate),
        stats::median(&rss_mb),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    emit(attempted, failed, &metrics);
    Ok(())
}

fn child(args: &[String]) -> Result<(), String> {
    let mut f = flags(args, &[])?;
    let workload = workload_arg(
        &mut f,
        "workload",
        &[&workloads::NAMES[..], &[workloads::FILL]].concat(),
    )?;
    let seed: u64 = take(&mut f, "seed")?;
    let traced = bool_arg(&mut f, "traced")?;
    let out: PathBuf = take(&mut f, "out")?;
    reject_rest(&f)?;
    if traced {
        alloc::enable();
    }
    let tr = trace::Tracer::new(traced);
    let pins = check::parse_pins(PINS)?;
    let ctx = workloads::Ctx {
        tr: &tr,
        seed,
        out,
        pins: &pins,
    };
    let mut m = workloads::run(&workload, &ctx);
    m.alloc.process_peak = alloc::process_peak_bytes();
    let rss = sys::peak_rss_kib();

    let mut report = String::new();
    for s in &m.setup_s {
        report += &format!("S setup {s}\n");
    }
    let scalars = [
        ("wall_s", m.wall_s),
        ("cpu_s", m.cpu_s),
        ("events", m.events as f64),
        ("attempted", m.tally.attempted as f64),
        ("failed", m.tally.failed as f64),
        ("peak_rss_kib", rss as f64),
    ];
    for (k, v) in scalars {
        report += &format!("R {k} {v}\n");
    }
    report += &format!("R digest {:016x}\n", m.digest);
    for line in m.pins.lines() {
        report += &format!("P {line}\n");
    }
    if traced {
        let spans = tr.into_spans();
        for (name, v) in layers::compute(&m, &spans) {
            report += &format!("L {name} {v}\n");
        }
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{workload}.jsonl"));
        std::fs::write(&path, trace::to_jsonl(&spans))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    print!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindgap_campaign::json::Value;

    /// `(name, unit)` of every entry of one list in `BENCHMARK.json`.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, k: &str| {
            let v = m.as_obj().unwrap().get(k);
            v.and_then(Value::as_str).unwrap_or("").to_string()
        };
        doc.as_obj().unwrap()[key]
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }

    #[test]
    fn child_report_round_trips() {
        let r = parse_report(
            "S setup 0.5\nR cpu_s 1.25\nR digest 00ff\nL sim.events 7\nP mesh500 42 events 7\n",
        )
        .unwrap();
        assert_eq!(r.setup_s, vec![0.5]);
        assert_eq!(r.get("cpu_s"), 1.25);
        assert_eq!(r.digest, "00ff");
        assert_eq!(r.layer, vec![("sim.events".to_string(), 7.0)]);
        assert_eq!(r.pins, "mesh500 42 events 7\n");
        assert!(
            parse_report("R cpu_s 1\n").is_err(),
            "a report needs set-up and digest"
        );
    }
}
