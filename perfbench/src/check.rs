//! Output checks and failure accounting.
//!
//! A job's digest covers the values the figures read from it: CoAP
//! requests sent and completed, CoAP and link-layer PDR, and the sorted
//! RTT series. A batch (one campaign or world run) adds its kernel event
//! count and its CSV rows. The raw artifact JSON is not hashed, so a
//! change to the artifact schema that leaves the figures alone is not a
//! failure.
//!
//! At a pinned seed every digest must match `digests.txt`. At any other
//! seed the checks are invariants: done ≤ sent, ratios in [0, 1], RTTs
//! finite and non-negative, events > 0.

use std::collections::BTreeMap;

use mindgap_campaign::JobResult;
use mindgap_testbed::campaign::keys;

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the values a figure reads from one job.
pub fn job_digest(jr: &JobResult) -> u64 {
    let mut h = Fnv::default();
    h.f64(jr.get(keys::TOTAL_SENT))
        .f64(jr.get(keys::TOTAL_DONE))
        .f64(jr.get(keys::COAP_PDR))
        .f64(jr.get(keys::LL_PDR));
    let rtt = jr.get_series(keys::RTT_S);
    h.u64(rtt.len() as u64);
    for &v in rtt {
        h.f64(v);
    }
    h.finish()
}

/// Digest of a figure's CSV files (header and rows).
pub fn csv_digest(files: &[(&str, Vec<String>)]) -> u64 {
    let mut h = Fnv::default();
    for (header, rows) in files {
        h.bytes(header.as_bytes()).bytes(b"\n");
        for r in rows.iter() {
            h.bytes(r.as_bytes()).bytes(b"\n");
        }
    }
    h.finish()
}

/// Invariants every job must meet at any seed.
pub fn job_invariants_hold(jr: &JobResult) -> bool {
    let sent = jr.get(keys::TOTAL_SENT);
    let done = jr.get(keys::TOTAL_DONE);
    let ratio = |v: f64| (0.0..=1.0).contains(&v);
    let rtt = jr.get_series(keys::RTT_S);
    sent >= 0.0
        && done >= 0.0
        && done <= sent
        && ratio(jr.get(keys::LL_PDR))
        && (sent == 0.0 || ratio(jr.get(keys::COAP_PDR)))
        && rtt.iter().all(|v| v.is_finite() && *v >= 0.0)
}

/// Pinned outputs of one batch at one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pin {
    pub events: Option<u64>,
    pub csv: Option<u64>,
    pub jobs: Vec<u64>,
}

/// Pins by `(batch name, seed)`.
pub type Pins = BTreeMap<(String, u64), Pin>;

/// Parse `digests.txt`: `<batch> <seed> events <n>`,
/// `<batch> <seed> csv <hex>` and `<batch> <seed> job <index> <hex>`
/// lines, jobs in index order; `#` starts a comment.
pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || format!("digests.txt line {}: cannot parse {line:?}", no + 1);
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
        let f: Vec<&str> = line.split_whitespace().collect();
        let [batch, seed, rest @ ..] = f.as_slice() else {
            return Err(bad());
        };
        let pin = pins.entry((batch.to_string(), num(seed)?)).or_default();
        match rest {
            ["events", n] => pin.events = Some(num(n)?),
            ["csv", h] => pin.csv = Some(hex(h)?),
            ["job", i, h] if num(i)? == pin.jobs.len() as u64 => pin.jobs.push(hex(h)?),
            _ => return Err(bad()),
        }
    }
    Ok(pins)
}

/// Render pins back in `digests.txt` form.
pub fn format_pin(batch: &str, seed: u64, pin: &Pin) -> String {
    let mut out = String::new();
    if let Some(e) = pin.events {
        out += &format!("{batch} {seed} events {e}\n");
    }
    if let Some(c) = pin.csv {
        out += &format!("{batch} {seed} csv {c:016x}\n");
    }
    for (i, j) in pin.jobs.iter().enumerate() {
        out += &format!("{batch} {seed} job {i} {j:016x}\n");
    }
    out
}

/// What one batch produced, for checking.
pub struct Outcome<'a> {
    /// Each job's artifact, or `None` if the job panicked.
    pub jobs: Vec<Option<&'a JobResult>>,
    /// Kernel events of the batch (`None` when it simulated nothing).
    pub events: Option<u64>,
    /// CSV digest (`None` when the batch writes no figure).
    pub csv: Option<u64>,
}

impl Outcome<'_> {
    /// The digests of this outcome, in [`Pin`] form.
    pub fn pin(&self) -> Pin {
        Pin {
            events: self.events,
            csv: self.csv,
            jobs: self.jobs.iter().map(|j| j.map_or(0, job_digest)).collect(),
        }
    }
}

/// Operations attempted and failed in one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Check one batch. Every job is an operation; it fails if it panicked,
/// breaks an invariant, or (at a pinned seed) its digest differs. A
/// wrong event count or CSV fails every job of the batch, since the
/// figure they feed is wrong.
pub fn check(out: &Outcome, pin: Option<&Pin>) -> Tally {
    let attempted = out.jobs.len() as u64;
    let batch_ok = match pin {
        Some(p) => {
            p.jobs.len() == out.jobs.len()
                && (p.events.is_none() || p.events == out.events)
                && (p.csv.is_none() || p.csv == out.csv)
        }
        None => out.events.is_none_or(|e| e > 0),
    };
    if !batch_ok {
        return Tally {
            attempted,
            failed: attempted,
        };
    }
    let failed = out
        .jobs
        .iter()
        .enumerate()
        .filter(|(i, jr)| match jr {
            None => true,
            Some(jr) => {
                !job_invariants_hold(jr) || pin.is_some_and(|p| p.jobs[*i] != job_digest(jr))
            }
        })
        .count() as u64;
    Tally { attempted, failed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindgap_campaign::{GridBuilder, JobStatus, RunConfig};

    fn job(sent: f64, done: f64, rtt: Vec<f64>) -> JobResult {
        let mut jr = JobResult::new("t");
        jr.metric(keys::TOTAL_SENT, sent)
            .metric(keys::TOTAL_DONE, done)
            .metric(keys::COAP_PDR, if sent > 0.0 { done / sent } else { 0.0 })
            .metric(keys::LL_PDR, 0.99)
            .series(keys::RTT_S, rtt);
        jr
    }

    fn outcome<'a>(jobs: &'a [JobResult]) -> Outcome<'a> {
        Outcome {
            jobs: jobs.iter().map(Some).collect(),
            events: Some(1234),
            csv: Some(csv_digest(&[("h", vec!["1,2".to_string()])])),
        }
    }

    #[test]
    fn matching_pin_passes() {
        let jobs = [job(10.0, 9.0, vec![0.1, 0.2]), job(5.0, 5.0, vec![0.3])];
        let out = outcome(&jobs);
        let pin = out.pin();
        assert_eq!(
            check(&out, Some(&pin)),
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        assert_eq!(
            check(&out, None),
            Tally {
                attempted: 2,
                failed: 0
            }
        );
    }

    #[test]
    fn perturbed_job_digest_fails_that_job() {
        let jobs = [job(10.0, 9.0, vec![0.1, 0.2]), job(5.0, 5.0, vec![0.3])];
        let out = outcome(&jobs);
        let mut pin = out.pin();
        pin.jobs[1] ^= 1;
        assert_eq!(check(&out, Some(&pin)).failed, 1);
        // A one-ulp change in one RTT sample changes the digest.
        let mut moved = jobs.clone();
        moved[0].series(keys::RTT_S, vec![0.1, f64::from_bits(0.2f64.to_bits() + 1)]);
        assert_eq!(check(&outcome(&moved), Some(&out.pin())).failed, 1);
    }

    #[test]
    fn perturbed_csv_or_events_fails_the_batch() {
        let jobs = [job(10.0, 9.0, vec![0.1]), job(5.0, 5.0, vec![0.3])];
        let out = outcome(&jobs);
        let mut pin = out.pin();
        pin.csv = Some(pin.csv.unwrap() ^ 1);
        assert_eq!(
            check(&out, Some(&pin)),
            Tally {
                attempted: 2,
                failed: 2
            }
        );
        let mut pin = out.pin();
        pin.events = Some(1235);
        assert_eq!(check(&out, Some(&pin)).failed, 2);
    }

    #[test]
    fn broken_invariants_fail_at_unpinned_seeds() {
        let jobs = [job(10.0, 11.0, vec![0.1]), job(5.0, 5.0, vec![-0.3])];
        assert_eq!(check(&outcome(&jobs), None).failed, 2);
        let ok = [job(10.0, 9.0, vec![0.1])];
        let no_events = Outcome {
            events: Some(0),
            ..outcome(&ok)
        };
        assert_eq!(check(&no_events, None).failed, 1);
    }

    #[test]
    fn panicking_job_counts_as_failed() {
        let c = GridBuilder::new("perfbench-panic", 1)
            .axis("k", ["0", "1", "2"])
            .build();
        let dir = std::env::temp_dir().join(format!("perfbench-panic-{}", std::process::id()));
        let cfg = RunConfig {
            workers: 2,
            out_root: dir.clone(),
            resume: false,
            progress: false,
        };
        let report = mindgap_campaign::run(&c, &cfg, |j| {
            assert!(j.params["k"] != "1", "injected failure");
            job(10.0, 9.0, vec![0.1])
        });
        std::fs::remove_dir_all(&dir).ok();
        let jobs = report
            .outcomes
            .iter()
            .map(|(_, s)| match s {
                JobStatus::Done(r) | JobStatus::Cached(r) => Some(r),
                JobStatus::Failed(_) => None,
            })
            .collect();
        let out = Outcome {
            jobs,
            events: Some(1),
            csv: None,
        };
        assert_eq!(
            check(&out, None),
            Tally {
                attempted: 3,
                failed: 1
            }
        );
    }

    #[test]
    fn pins_round_trip_through_text() {
        let pin = Pin {
            events: Some(21_177_818),
            csv: Some(0xdead_beef),
            jobs: vec![1, 0xffff_ffff_ffff_ffff],
        };
        let text = format!("# comment\n{}", format_pin("mesh500", 42, &pin));
        let pins = parse_pins(&text).unwrap();
        assert_eq!(pins[&("mesh500".to_string(), 42)], pin);
    }
}
