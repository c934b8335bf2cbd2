//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span is a name, a start and an end on one wall clock, the thread
//! CPU time it used, the span that caused it and the run (world or
//! campaign job) it belongs to. Spans stay in memory until the child
//! ends, then go to a JSON-lines file. With tracing off, [`Tracer::span`]
//! just calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sys;

/// Parent id of a span that has none.
pub const ROOT: u32 = 0;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub run: u32,
    pub name: &'static str,
    /// Wall-clock start and end, ns since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time of the thread that ran the span, ns.
    pub cpu_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's
    /// id, to pass as the parent of the spans it opens.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        run: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let cpu0 = sys::thread_cpu_ns();
        let out = f(id);
        let cpu_ns = sys::thread_cpu_ns() - cpu0;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer poisoned by a panic")
            .push(Span {
                id,
                parent,
                run,
                name,
                start_ns,
                end_ns,
                cpu_ns,
            });
        out
    }

    /// The recorded spans, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span buffer poisoned by a panic");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, in ns: its wall time minus the part of its
/// interval that its children cover. Children running at the same time
/// on different threads cover an instant once.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map(Vec::as_mut_slice)
                .unwrap_or(&mut []);
            s.wall_ns() - covered(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// One JSON object per line: name, id, parent, run, start, end, cpu.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            s.name, s.id, s.parent, s.run, s.start_ns, s.end_ns, s.cpu_ns
        )
        .expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns,
            end_ns,
            cpu_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 ⊃ a 10..30, b 40..90 ⊃ c 50..60
        let spans = [
            span(1, ROOT, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 40, 90),
            span(4, 3, "c", 50, 60),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn concurrent_children_cover_an_instant_once() {
        // Two workers' jobs overlap: 10..60 and 30..80 cover 10..80.
        let spans = [
            span(1, ROOT, "campaign", 0, 100),
            span(2, 1, "job", 10, 60),
            span(3, 1, "job", 30, 80),
        ];
        assert_eq!(self_ns(&spans), vec![30, 50, 50]);
        let by_name = self_secs_by_name(&spans);
        assert_eq!(by_name["job"], 100e-9);
        assert_eq!(by_name["campaign"], 30e-9);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, ROOT, "p", 10, 20), span(2, 1, "late", 15, 40)];
        assert_eq!(self_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn off_tracer_records_nothing_and_passes_root() {
        let t = Tracer::new(false);
        let id = t.span("x", ROOT, 0, |id| id);
        assert_eq!(id, ROOT);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn on_tracer_links_parent_ids() {
        let t = Tracer::new(true);
        t.span("outer", ROOT, 7, |outer| {
            t.span("inner", outer, 7, |_| ());
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.run, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
