//! Spans around the benchmark's calls into the simulator's crates.
//!
//! Every timed call goes through [`Tracer::span`], traced or not: the
//! untraced passes need the CPU times for their end-to-end metrics, and
//! only a traced pass keeps the span records. Records stay in memory
//! until the run ends, then [`write_json`] writes them out.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cputime;

/// One timed call: its name, interval (ns since the run started), the
/// CPU time its thread spent in it, the span that caused it, and the
/// cell it served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The called entry point, as `<crate>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// CPU time of the calling thread inside the call, ns.
    pub cpu_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The workload cell this call served, if any.
    pub cell: Option<u64>,
}

/// Times calls and, while recording, keeps a [`Span`] for each.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that keeps span records only if `recording`.
    pub fn new(recording: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            recording,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` (handing it this span's id, for children), returning its
    /// value and the calling thread's CPU time inside it.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        cell: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        // Relaxed: the counter only has to hand out distinct ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let cpu_start = cputime::thread();
        let value = f(id);
        let cpu = cputime::thread() - cpu_start;
        let end = Instant::now();
        if self.recording {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans
                .lock()
                .expect("a thread panicked while pushing a span")
                .push(Span {
                    id,
                    name,
                    start_ns: ns(start),
                    end_ns: ns(end),
                    cpu_ns: cpu.as_nanos() as u64,
                    parent,
                    cell,
                });
        }
        (value, cpu)
    }

    /// The kept spans, ordered by start.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a thread panicked while pushing a span");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Renders `spans` as a JSON array of objects, one per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"parent\":{},\"cell\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.cpu_ns,
            opt(s.parent),
            opt(s.cell)
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Writes [`to_json`] of `spans` to `path`, creating its directory.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let tr = Tracer::new(true);
        let (inner, _) = tr.span("outer", None, Some(3), |outer| {
            tr.span("inner", Some(outer), Some(3), |_| 7).0
        });
        assert_eq!(inner, 7);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!((outer.name, inner.name), ("outer", "inner"));
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let text = to_json(&spans);
        let parsed = awg_sim::json::parse(&text).unwrap();
        let awg_sim::json::Value::Array(items) = parsed else {
            panic!("not an array: {text}")
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn a_silent_tracer_still_times() {
        let tr = Tracer::new(false);
        let (_, cpu) = tr.span("spin", None, None, |_| {
            let start = cputime::thread();
            while cputime::thread() - start < Duration::from_millis(20) {
                std::hint::spin_loop();
            }
        });
        assert!(cpu >= Duration::from_millis(20), "{cpu:?}");
        assert!(tr.into_spans().is_empty());
    }
}
