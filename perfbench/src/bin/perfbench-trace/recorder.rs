//! In-memory span recorder for the traced replay.
//!
//! A span is a named interval with a parent, the thread that ran it and
//! the job it served (the request id). Spans stay in memory until the
//! pass ends; counters attach to the span whose boundary produced them.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `compiler.compile`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started; `0` while open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Small per-process thread number.
    pub thread: u32,
    /// Index of the job this span served, if it served one.
    pub request: Option<usize>,
    /// Counts measured at this span's boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The value of counter `name`, or 0.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(n, _)| *n == name)
            .fold(0.0, |acc, (_, v)| acc + v)
    }
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

/// Collects the spans of one traced pass.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a recorder user panicked while holding the span list")
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<usize>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                thread: thread_number(),
                request,
                counters: Vec::new(),
            });
            spans.len() - 1
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// Attaches counter `name` to span `id`.
    pub fn count(&self, id: SpanId, name: &'static str, value: f64) {
        self.lock()[id].counters.push((name, value));
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a recorder user panicked while holding the span list")
    }
}

/// Spans of one pass, queried by name.
pub struct Trace {
    /// Every span, in the order they were opened.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |acc, s| acc + s.seconds())
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.named(name).count() as f64
    }

    /// Sum of counter `counter` over the spans named `name`.
    pub fn counter(&self, name: &str, counter: &str) -> f64 {
        self.named(name)
            .fold(0.0, |acc, s| acc + s.counter(counter))
    }

    /// The spans as Chrome trace-event JSON (complete events, times in
    /// microseconds), viewable in chrome://tracing or ui.perfetto.dev.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \
                 \"request\": {}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request.map_or("null".to_owned(), |r| r.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_chrome_trace_events() {
        let rec = Recorder::new();
        rec.span("outer", None, None, |outer| {
            rec.span("inner", Some(outer), Some(3), |inner| {
                rec.count(inner, "n", 2.0);
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let trace = Trace {
            spans: rec.into_spans(),
        };
        let inner = trace.named("inner").next().unwrap();
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.request, Some(3));
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(trace.seconds("outer") >= trace.seconds("inner"));
        let json = trace.to_chrome_json();
        assert!(json.contains("\"parent\": 0, \"request\": 3"), "{json}");
        assert_eq!(trace.counter("inner", "n"), 2.0);
        assert_eq!(trace.calls("inner"), 1.0);
    }
}
