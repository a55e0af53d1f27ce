//! The traced run's span log and telemetry helpers.
//!
//! Spans are recorded from the benchmark's own code only: around each
//! `Study::run`, around each `Scenario::evaluate` (through [`Traced`], a
//! delegating scenario wrapper), and around each isolated layer call. They
//! are kept in memory and written out once, when the benchmark ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cfs_model::{CfsError, RunSpec, Scenario, ScenarioOutput, TelemetrySnapshot};

/// One closed span: `parent` is the id of the span that caused it (the
/// study run around a scenario), `thread` a small per-thread number.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub layer: &'static str,
    pub thread: u64,
    pub start_s: f64,
    pub end_s: f64,
}

impl SpanRecord {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span store shared by every thread of the traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    /// Id of the study-run span currently open, the parent of the
    /// scenario spans the pool threads record.
    current_run: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            current_run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Runs `body` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn record<R>(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<u64>,
        body: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let result = body(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            layer,
            thread: THREAD.with(|t| *t),
            start_s: start,
            end_s: end,
        });
        (result, end - start)
    }

    /// Opens the study-run span that scenario spans attach to.
    pub fn study_run<R>(&self, name: &str, body: impl FnOnce() -> R) -> (R, f64) {
        self.record(name, "core", None, |id| {
            self.current_run.store(id, Ordering::Relaxed);
            let result = body();
            self.current_run.store(0, Ordering::Relaxed);
            result
        })
    }

    /// Every span closed so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The id the next span will get.
    pub fn cursor(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": {:?}, \"layer\": {:?}, \
                 \"thread\": {}, \"start_s\": {}, \"end_s\": {}}}{}\n",
                s.id,
                s.name,
                s.layer,
                s.thread,
                s.start_s,
                s.end_s,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Wall seconds per layer of a set of spans from one study run: every
/// instant is split evenly among the spans open at that instant.
pub fn wall_by_layer(spans: &[SpanRecord]) -> Vec<(&'static str, f64)> {
    let mut times: Vec<f64> = spans.iter().flat_map(|s| [s.start_s, s.end_s]).collect();
    times.sort_by(f64::total_cmp);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for window in times.windows(2) {
        let (from, to) = (window[0], window[1]);
        let open: Vec<&SpanRecord> =
            spans.iter().filter(|s| s.start_s <= from && s.end_s >= to).collect();
        for span in &open {
            let part = (to - from) / open.len() as f64;
            match out.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, seconds)) => *seconds += part,
                None => out.push((span.layer, part)),
            }
        }
    }
    out
}

/// A scenario that delegates to `inner` and records a span around each
/// evaluation, tagged with the layer that does the scenario's work.
pub struct Traced {
    inner: Box<dyn Scenario>,
    layer: &'static str,
    log: Arc<SpanLog>,
}

impl Traced {
    pub fn boxed(inner: Box<dyn Scenario>, layer: &'static str, log: &Arc<SpanLog>) -> Box<Self> {
        Box::new(Traced { inner, layer, log: Arc::clone(log) })
    }
}

impl Scenario for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let parent = match self.log.current_run.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        };
        self.log.record(self.inner.name(), self.layer, parent, |_| self.inner.evaluate(spec)).0
    }
}

/// Runs `body` with telemetry recording on and returns the snapshot delta
/// covering exactly its activity.
pub fn with_telemetry<R>(body: impl FnOnce() -> R) -> (R, TelemetrySnapshot) {
    let _guard = probdist::telemetry::enable_scoped();
    let baseline = probdist::telemetry::snapshot();
    let result = body();
    (result, probdist::telemetry::snapshot().delta_since(&baseline))
}

/// A counter's value, or a histogram's sum, in a snapshot (0 when absent).
pub fn value(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.get(name).map_or(0.0, |s| s.value)
}

/// A histogram's observation count in a snapshot.
pub fn count(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.get(name).and_then(|s| s.count).map_or(0.0, |c| c as f64)
}

/// Every `deterministic`-tagged sample as `(name, value)`.
pub fn deterministic(snapshot: &TelemetrySnapshot) -> Vec<(String, f64)> {
    snapshot
        .samples
        .iter()
        .filter(|s| s.determinism == "deterministic")
        .map(|s| (s.name.clone(), s.value))
        .collect()
}
