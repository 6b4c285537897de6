//! Harness-side tracing: spans around calls into the program's public
//! functions, kept in memory and written once when the run ends.
//!
//! Nothing here lives inside the program under test. Live spans wrap
//! `step_round` / `tick` and — through [`TimedBackend`], a decorator the
//! harness installs with `SearchServer::set_backend` — the real RPC
//! backend's `run_round`. Replay spans (see `replay.rs`) cover leaf calls
//! re-driven after the run; each carries how many calls it spans.

use crate::json::Value;
use fedrlnas::core::{RoundBackend, RoundOutcome, RoundRequest};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Round id of spans that belong to no round (replay, set-up).
pub const NO_ROUND: i64 = -1;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one round share its id.
    pub round: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the interval covers (`1` for live spans; replay spans time a
    /// batch of identical calls).
    pub calls: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span and counter store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

/// A tracer shared with the backend decorator, which must be `Send`.
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer::default()))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, round: i64) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round,
            start_ns: now,
            end_ns: now,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(depth) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(depth);
        }
        self.spans[id].end_ns = now;
    }

    /// Records a finished interval of `nanos` covering `calls` identical
    /// calls, ending now (replay measurements time batches themselves).
    pub fn record(&mut self, name: &'static str, nanos: u64, calls: u64) {
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: NO_ROUND,
            start_ns: end.saturating_sub(nanos),
            end_ns: end,
            calls,
        });
    }

    /// Adds to a named count taken at a span boundary.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds and calls of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| (ns + s.nanos(), calls + s.calls))
    }

    /// Mean seconds per call over every span called `name` (`0.0` when
    /// none was recorded).
    pub fn mean_secs(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (ns, calls) => ns as f64 / 1e9 / calls as f64,
        }
    }

    /// Self time of every span called `name`: its duration minus the part
    /// of that interval its direct children cover.
    pub fn self_nanos(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                child_ns[p] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &children)| s.nanos().saturating_sub(children))
            .sum()
    }

    /// Writes one JSON object per span, then one per counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(s.name.to_string())),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("round", Value::Num(s.round as f64)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("calls", Value::Num(s.calls as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        for (name, value) in &self.counters {
            let line = Value::obj([
                ("counter", Value::Str((*name).to_string())),
                ("value", Value::Num(*value as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Locks a shared tracer. The harness thread is the only one that ever
/// records (the engine calls the decorator on the caller's thread), so a
/// poisoned lock can only mean the harness itself already panicked.
pub fn lock(tracer: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    tracer
        .lock()
        .expect("tracer lock poisoned by an earlier panic")
}

/// A timing decorator around the real round backend: one
/// `rpc.engine.run_round` span per round plus the frame counts the
/// outcome reports, everything else forwarded untouched.
pub struct TimedBackend {
    inner: Box<dyn RoundBackend>,
    tracer: SharedTracer,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn RoundBackend>, tracer: SharedTracer) -> Self {
        TimedBackend { inner, tracer }
    }
}

impl RoundBackend for TimedBackend {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let id = lock(&self.tracer).enter("rpc.engine.run_round", request.round as i64);
        let outcome = self.inner.run_round(request);
        let mut tracer = lock(&self.tracer);
        tracer.exit(id);
        let frames = outcome.download_frame_bytes.iter().filter(|&&b| b > 0);
        tracer.count("rpc.wire.down_frames", frames.clone().count() as u64);
        tracer.count("rpc.wire.down_frame_bytes", frames.sum());
        outcome
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        self.inner.collect_residuals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t: &mut Tracer, name: &'static str, parent: Option<usize>, start: u64, end: u64) {
        t.spans.push(Span {
            name,
            parent,
            round: 0,
            start_ns: start,
            end_ns: end,
            calls: 1,
        });
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::default();
        let round = t.enter("core.round", 3);
        let inner = t.enter("rpc.engine.run_round", 3);
        t.exit(inner);
        t.record("leaf", 10, 4);
        t.exit(round);
        let after = t.enter("core.round", 4);
        t.exit(after);
        assert_eq!(t.spans[inner].parent, Some(round));
        assert_eq!(t.spans[2].parent, Some(round));
        assert_eq!(t.spans[after].parent, None);
        assert!(t.spans[round].end_ns >= t.spans[inner].end_ns);
        assert_eq!(t.total("leaf"), (10, 4));
        assert_eq!(t.total("core.round").1, 2);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        span(&mut t, "round", None, 0, 100);
        span(&mut t, "backend", Some(0), 10, 70);
        span(&mut t, "inner", Some(1), 20, 30); // grandchild: not subtracted twice
        span(&mut t, "round", None, 100, 150);
        span(&mut t, "backend", Some(3), 140, 160); // clipped to its parent
        assert_eq!(t.self_nanos("round"), (100 - 60) + (50 - 10));
        assert_eq!(t.self_nanos("backend"), (60 - 10) + 20);
        assert_eq!(t.self_nanos("absent"), 0);
        assert!((t.mean_secs("round") - 75e-9).abs() < 1e-15);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Tracer::default();
        t.count("frames", 3);
        t.count("frames", 4);
        assert_eq!(t.counter("frames"), 7);
        assert_eq!(t.counter("other"), 0);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut t = Tracer::default();
        let id = t.enter("core.round", 0);
        t.exit(id);
        t.count("frames", 2);
        let dir = crate::out_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("core.round"));
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("value").unwrap().as_f64(), Some(2.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
