//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory for the whole run and are written out when it
//! ends. A disabled tracer records nothing, so untraced runs pay one
//! branch per call.

use crate::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Handle on a started span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The run's span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map(|p| p.0),
            request,
        });
        Some(SpanId(spans.len() - 1))
    }

    fn end(&self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end = self.now();
            self.spans.lock().expect("span recorder poisoned")[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested calls (`None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Total self time (ns) and span count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans();
        let mut by_name = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times(&spans)) {
            let entry = by_name.entry(span.name).or_insert((0u64, 0u64));
            entry.0 += own;
            entry.1 += 1;
        }
        by_name
    }

    /// Writes every span as one JSON line to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }
}
