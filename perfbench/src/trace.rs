//! Harness-side spans and the metric sheet the run prints.
//!
//! Spans are recorded only in the traced run, around the benchmark's own
//! calls into the library (open, handle, cursor drive, execute, update
//! operation, flush). Each span carries its name, start, end, parent span
//! and the id of the operation it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    op: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    op: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// In-memory span recorder. A disabled tracer reads no clock and records
/// nothing, so the untraced run pays one branch per boundary.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh operation (or span) id.
    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens the root span of a new operation.
    pub fn root(&self, name: &'static str) -> Open {
        let op = if self.enabled { self.fresh_id() } else { 0 };
        self.begin(op, 0, name)
    }

    /// Opens a child span of `parent`.
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        self.begin(parent.op, parent.id, name)
    }

    fn begin(&self, op: u64, parent: u64, name: &'static str) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                op,
                parent,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.fresh_id(),
            op,
            parent,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Closes `span` and records it.
    pub fn end(&self, span: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking client")
            .push(Span {
                id: span.id,
                op: span.op,
                parent: span.parent,
                name: span.name,
                start_ns: span.start_ns,
                end_ns,
            });
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn wrap<T>(&self, parent: &Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.child(parent, name);
        let out = f();
        self.end(s);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Writes every span as one JSON line, then a per-name summary of
    /// total and self time (self = duration minus the time covered by
    /// the span's children).
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking client");
        let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        let mut out = String::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += self_ns;
            let _ = writeln!(
                out,
                "{{\"id\":{},\"op\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.op,
                s.parent,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        for (name, (n, total, self_ns)) in by_name {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{n},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// The metrics a run prints, in insertion order.
#[derive(Default)]
pub struct Sheet {
    rows: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            !self.rows.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.rows.push((name, value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
