//! The structured span/event tracer.
//!
//! A [`Tracer`] is either a **no-op** ([`Tracer::noop`]) or **recording**
//! ([`Tracer::recording`]). The no-op mode is the default everywhere hot:
//! every operation first branches on [`Tracer::enabled`] and returns
//! immediately — no allocation, no `Instant::now()`, no formatting. The
//! recording mode captures a flat arena of [`SpanRecord`]s (parent links
//! encode the nesting) plus out-of-band [`EventRecord`]s, and exports the
//! whole log as JSONL via [`TraceLog::to_jsonl`].
//!
//! Spans are scoped by the RAII [`SpanGuard`]: the span closes (duration
//! and allocation delta are finalized) when the guard drops. Guards are
//! lexically scoped, so open spans always form a stack.

use std::cell::RefCell;
use std::time::Instant;

use netsim::json::Value;

use crate::alloc::allocated_bytes;

/// One closed (or still-open) span in a recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (a phase like `"ring-build"`).
    pub name: &'static str,
    /// Index of the enclosing span in [`TraceLog::spans`], if nested.
    pub parent: Option<usize>,
    /// Start offset from the tracer's epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds (0 until the guard drops).
    pub dur_us: u64,
    /// Bytes allocated while the span was open (0 unless the
    /// [`crate::alloc::CountingAlloc`] global allocator is installed).
    pub alloc_bytes: u64,
}

/// One point-in-time event with structured fields.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name (e.g. `"stale-loss"`).
    pub name: &'static str,
    /// Index of the span that was open when the event fired, if any.
    pub parent: Option<usize>,
    /// Offset from the tracer's epoch, microseconds.
    pub at_us: u64,
    /// Structured payload, emitted verbatim into the JSONL line.
    pub fields: Vec<(&'static str, Value)>,
}

/// A finished trace: every span and event the tracer recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// All spans, in start order; `parent` indices point into this vec.
    pub spans: Vec<SpanRecord>,
    /// All events, in firing order.
    pub events: Vec<EventRecord>,
}

impl TraceLog {
    /// Serializes the log as JSON Lines: one object per span
    /// (`{"type":"span",...}`) followed by one per event
    /// (`{"type":"event",...}`), each on its own line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let doc = Value::Object(vec![
                ("type".into(), "span".into()),
                ("name".into(), s.name.into()),
                ("parent".into(), s.parent.map_or(Value::Null, Value::from)),
                ("start_us".into(), s.start_us.into()),
                ("dur_us".into(), s.dur_us.into()),
                ("alloc_bytes".into(), s.alloc_bytes.into()),
            ]);
            out.push_str(&doc.to_string());
            out.push('\n');
        }
        for e in &self.events {
            let fields: Vec<(String, Value)> =
                e.fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect();
            let doc = Value::Object(vec![
                ("type".into(), "event".into()),
                ("name".into(), e.name.into()),
                ("parent".into(), e.parent.map_or(Value::Null, Value::from)),
                ("at_us".into(), e.at_us.into()),
                ("fields".into(), Value::Object(fields)),
            ]);
            out.push_str(&doc.to_string());
            out.push('\n');
        }
        out
    }
}

struct TraceBuf {
    epoch: Instant,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    /// `allocated_bytes()` snapshot at each open span's start, parallel to
    /// `stack`.
    alloc_marks: Vec<u64>,
}

/// A span/event tracer; see the [module docs](self) for the two modes.
pub struct Tracer {
    inner: Option<RefCell<TraceBuf>>,
}

impl Tracer {
    /// The no-op tracer: every operation is a single branch. This is the
    /// value production code paths pass when nobody is watching.
    pub fn noop() -> Self {
        Tracer { inner: None }
    }

    /// A recording tracer; retrieve the log with [`Tracer::finish`].
    pub fn recording() -> Self {
        Tracer {
            inner: Some(RefCell::new(TraceBuf {
                epoch: Instant::now(),
                stack: Vec::new(),
                spans: Vec::new(),
                events: Vec::new(),
                alloc_marks: Vec::new(),
            })),
        }
    }

    /// Whether this tracer records anything. Hot call sites must guard any
    /// field-building work on this (the assertion-free fast path).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it closes when the returned guard drops.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard { tracer: self, idx: None };
        };
        let mut buf = inner.borrow_mut();
        let start_us = buf.epoch.elapsed().as_micros() as u64;
        let parent = buf.stack.last().copied();
        let idx = buf.spans.len();
        buf.spans.push(SpanRecord { name, parent, start_us, dur_us: 0, alloc_bytes: 0 });
        buf.stack.push(idx);
        buf.alloc_marks.push(allocated_bytes());
        SpanGuard { tracer: self, idx: Some(idx) }
    }

    /// Records an already-finished span of known duration as a child of
    /// the currently-open span (or at top level).
    ///
    /// This is how timing measured *outside* the tracer — e.g. the
    /// per-phase/per-worker [`doubling_metric::build::BuildProfile`]
    /// collected by the parallel metric builder, whose crate cannot
    /// depend on `obs` — is merged into a trace after the fact. The span
    /// is stamped with the current offset as its start (keeping the
    /// record order's start offsets monotone) and `dur_us`/`alloc_bytes`
    /// exactly as given.
    pub fn span_completed(&self, name: &'static str, dur_us: u64, alloc_bytes: u64) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.borrow_mut();
        let start_us = buf.epoch.elapsed().as_micros() as u64;
        let parent = buf.stack.last().copied();
        buf.spans.push(SpanRecord { name, parent, start_us, dur_us, alloc_bytes });
    }

    /// Records an event with eagerly-built fields. Prefer
    /// [`Tracer::event_lazy`] on hot paths so the no-op mode does not pay
    /// for building the field vector.
    pub fn event(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.borrow_mut();
        let at_us = buf.epoch.elapsed().as_micros() as u64;
        let parent = buf.stack.last().copied();
        buf.events.push(EventRecord { name, parent, at_us, fields });
    }

    /// Records an event whose fields are built only if the tracer is
    /// recording — the no-op mode never invokes `fields`.
    #[inline]
    pub fn event_lazy(
        &self,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if self.enabled() {
            self.event(name, fields());
        }
    }

    /// Appends a log finished by another tracer at top level, after
    /// everything recorded so far: parent indices are rebased and every
    /// timestamp shifted past the latest span end or event, so logs of
    /// sequential tracers (each with its own epoch) merge into one
    /// non-overlapping timeline — how the profiler folds its per-entry
    /// traces into the run's.
    pub fn append(&self, log: &TraceLog) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.borrow_mut();
        let spans_end = buf.spans.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(0);
        let shift = buf.events.iter().map(|e| e.at_us).fold(spans_end, u64::max);
        let base = buf.spans.len();
        let rebase = |p: Option<usize>| p.map(|p| p + base);
        buf.spans.extend(log.spans.iter().map(|s| SpanRecord {
            parent: rebase(s.parent),
            start_us: s.start_us + shift,
            ..s.clone()
        }));
        buf.events.extend(log.events.iter().map(|e| EventRecord {
            parent: rebase(e.parent),
            at_us: e.at_us + shift,
            ..e.clone()
        }));
    }

    fn close_span(&self, idx: usize) {
        let Some(inner) = &self.inner else { return };
        let mut buf = inner.borrow_mut();
        let now_us = buf.epoch.elapsed().as_micros() as u64;
        debug_assert_eq!(buf.stack.last(), Some(&idx), "span guards must drop LIFO");
        buf.stack.pop();
        let mark = buf.alloc_marks.pop().unwrap_or(0);
        let span = &mut buf.spans[idx];
        span.dur_us = now_us.saturating_sub(span.start_us);
        span.alloc_bytes = allocated_bytes().saturating_sub(mark);
    }

    /// Consumes the tracer and returns everything it recorded (empty for
    /// the no-op tracer). Open spans are closed as of now.
    pub fn finish(self) -> TraceLog {
        let Some(inner) = self.inner else { return TraceLog::default() };
        let mut buf = inner.into_inner();
        let now_us = buf.epoch.elapsed().as_micros() as u64;
        while let Some(idx) = buf.stack.pop() {
            let mark = buf.alloc_marks.pop().unwrap_or(0);
            let span = &mut buf.spans[idx];
            span.dur_us = now_us.saturating_sub(span.start_us);
            span.alloc_bytes = allocated_bytes().saturating_sub(mark);
        }
        TraceLog { spans: buf.spans, events: buf.events }
    }
}

/// RAII guard closing its span on drop. Obtained from [`Tracer::span`].
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            self.tracer.close_span(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let t = Tracer::noop();
        assert!(!t.enabled());
        {
            let _a = t.span("a");
            let _b = t.span("b");
            t.event("ev", vec![]);
            t.event_lazy("lazy", || panic!("no-op tracer must not build fields"));
        }
        let log = t.finish();
        assert!(log.spans.is_empty());
        assert!(log.events.is_empty());
        assert!(log.to_jsonl().is_empty());
    }

    #[test]
    fn spans_nest_and_order() {
        let t = Tracer::recording();
        {
            let _build = t.span("build");
            {
                let _rings = t.span("rings");
                t.event("mark", vec![("k", Value::Int(3))]);
            }
            let _trees = t.span("trees");
        }
        let _late = t.span("late");
        drop(_late);
        let log = t.finish();
        let names: Vec<&str> = log.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["build", "rings", "trees", "late"]);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!(log.spans[3].parent, None);
        // Start offsets are monotone in record order.
        for w in log.spans.windows(2) {
            assert!(w[0].start_us <= w[1].start_us);
        }
        // The event fired inside "rings".
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].parent, Some(1));
        assert_eq!(log.events[0].fields, vec![("k", Value::Int(3))]);
    }

    #[test]
    fn span_completed_nests_under_open_span() {
        let t = Tracer::recording();
        {
            let _build = t.span("metric-build");
            t.span_completed("apsp", 123, 456);
            t.span_completed("apsp-worker", 120, 0);
        }
        let log = t.finish();
        let names: Vec<&str> = log.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["metric-build", "apsp", "apsp-worker"]);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[1].dur_us, 123);
        assert_eq!(log.spans[1].alloc_bytes, 456);
        for w in log.spans.windows(2) {
            assert!(w[0].start_us <= w[1].start_us);
        }
        // No-op mode: still free.
        let noop = Tracer::noop();
        noop.span_completed("x", 1, 1);
        assert!(noop.finish().spans.is_empty());
    }

    #[test]
    fn appended_logs_follow_the_recorded_timeline() {
        let entry = Tracer::recording();
        {
            let _b = entry.span("build");
            let _r = entry.span("rings");
        }
        let entry = entry.finish();
        let t = Tracer::recording();
        t.event("start", vec![]);
        t.append(&entry);
        t.append(&entry);
        let log = t.finish();
        let names: Vec<&str> = log.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["build", "rings", "build", "rings"]);
        assert_eq!(log.spans[3].parent, Some(2));
        assert!(log.spans[2].start_us >= log.spans[0].start_us + log.spans[0].dur_us);
        // No-op mode: nothing appended.
        let noop = Tracer::noop();
        noop.append(&entry);
        assert!(noop.finish().spans.is_empty());
    }

    #[test]
    fn finish_closes_open_spans() {
        let t = Tracer::recording();
        let g = t.span("open");
        std::mem::forget(g); // never dropped: finish() must still close it
        let log = t.finish();
        assert_eq!(log.spans.len(), 1);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = Tracer::recording();
        {
            let _s = t.span("phase");
            t.event("hit", vec![("node", Value::Int(7)), ("why", "test".into())]);
        }
        let log = t.finish();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let span = Value::parse(lines[0]).unwrap();
        assert_eq!(span.get("type").and_then(Value::as_str), Some("span"));
        assert_eq!(span.get("name").and_then(Value::as_str), Some("phase"));
        let ev = Value::parse(lines[1]).unwrap();
        assert_eq!(ev.get("type").and_then(Value::as_str), Some("event"));
        assert_eq!(ev.get("fields").and_then(|f| f.get("node")).and_then(Value::as_u64), Some(7));
    }
}
