//! Causal tracing across the power, network, and control planes.
//!
//! A [`Tracer`] records [`SpanRecord`]s — named, timestamped intervals tied
//! into causal trees by a propagated [`TraceCtx`]. Each co-simulation step
//! opens a *root* span; everything that happens downstream (a power-flow
//! solve, an IED sampling its measurements, a GOOSE publication, every link
//! traversal inside the network emulator, a PLC scan, a SCADA tag update)
//! records a *child* span carrying the context of whatever caused it. The
//! result is the artifact the paper's experiments need: a reconstructable
//! chain from grid disturbance → protocol traffic → controller action →
//! operator view.
//!
//! The tracer follows the same zero-overhead-when-off discipline as the rest
//! of `sgcr-obs`: a [disabled](Tracer::disabled) tracer allocates nothing,
//! generates no IDs (every [`OpenSpan`] is an empty shell whose
//! [`ctx`](OpenSpan::ctx) is `None`), and every operation is a single
//! branch-on-`None`.
//!
//! IDs are assigned from monotonic counters, so a deterministic simulation
//! produces byte-identical traces run-to-run.
//!
//! # Examples
//!
//! ```
//! use sgcr_obs::{Plane, Tracer};
//!
//! let tracer = Tracer::with_capacity(1024);
//! let mut root = tracer.open("range.step", Plane::Range, None, 0u64);
//! root.attr("step", "0");
//! let solve = tracer.span("power.solve", Plane::Power, root.ctx(), 10u64, 20u64);
//! assert!(solve.is_some(), "enabled tracer hands out contexts");
//! root.end(100u64);
//!
//! let spans = tracer.spans();
//! assert_eq!(spans.len(), 2);
//! // Spans are recorded when they end: the solve closed first.
//! assert_eq!(spans[0].name, "power.solve");
//! assert_eq!(spans[0].parent_span_id, Some(spans[1].span_id));
//! ```

use crate::json;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default span-buffer capacity: a few minutes of span-dense simulation
/// without unbounded growth.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// A simulation timestamp in **nanoseconds** — the one time unit every
/// observability surface (journal, metrics snapshot, spans) agrees on.
///
/// `From<u64>` treats the raw integer as nanoseconds, so existing
/// nanosecond call sites keep working; call sites holding milliseconds must
/// convert explicitly via [`TimeNs::from_millis`], which is the point of
/// the newtype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(u64);

impl TimeNs {
    /// A timestamp from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> TimeNs {
        TimeNs(ns)
    }

    /// A timestamp from microseconds.
    pub const fn from_micros(us: u64) -> TimeNs {
        TimeNs(us * 1_000)
    }

    /// A timestamp from milliseconds.
    pub const fn from_millis(ms: u64) -> TimeNs {
        TimeNs(ms * 1_000_000)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The timestamp in (fractional) microseconds — the unit of the Chrome
    /// trace-event format.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl From<u64> for TimeNs {
    fn from(ns: u64) -> TimeNs {
        TimeNs(ns)
    }
}

/// The architectural plane a span belongs to. Planes become track names in
/// the Chrome trace-event export, so a Perfetto timeline shows the power,
/// network, and control planes as parallel lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Plane {
    /// The co-simulation driver (step roots).
    Range,
    /// The power-flow solver / physical process.
    Power,
    /// The emulated OT network (link traversals).
    Net,
    /// Field controllers: IEDs and PLCs.
    Control,
    /// The SCADA / HMI layer.
    Scada,
}

impl Plane {
    /// Every plane, in track order.
    pub const ALL: [Plane; 5] = [
        Plane::Range,
        Plane::Power,
        Plane::Net,
        Plane::Control,
        Plane::Scada,
    ];

    /// The plane's lowercase label (JSONL `plane` field, Chrome `cat`).
    pub fn label(self) -> &'static str {
        match self {
            Plane::Range => "range",
            Plane::Power => "power",
            Plane::Net => "net",
            Plane::Control => "control",
            Plane::Scada => "scada",
        }
    }

    /// The stable track (Chrome `tid`) the plane renders on.
    pub fn track(self) -> u32 {
        match self {
            Plane::Range => 0,
            Plane::Power => 1,
            Plane::Net => 2,
            Plane::Control => 3,
            Plane::Scada => 4,
        }
    }
}

/// The propagated causal context: which trace an action belongs to and which
/// span caused it. `Copy`, two words — cheap enough to ride on every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace (causal tree) this context belongs to.
    pub trace_id: u64,
    /// The span that caused whatever carries this context.
    pub parent_span_id: u64,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (per tracer) span ID, assigned when the span opened.
    pub span_id: u64,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// The causing span, or `None` for a trace root.
    pub parent_span_id: Option<u64>,
    /// Span name from the catalogue (`range.step`, `net.link`, …).
    pub name: &'static str,
    /// The plane the span renders on.
    pub plane: Plane,
    /// Start of the interval, simulation nanoseconds.
    pub start_ns: u64,
    /// End of the interval, simulation nanoseconds.
    pub end_ns: u64,
    /// Key/value attributes (`from`/`to` on link spans, `ied` on trips, …).
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// The context a child of this span would carry.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span_id: self.span_id,
        }
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the span as one JSON object (one line of the `--spans`
    /// JSONL export, symmetric with the journal's [`crate::EventRecord`]).
    pub fn to_json(&self) -> String {
        json::object_string(160, |o| {
            o.field("span_id", self.span_id)
                .field("trace_id", self.trace_id)
                .field("parent_span_id", self.parent_span_id)
                .field("name", self.name)
                .field("plane", self.plane.label())
                .field("start_ns", self.start_ns)
                .field("end_ns", self.end_ns);
            if !self.attrs.is_empty() {
                o.object("attrs", |attrs| {
                    for (key, value) in &self.attrs {
                        attrs.field(key, value);
                    }
                });
            }
        })
    }
}

#[derive(Debug, Default)]
struct TracerState {
    spans: VecDeque<SpanRecord>,
    next_trace_id: u64,
    next_span_id: u64,
    dropped: u64,
    provenance: BTreeMap<&'static str, TraceCtx>,
}

#[derive(Debug)]
struct TracerInner {
    capacity: usize,
    state: Mutex<TracerState>,
}

/// The span recorder: a bounded buffer of completed spans plus the
/// deterministic ID counters, or a no-op shell when
/// [disabled](Tracer::disabled).
///
/// Cloning shares the underlying state, exactly like [`crate::Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An enabled tracer with the [default capacity](DEFAULT_SPAN_CAPACITY).
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled tracer retaining at most `capacity` spans (oldest evicted
    /// first, evictions counted in [`spans_dropped`](Tracer::spans_dropped)).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                capacity: capacity.max(1),
                state: Mutex::new(TracerState::default()),
            })),
        }
    }

    /// The no-op tracer. Identical to `Tracer::default()`.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. With `parent: None` the span roots a **new trace**
    /// (fresh `trace_id`); with a parent it joins the parent's trace.
    ///
    /// The span ID is assigned here, so [`OpenSpan::ctx`] can parent
    /// children before the span closes. Nothing is buffered until
    /// [`OpenSpan::end`]. On a disabled tracer this returns an inert
    /// [`OpenSpan`]: no IDs are allocated and `ctx()` is `None`.
    pub fn open(
        &self,
        name: &'static str,
        plane: Plane,
        parent: Option<TraceCtx>,
        start: impl Into<TimeNs>,
    ) -> OpenSpan {
        let Some(inner) = &self.inner else {
            return OpenSpan { inner: None };
        };
        let (span_id, trace_id) = {
            let mut state = inner.state.lock();
            state.next_span_id += 1;
            let span_id = state.next_span_id;
            let trace_id = match parent {
                Some(ctx) => ctx.trace_id,
                None => {
                    state.next_trace_id += 1;
                    state.next_trace_id
                }
            };
            (span_id, trace_id)
        };
        let start_ns = start.into().as_nanos();
        OpenSpan {
            inner: Some(OpenSpanInner {
                tracer: inner.clone(),
                record: SpanRecord {
                    span_id,
                    trace_id,
                    parent_span_id: parent.map(|c| c.parent_span_id),
                    name,
                    plane,
                    start_ns,
                    end_ns: start_ns,
                    attrs: Vec::new(),
                },
            }),
        }
    }

    /// Records a completed span in one call and returns the context its
    /// children would carry (`None` on a disabled tracer).
    pub fn span(
        &self,
        name: &'static str,
        plane: Plane,
        parent: Option<TraceCtx>,
        start: impl Into<TimeNs>,
        end: impl Into<TimeNs>,
    ) -> Option<TraceCtx> {
        let span = self.open(name, plane, parent, start);
        let ctx = span.ctx();
        span.end(end);
        ctx
    }

    /// Publishes `ctx` under a named provenance slot — causality that flows
    /// through shared state rather than messages. The power loop publishes
    /// its solve span under `"power.solve"`; IEDs sampling the shared
    /// process store parent their sample spans to it.
    pub fn set_provenance(&self, slot: &'static str, ctx: TraceCtx) {
        if let Some(inner) = &self.inner {
            inner.state.lock().provenance.insert(slot, ctx);
        }
    }

    /// The context last published under `slot`.
    pub fn provenance(&self, slot: &'static str) -> Option<TraceCtx> {
        self.inner
            .as_ref()
            .and_then(|i| i.state.lock().provenance.get(slot).copied())
    }

    /// All buffered spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().spans.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// How many spans were evicted by the buffer bound.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().dropped)
    }

    /// Every buffered span of one trace, sorted by start time (the query
    /// API: hand it the `trace_id` of an interesting span and read the
    /// whole causal tree).
    pub fn trace_of(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .spans()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        spans
    }

    /// The chain from span `span_id` up to its trace root (the span itself
    /// first). Stops early if an ancestor was evicted from the buffer.
    pub fn ancestry(&self, span_id: u64) -> Vec<SpanRecord> {
        let spans = self.spans();
        let mut chain = Vec::new();
        let mut cursor = Some(span_id);
        while let Some(id) = cursor {
            let Some(span) = spans.iter().find(|s| s.span_id == id) else {
                break;
            };
            cursor = span.parent_span_id;
            chain.push(span.clone());
        }
        chain
    }

    fn push(&self, record: SpanRecord) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            if state.spans.len() == inner.capacity {
                state.spans.pop_front();
                state.dropped += 1;
            }
            state.spans.push_back(record);
        }
    }

    /// The span log as JSON Lines, one [`SpanRecord`] object per line — the
    /// CLI's `--spans` file format, symmetric with the event journal.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        out
    }

    /// The span buffer rendered as Chrome trace-event JSON (the
    /// `traceEvents` array form), loadable directly in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Each plane becomes a named track (`thread_name` metadata on a stable
    /// `tid`); spans are complete (`"ph":"X"`) events with microsecond
    /// `ts`/`dur` and their trace/span/parent IDs in `args`, sorted by start
    /// time so timestamps are monotonic within every track.
    pub fn chrome_trace_json(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        // One event per line: writer-built objects joined by ",\n".
        let mut out = String::from("[\n");
        json::object(&mut out, |o| {
            o.field("ph", "M")
                .field("pid", 1u32)
                .field("tid", 0u32)
                .field("name", "process_name")
                .object("args", |args| {
                    args.field("name", "sgcr");
                });
        });
        for plane in Plane::ALL {
            out.push_str(",\n");
            json::object(&mut out, |o| {
                o.field("ph", "M")
                    .field("pid", 1u32)
                    .field("tid", plane.track())
                    .field("name", "thread_name")
                    .object("args", |args| {
                        args.field("name", plane.label());
                    });
            });
        }
        for span in &spans {
            let dur_ns = span.end_ns.saturating_sub(span.start_ns);
            out.push_str(",\n");
            json::object(&mut out, |o| {
                o.field("ph", "X")
                    .field("pid", 1u32)
                    .field("tid", span.plane.track())
                    .field("name", span.name)
                    .field("cat", span.plane.label())
                    .field("ts", TimeNs(span.start_ns).as_micros_f64())
                    .field("dur", TimeNs(dur_ns).as_micros_f64())
                    .object("args", |args| {
                        args.field("trace_id", span.trace_id)
                            .field("span_id", span.span_id)
                            .field_if_some("parent_span_id", span.parent_span_id);
                        for (key, value) in &span.attrs {
                            args.field(key, value);
                        }
                    });
            });
        }
        out.push_str("\n]\n");
        out
    }
}

struct OpenSpanInner {
    tracer: Arc<TracerInner>,
    record: SpanRecord,
}

/// An in-progress span: the ID is already assigned (so children can parent
/// to it via [`ctx`](OpenSpan::ctx)), but nothing is buffered until
/// [`end`](OpenSpan::end). Dropping without `end` discards the span.
///
/// From a disabled [`Tracer`] this is an inert shell: `ctx()` is `None` and
/// every method is a branch-on-`None` no-op.
#[must_use = "an OpenSpan records nothing until end() is called"]
pub struct OpenSpan {
    inner: Option<OpenSpanInner>,
}

impl OpenSpan {
    /// The context children of this span should carry (`None` when the
    /// tracer is disabled — callers propagate the `None` and downstream
    /// stays dark too).
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.inner.as_ref().map(|i| i.record.ctx())
    }

    /// Whether this span will actually be recorded — gate attribute
    /// formatting on this in hot paths.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an attribute. No-op (value dropped) when not recording.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.record.attrs.push((key, value.into()));
        }
    }

    /// Closes the span at `end` and commits it to the buffer.
    pub fn end(self, end: impl Into<TimeNs>) {
        if let Some(mut inner) = self.inner {
            inner.record.end_ns = end.into().as_nanos();
            let tracer = Tracer {
                inner: Some(inner.tracer),
            };
            tracer.push(inner.record);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_allocates_no_ids_and_buffers_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut span = tracer.open("range.step", Plane::Range, None, 0u64);
        assert!(span.ctx().is_none(), "no IDs on the disabled path");
        assert!(!span.is_recording());
        span.attr("step", "0");
        span.end(5u64);
        assert!(tracer.span("x", Plane::Net, None, 0u64, 1u64).is_none());
        tracer.set_provenance(
            "power.solve",
            TraceCtx {
                trace_id: 1,
                parent_span_id: 1,
            },
        );
        assert!(tracer.provenance("power.solve").is_none());
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.spans_dropped(), 0);
    }

    #[test]
    fn parenting_and_trace_membership() {
        let tracer = Tracer::new();
        let root = tracer.open("range.step", Plane::Range, None, 0u64);
        let root_ctx = root.ctx().unwrap();
        let solve = tracer
            .span("power.solve", Plane::Power, Some(root_ctx), 1u64, 2u64)
            .unwrap();
        assert_eq!(solve.trace_id, root_ctx.trace_id);
        let hop = tracer
            .span("net.link", Plane::Net, Some(solve), 3u64, 4u64)
            .unwrap();
        root.end(10u64);

        let trace = tracer.trace_of(root_ctx.trace_id);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].name, "range.step", "sorted by start time");
        // `hop.parent_span_id` is the link span's own ID (the ctx a child
        // of the hop would carry), so the chain starts at net.link.
        let chain = tracer.ancestry(hop.parent_span_id);
        assert_eq!(
            chain.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["net.link", "power.solve", "range.step"]
        );
    }

    #[test]
    fn roots_get_fresh_trace_ids() {
        let tracer = Tracer::new();
        let a = tracer.span("a", Plane::Range, None, 0u64, 1u64).unwrap();
        let b = tracer.span("b", Plane::Range, None, 2u64, 3u64).unwrap();
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn id_assignment_is_deterministic() {
        let run = || {
            let tracer = Tracer::new();
            let root = tracer.open("range.step", Plane::Range, None, 0u64);
            let child = tracer.span("power.solve", Plane::Power, root.ctx(), 1u64, 2u64);
            root.end(3u64);
            let _ = child;
            tracer.spans()
        };
        assert_eq!(run(), run(), "same operations, same IDs, same buffer");
    }

    #[test]
    fn buffer_is_bounded_and_counts_drops() {
        let tracer = Tracer::with_capacity(2);
        for i in 0..5u64 {
            let _ = tracer.span("net.link", Plane::Net, None, i, i + 1);
        }
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans_dropped(), 3);
    }

    #[test]
    fn provenance_slots_hold_the_latest_ctx() {
        let tracer = Tracer::new();
        let first = tracer
            .span("power.solve", Plane::Power, None, 0u64, 1u64)
            .unwrap();
        tracer.set_provenance("power.solve", first);
        let second = tracer
            .span("power.solve", Plane::Power, None, 2u64, 3u64)
            .unwrap();
        tracer.set_provenance("power.solve", second);
        assert_eq!(tracer.provenance("power.solve"), Some(second));
    }

    #[test]
    fn jsonl_lines_carry_ids_and_attrs() {
        let tracer = Tracer::new();
        let mut span = tracer.open("net.link", Plane::Net, None, 1_000u64);
        span.attr("from", "GIED1");
        span.attr("to", "sw-GenBus");
        span.end(2_000u64);
        let jsonl = tracer.spans_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"name\":\"net.link\""));
        assert!(line.contains("\"plane\":\"net\""));
        assert!(line.contains("\"parent_span_id\":null"));
        assert!(line.contains("\"attrs\":{\"from\":\"GIED1\",\"to\":\"sw-GenBus\"}"));
    }

    #[test]
    fn chrome_export_has_tracks_and_complete_events() {
        let tracer = Tracer::new();
        let root = tracer.open("range.step", Plane::Range, None, 0u64);
        let _ = tracer.span("power.solve", Plane::Power, root.ctx(), 500u64, 1_500u64);
        root.end(2_000u64);
        let json = tracer.chrome_trace_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"power\""));
        assert!(json.contains("\"ph\":\"X\""));
        // 500 ns start → 0.5 µs in Chrome's unit.
        assert!(json.contains("\"ts\":0.5"), "{json}");
        assert!(json.contains("\"dur\":1.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn time_ns_conversions() {
        assert_eq!(TimeNs::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(TimeNs::from_micros(7).as_nanos(), 7_000);
        assert_eq!(TimeNs::from_nanos(9).as_nanos(), 9);
        assert!((TimeNs::from_nanos(2_500).as_micros_f64() - 2.5).abs() < 1e-12);
        let t: TimeNs = 42u64.into();
        assert_eq!(t.as_nanos(), 42);
    }
}
