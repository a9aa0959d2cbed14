//! Transaction-scoped tracing: a flight-recorder event log with causal
//! span structure and two text renderers.
//!
//! Counters (the rest of this crate) answer *how much*; traces answer
//! *where and why*. The paper's §3.2–§3.4 claim is causal — every
//! statement is a task DAG whose cost decomposes into snapshot
//! acquisition, DCP task execution, manifest/block writes, and SQL-FE
//! validation — so verifying it needs per-transaction span trees, not
//! aggregate deltas.
//!
//! Design:
//!
//! * [`TraceSink`] — a bounded ring buffer of [`TraceEvent`]s. Writers
//!   claim a slot with one `fetch_add` and store under a per-slot mutex
//!   that is only ever contended when the ring wraps onto an in-flight
//!   writer; recording never blocks on readers or other spans. When the
//!   ring is full the oldest events are overwritten (flight-recorder
//!   semantics): the last `capacity` events are always available, which
//!   is exactly what a post-mortem needs.
//! * [`Tracer`] — a cheap cloneable handle (`Option<Arc<TraceSink>>`).
//!   `Tracer::default()` is disabled and every operation on it is a
//!   no-op, so layers can embed a `Tracer` in their meter bundles
//!   ([`CacheMeter`](crate::CacheMeter), [`CatalogMeter`](crate::CatalogMeter),
//!   [`ScanMeter`](crate::ScanMeter)) without caring whether an engine
//!   wired one up.
//! * [`SpanGuard`] — RAII span: emits a `Begin` event on creation and an
//!   `End` (carrying accumulated attributes) on drop. Same-thread
//!   parenting is implicit through a thread-local span stack; work that
//!   hops threads (DCP task attempts) passes an explicit parent span id
//!   captured on the submitting thread.
//!
//! The ring's one export is `polaris.trace_spans` (one row per span built
//! by [`build_spans`]); beside it, two text renderers over a snapshot:
//!
//! * [`render_span_tree`] — indented text tree with per-span wall times
//!   and attributes; `EXPLAIN ANALYZE` output is built on this.
//! * [`post_mortem_dump`] — the last N raw events as text, attached to
//!   failed transactions so fault-injection runs are debuggable.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A span/instant name: almost always a `'static` literal (zero-alloc);
/// dynamic names (SQL statement labels) pay one `String`.
pub type SpanName = Cow<'static, str>;

/// An attribute list. Keys are `'static` literals by construction, so
/// attaching an attribute never copies the key.
pub type AttrList = Vec<(&'static str, AttrValue)>;

/// A typed attribute value attached to a span or instant event.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, ids, bytes).
    U64(u64),
    /// Float (rates, fractions).
    F64(f64),
    /// String (table names, file paths, outcomes).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// What kind of record an event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened. `span` is its id, `parent` its parent span (0 = root).
    Begin,
    /// A span closed. Carries the attributes accumulated while it ran.
    End,
    /// A point-in-time marker (injected fault, retry decision, …).
    Instant,
}

/// One structured event in the flight recorder.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global emission order (monotonic; survives ring wrap-around).
    pub seq: u64,
    /// Nanoseconds since the sink was created.
    pub ts_ns: u64,
    /// Begin / End / Instant.
    pub kind: TraceEventKind,
    /// Event name (`txn`, `dcp.task`, `exec.scan`, …). `End` events reuse
    /// the name of their `Begin` for readability.
    pub name: SpanName,
    /// Span id this event belongs to (0 for free-standing instants).
    pub span: u64,
    /// Parent span id (0 = root). Meaningful on `Begin` and `Instant`.
    pub parent: u64,
    /// Logical lane: the DCP node id for task attempts, otherwise a
    /// per-OS-thread ordinal (starting at 1000 to avoid node-id clashes).
    pub tid: u64,
    /// Typed attributes.
    pub attrs: AttrList,
}

/// Slots per ring chunk.
const CHUNK_SLOTS: usize = 64;

type Slot = Mutex<Option<TraceEvent>>;

/// Bounded, lossy-at-the-tail ring buffer of trace events.
pub struct TraceSink {
    /// The ring, in chunks of [`CHUNK_SLOTS`] that come into being with
    /// their first event: a default ring is most of a megabyte, and an
    /// engine that is opened, asked little and dropped never touches it.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
    capacity: usize,
    /// Next sequence number; `seq % capacity` addresses the slot.
    cursor: AtomicU64,
    /// Next span id to hand out (0 is reserved for "no span").
    next_span: AtomicU64,
    /// Recycled attribute buffers: when a ring slot is overwritten, the
    /// evicted event's attribute capacity lands here instead of the
    /// allocator, and new spans draw from it — the span arena. Bounded by
    /// the ring capacity (each slot contributes at most one buffer).
    attr_arena: Mutex<Vec<AttrList>>,
    epoch: Instant,
}

impl TraceSink {
    /// A sink retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs at least one slot");
        TraceSink {
            chunks: (0..capacity.div_ceil(CHUNK_SLOTS))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            cursor: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            attr_arena: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn emit(&self, mut event: TraceEvent) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        let slot = (seq % self.capacity as u64) as usize;
        let chunk = self.chunks[slot / CHUNK_SLOTS]
            .get_or_init(|| (0..CHUNK_SLOTS).map(|_| Mutex::new(None)).collect());
        let evicted = chunk[slot % CHUNK_SLOTS].lock().replace(event);
        if let Some(old) = evicted {
            self.recycle_attrs(old.attrs);
        }
    }

    /// Hand an attribute buffer from the arena (capacity preserved from
    /// an evicted event), or a fresh empty one when the arena is dry.
    fn spare_attrs(&self) -> AttrList {
        self.attr_arena.lock().pop().unwrap_or_default()
    }

    /// Return an attribute buffer's capacity to the arena.
    fn recycle_attrs(&self, mut attrs: AttrList) {
        if attrs.capacity() == 0 {
            return;
        }
        attrs.clear();
        let mut arena = self.attr_arena.lock();
        if arena.len() < self.capacity {
            arena.push(attrs);
        }
    }

    /// Point-in-time copy of the retained events, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter())
            .filter_map(|s| s.lock().clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.capacity)
            .field("emitted", &self.emitted())
            .finish()
    }
}

// Per-thread state: the current-span stack (for implicit parenting) and a
// stable per-thread lane ordinal (a span's `lane`).
thread_local! {
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD_LANE: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1000);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

fn thread_lane() -> u64 {
    THREAD_LANE.with(|l| *l)
}

/// Cheap handle onto a shared [`TraceSink`]; `Default` is disabled (every
/// call is a no-op), which is what meter bundles embed when no engine
/// wired tracing up.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TraceSink>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(sink) => write!(f, "Tracer(capacity={})", sink.capacity()),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A tracer over a fresh ring of `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer(Some(Arc::new(TraceSink::new(capacity))))
    }

    /// The disabled tracer (same as `Default`).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn key(&self) -> usize {
        self.0.as_ref().map_or(0, |s| Arc::as_ptr(s) as usize)
    }

    /// The innermost open span on *this thread* for this tracer (0 if
    /// none). This is the implicit parent new spans attach to.
    pub fn current(&self) -> u64 {
        if self.0.is_none() {
            return 0;
        }
        let key = self.key();
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map_or(0, |(_, id)| *id)
        })
    }

    /// Open a span parented under the current thread-local span.
    pub fn span(&self, name: impl Into<SpanName>) -> SpanGuard {
        let parent = self.current();
        self.span_with(name.into(), parent, thread_lane())
    }

    /// Open a span with an explicit parent (cross-thread work: the parent
    /// id was captured on the submitting thread).
    pub fn span_at(&self, name: impl Into<SpanName>, parent: u64) -> SpanGuard {
        self.span_with(name.into(), parent, thread_lane())
    }

    /// Open a span with an explicit parent on an explicit lane (DCP task
    /// attempts use the node id as the lane).
    pub fn span_on_lane(&self, name: impl Into<SpanName>, parent: u64, lane: u64) -> SpanGuard {
        self.span_with(name.into(), parent, lane)
    }

    fn span_with(&self, name: SpanName, parent: u64, tid: u64) -> SpanGuard {
        let Some(sink) = &self.0 else {
            return SpanGuard::default();
        };
        let id = sink.alloc_span();
        sink.emit(TraceEvent {
            seq: 0,
            ts_ns: sink.now_ns(),
            kind: TraceEventKind::Begin,
            name: name.clone(),
            span: id,
            parent,
            tid,
            attrs: Vec::new(),
        });
        let key = self.key();
        SPAN_STACK.with(|s| s.borrow_mut().push((key, id)));
        SpanGuard {
            sink: Some(Arc::clone(sink)),
            key,
            id,
            tid,
            name,
            attrs: Vec::new(),
        }
    }

    /// Begin a span *without* touching the thread-local stack — for spans
    /// held across statements and threads (the transaction root). Returns
    /// the span id; close it with [`end_manual`](Tracer::end_manual).
    pub fn begin_manual(&self, name: impl Into<SpanName>, parent: u64, attrs: AttrList) -> u64 {
        let Some(sink) = &self.0 else { return 0 };
        let id = sink.alloc_span();
        sink.emit(TraceEvent {
            seq: 0,
            ts_ns: sink.now_ns(),
            kind: TraceEventKind::Begin,
            name: name.into(),
            span: id,
            parent,
            tid: thread_lane(),
            attrs,
        });
        id
    }

    /// Close a span opened with [`begin_manual`](Tracer::begin_manual).
    /// Passing 0 is a no-op, so callers can zero their stored id to make
    /// the close idempotent.
    pub fn end_manual(&self, span: u64, name: impl Into<SpanName>, attrs: AttrList) {
        let Some(sink) = &self.0 else { return };
        if span == 0 {
            return;
        }
        sink.emit(TraceEvent {
            seq: 0,
            ts_ns: sink.now_ns(),
            kind: TraceEventKind::End,
            name: name.into(),
            span,
            parent: 0,
            tid: thread_lane(),
            attrs,
        });
    }

    /// Emit a point-in-time event under the current thread-local span.
    pub fn instant(&self, name: impl Into<SpanName>, attrs: AttrList) {
        let Some(sink) = &self.0 else { return };
        sink.emit(TraceEvent {
            seq: 0,
            ts_ns: sink.now_ns(),
            kind: TraceEventKind::Instant,
            name: name.into(),
            span: 0,
            parent: self.current(),
            tid: thread_lane(),
            attrs,
        });
    }

    /// Snapshot of the retained events (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |s| s.snapshot())
    }

    /// Text tree of the span rooted at `root`.
    pub fn render_span_tree(&self, root: u64) -> String {
        render_span_tree(&self.events(), root)
    }

    /// The last `n` retained events as a text dump.
    pub fn post_mortem(&self, n: usize) -> String {
        post_mortem_dump(&self.events(), n)
    }
}

/// RAII span handle: accumulates attributes while open, emits the `End`
/// event (carrying them) on drop. `Default` is a disabled no-op guard.
#[derive(Default)]
pub struct SpanGuard {
    sink: Option<Arc<TraceSink>>,
    key: usize,
    id: u64,
    tid: u64,
    name: SpanName,
    attrs: AttrList,
}

impl SpanGuard {
    /// This span's id (0 when disabled) — pass as the explicit parent for
    /// work submitted to other threads.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach an attribute, reported on the span's `End` event. The first
    /// attribute draws a recycled buffer from the sink's arena, so warm
    /// spans attach attributes without touching the allocator.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(sink) = &self.sink {
            if self.attrs.capacity() == 0 {
                self.attrs = sink.spare_attrs();
            }
            self.attrs.push((key, value.into()));
        }
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanGuard(id={}, name={})", self.id, self.name)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else { return };
        sink.emit(TraceEvent {
            seq: 0,
            ts_ns: sink.now_ns(),
            kind: TraceEventKind::End,
            name: std::mem::take(&mut self.name),
            span: self.id,
            parent: 0,
            tid: self.tid,
            attrs: std::mem::take(&mut self.attrs),
        });
        let key = self.key;
        let id = self.id;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(k, i)| k == key && i == id) {
                stack.remove(pos);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Span reconstruction (shared by the renderers)
// ---------------------------------------------------------------------------

/// A span reconstructed from its Begin/End event pair.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Name.
    pub name: String,
    /// Begin timestamp (ns since sink epoch).
    pub start_ns: u64,
    /// End timestamp; `None` if the span is still open (or its End was
    /// overwritten in the ring).
    pub end_ns: Option<u64>,
    /// Lane (node id / thread ordinal).
    pub tid: u64,
    /// Attributes (Begin's, then End's).
    pub attrs: AttrList,
}

impl SpanRecord {
    /// Wall time, ns (0 while unfinished).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }

    /// Attribute lookup by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Pair Begin/End events into [`SpanRecord`]s, keyed by span id. Ends
/// whose Begin was overwritten are dropped; Begins without an End stay
/// open (`end_ns == None`).
pub fn build_spans(events: &[TraceEvent]) -> BTreeMap<u64, SpanRecord> {
    let mut spans: BTreeMap<u64, SpanRecord> = BTreeMap::new();
    for e in events {
        match e.kind {
            TraceEventKind::Begin => {
                spans.insert(
                    e.span,
                    SpanRecord {
                        id: e.span,
                        parent: e.parent,
                        name: e.name.to_string(),
                        start_ns: e.ts_ns,
                        end_ns: None,
                        tid: e.tid,
                        attrs: e.attrs.clone(),
                    },
                );
            }
            TraceEventKind::End => {
                if let Some(s) = spans.get_mut(&e.span) {
                    s.end_ns = Some(e.ts_ns);
                    s.attrs.extend(e.attrs.iter().cloned());
                }
            }
            TraceEventKind::Instant => {}
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Renderer 1: text span tree (EXPLAIN ANALYZE)
// ---------------------------------------------------------------------------

fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

fn fmt_attrs(attrs: &[(&'static str, AttrValue)]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("  [{}]", parts.join(" "))
}

/// Render the subtree rooted at span `root` as an indented text tree with
/// per-span wall times and attributes, children in start order.
pub fn render_span_tree(events: &[TraceEvent], root: u64) -> String {
    let spans = build_spans(events);
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans.values() {
        children.entry(s.parent).or_default().push(s.id);
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|id| (spans[id].start_ns, *id));
    }
    let mut out = String::new();
    let mut visited = std::collections::HashSet::new();
    render_node(&spans, &children, root, "", true, &mut out, &mut visited);
    if out.is_empty() {
        out.push_str(&format!("(span {root} not found in trace ring)\n"));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_node(
    spans: &BTreeMap<u64, SpanRecord>,
    children: &BTreeMap<u64, Vec<u64>>,
    id: u64,
    prefix: &str,
    is_root: bool,
    out: &mut String,
    visited: &mut std::collections::HashSet<u64>,
) {
    let Some(s) = spans.get(&id) else { return };
    if !visited.insert(id) {
        return; // defensive: never loop on a malformed parent chain
    }
    let dur = match s.end_ns {
        Some(_) => fmt_dur(s.duration_ns()),
        None => "open".to_owned(),
    };
    if is_root {
        out.push_str(&format!("{} {}{}\n", s.name, dur, fmt_attrs(&s.attrs)));
    }
    let kids = children.get(&id).map_or(&[][..], |v| &v[..]);
    for (i, kid) in kids.iter().enumerate() {
        let last = i + 1 == kids.len();
        let branch = if last { "└─ " } else { "├─ " };
        let k = &spans[kid];
        let kdur = match k.end_ns {
            Some(_) => fmt_dur(k.duration_ns()),
            None => "open".to_owned(),
        };
        out.push_str(&format!(
            "{prefix}{branch}{} {}{}\n",
            k.name,
            kdur,
            fmt_attrs(&k.attrs)
        ));
        let next_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        render_node(spans, children, *kid, &next_prefix, false, out, visited);
    }
}

// ---------------------------------------------------------------------------
// Renderer 2: post-mortem dump
// ---------------------------------------------------------------------------

/// The last `n` events as one text line each — attached to aborted
/// transactions so the failure's causal history is in the error report.
pub fn post_mortem_dump(events: &[TraceEvent], n: usize) -> String {
    let start = events.len().saturating_sub(n);
    let mut out = String::new();
    out.push_str(&format!(
        "last {} of {} retained trace events:\n",
        events.len() - start,
        events.len()
    ));
    for e in &events[start..] {
        let kind = match e.kind {
            TraceEventKind::Begin => "B",
            TraceEventKind::End => "E",
            TraceEventKind::Instant => "i",
        };
        out.push_str(&format!(
            "  #{:<6} {:>12}ns {} {} span={} parent={} tid={}{}\n",
            e.seq,
            e.ts_ns,
            kind,
            e.name,
            e.span,
            e.parent,
            e.tid,
            fmt_attrs(&e.attrs)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_through_thread_local_stack() {
        let t = Tracer::with_capacity(64);
        {
            let mut outer = t.span("outer");
            outer.attr("k", 1u64);
            assert_eq!(t.current(), outer.id());
            {
                let inner = t.span("inner");
                assert_eq!(t.current(), inner.id());
            }
            assert_eq!(t.current(), outer.id());
        }
        assert_eq!(t.current(), 0);
        let spans = build_spans(&t.events());
        assert_eq!(spans.len(), 2);
        let inner = spans.values().find(|s| s.name == "inner").unwrap();
        let outer = spans.values().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.end_ns.is_some() && inner.end_ns.is_some());
        assert_eq!(outer.attr("k"), Some(&AttrValue::U64(1)));
    }

    #[test]
    fn disabled_tracer_is_a_noop() {
        let t = Tracer::default();
        assert!(!t.is_enabled());
        let mut g = t.span("x");
        g.attr("k", "v");
        drop(g);
        t.instant("i", vec![]);
        assert_eq!(t.begin_manual("m", 0, vec![]), 0);
        t.end_manual(0, "m", vec![]);
        assert!(t.events().is_empty());
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_but_keeps_order() {
        let t = Tracer::with_capacity(8);
        for i in 0..20u64 {
            t.instant("tick", vec![("i", AttrValue::U64(i))]);
        }
        let events = t.events();
        assert_eq!(events.len(), 8);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn manual_spans_do_not_touch_the_stack() {
        let t = Tracer::with_capacity(64);
        let root = t.begin_manual("txn", 0, vec![("id", AttrValue::U64(7))]);
        assert!(root != 0);
        assert_eq!(t.current(), 0, "manual spans are not implicit parents");
        let child = t.span_at("stmt", root);
        assert_eq!(t.current(), child.id());
        drop(child);
        t.end_manual(root, "txn", vec![("outcome", "committed".into())]);
        let spans = build_spans(&t.events());
        let txn = spans.values().find(|s| s.name == "txn").unwrap();
        assert!(txn.end_ns.is_some());
        assert_eq!(
            txn.attr("outcome"),
            Some(&AttrValue::Str("committed".into()))
        );
        let stmt = spans.values().find(|s| s.name == "stmt").unwrap();
        assert_eq!(stmt.parent, txn.id);
    }

    #[test]
    fn cross_thread_spans_parent_explicitly() {
        let t = Tracer::with_capacity(128);
        let root = t.span("root");
        let parent = root.id();
        let t2 = t.clone();
        std::thread::spawn(move || {
            let g = t2.span_on_lane("task", parent, 3);
            assert_eq!(t2.current(), g.id());
        })
        .join()
        .unwrap();
        drop(root);
        let spans = build_spans(&t.events());
        let task = spans.values().find(|s| s.name == "task").unwrap();
        assert_eq!(task.parent, parent);
        assert_eq!(task.tid, 3);
    }

    #[test]
    fn tree_renderer_shows_nested_durations() {
        let t = Tracer::with_capacity(64);
        let root_id;
        {
            let mut root = t.span("txn");
            root.attr("id", 42u64);
            root_id = root.id();
            {
                let mut a = t.span("insert t");
                a.attr("rows", 10u64);
            }
            let _b = t.span("commit");
        }
        let text = t.render_span_tree(root_id);
        assert!(text.starts_with("txn "));
        assert!(text.contains("├─ insert t"));
        assert!(text.contains("└─ commit"));
        assert!(text.contains("[rows=10]"));
    }

    #[test]
    fn post_mortem_keeps_the_tail() {
        let t = Tracer::with_capacity(32);
        for i in 0..10u64 {
            t.instant("e", vec![("i", AttrValue::U64(i))]);
        }
        let dump = t.post_mortem(3);
        assert!(dump.contains("last 3 of 10"));
        assert!(dump.contains("[i=9]"));
        assert!(!dump.contains("[i=5]"));
    }
}
