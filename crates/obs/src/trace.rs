//! RPC-chain tracing.
//!
//! A thread-local trace context carries a trace id plus a span stack
//! through a request as
//! it fans out across simulated nodes. Each RPC entry point opens a
//! [`SpanScope`]; nested scopes become child spans, so a path resolve dumps
//! as an RPC tree whose per-hop count can be checked against the paper's
//! Table 1 RTT analysis (InfiniFS: one `get_entry` RPC per component;
//! Mantle: O(1) lookups off the index).
//!
//! The context is thread-local: the simulator executes a request's RPC legs
//! on the calling thread (latency is injected by sleeping), so a stack per
//! thread is exactly one trace deep. Finished traces land in a bounded ring
//! buffer ([`take_recent`]); sampling defaults to ~1% and is controlled by
//! [`set_sample_rate`] or the `MANTLE_TRACE_SAMPLE` environment variable.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mantle_types::clock::{self, SimInstant, TimeStats};
use parking_lot::Mutex;
use serde::Serialize;

use crate::critpath::PhaseAttribution;
use crate::metrics::Counter;

/// Spans kept per trace before truncation; bounds worst-case memory for a
/// runaway recursive resolve.
const MAX_SPANS_PER_TRACE: usize = 4096;

/// Finished traces retained in the ring buffer.
const RING_CAPACITY: usize = 256;

/// What a span represents, for rendering and for counting RPC hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SpanKind {
    /// The root operation (e.g. `lookup /a/b/c`).
    Op,
    /// One simulated RPC to a node (counts toward the RTT budget).
    Rpc,
    /// Local work worth showing in the tree (cache probe, index walk).
    Local,
}

/// One timed region inside a trace.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Index of this span within the trace.
    pub id: u32,
    /// Index of the parent span, or `None` for the root.
    pub parent: Option<u32>,
    /// Operation label (e.g. `get_entry_batched`).
    pub op: String,
    /// Node that served the span (empty for client-local work).
    pub node: String,
    /// Kind of work this span represents.
    pub kind: SpanKind,
    /// Start offset from the trace start, in nanoseconds.
    pub start_nanos: u64,
    /// Simulated duration, in nanoseconds (wall-clock under
    /// `MANTLE_WALL_CLOCK=1`).
    pub dur_nanos: u64,
    /// Time spent waiting for a service permit (queueing), in nanoseconds.
    pub queue_nanos: u64,
    /// Simulated latency injected by the SimNode, in nanoseconds.
    pub injected_nanos: u64,
    /// Per-phase ledger delta across the span (inclusive of children; see
    /// [`crate::critpath::per_node`] for exclusive attribution).
    pub phases: PhaseAttribution,
}

/// A finished trace: the span tree of one operation.
#[derive(Clone, Debug, Serialize)]
pub struct Trace {
    /// Unique id assigned at trace start.
    pub trace_id: u64,
    /// Root operation label.
    pub op: String,
    /// Spans in creation order; parents precede children.
    pub spans: Vec<Span>,
    /// Whether spans were dropped after the per-trace cap.
    pub truncated: bool,
    /// Per-phase attribution of the whole operation (the thread ledger's
    /// delta from trace start to commit). Under the virtual clock its
    /// total equals [`Trace::total_nanos`] exactly.
    pub phases: PhaseAttribution,
}

impl Trace {
    /// Number of RPC spans — the metric the fidelity tests compare against
    /// the paper's RTT counts.
    pub fn rpc_count(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Rpc)
            .count()
    }

    /// Total simulated duration (root span duration), in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.dur_nanos)
    }

    /// The distinct serving nodes touched by this trace, sorted.
    pub fn nodes(&self) -> Vec<String> {
        let mut nodes: Vec<String> = self
            .spans
            .iter()
            .filter(|s| !s.node.is_empty())
            .map(|s| s.node.clone())
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Renders the span tree, one line per span:
    ///
    /// ```text
    /// lookup /a/b (trace 42, 3 rpcs, 612.0us)
    /// └─ resolve_index [index0] rpc 200.1us (queue 0ns, injected 200.0us)
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} (trace {}, {} rpcs, {})\n",
            self.op,
            self.trace_id,
            self.rpc_count(),
            fmt_nanos(self.total_nanos())
        );
        // Children of span 0 render at depth 1, their children deeper.
        for (i, span) in self.spans.iter().enumerate().skip(1) {
            let depth = self.depth_of(i as u32);
            let kind = match span.kind {
                SpanKind::Op => "op",
                SpanKind::Rpc => "rpc",
                SpanKind::Local => "local",
            };
            let node = if span.node.is_empty() {
                String::new()
            } else {
                format!(" [{}]", span.node)
            };
            out.push_str(&format!(
                "{}└─ {}{} {} {} (queue {}, injected {})\n",
                "   ".repeat(depth.saturating_sub(1)),
                span.op,
                node,
                kind,
                fmt_nanos(span.dur_nanos),
                fmt_nanos(span.queue_nanos),
                fmt_nanos(span.injected_nanos),
            ));
        }
        if self.truncated {
            out.push_str("… trace truncated\n");
        }
        if !self.phases.is_empty() {
            out.push_str(&format!("critical path: {}\n", self.phases.render()));
        }
        out
    }

    fn depth_of(&self, mut id: u32) -> usize {
        let mut depth = 0;
        while let Some(parent) = self.spans.get(id as usize).and_then(|s| s.parent) {
            depth += 1;
            id = parent;
        }
        depth
    }
}

fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// In-flight trace state for the current thread.
struct ActiveTrace {
    trace_id: u64,
    op: String,
    epoch: SimInstant,
    ledger0: TimeStats,
    spans: Vec<Span>,
    stack: Vec<u32>,
    truncated: bool,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

struct Collector {
    next_trace_id: AtomicU64,
    /// Sampling interval: a trace starts when `started % interval == 0`.
    /// `0` disables sampling entirely.
    interval: AtomicU64,
    started: AtomicU64,
    ring: Mutex<VecDeque<Trace>>,
    /// Traces evicted from the full ring before anyone read them.
    dropped: AtomicU64,
    /// `obs_traces_dropped_total` — the same eviction count, exported.
    dropped_metric: Counter,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        let rate = std::env::var("MANTLE_TRACE_SAMPLE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.01);
        Collector {
            next_trace_id: AtomicU64::new(1),
            interval: AtomicU64::new(rate_to_interval(rate)),
            started: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
            dropped: AtomicU64::new(0),
            dropped_metric: crate::metrics::counter("obs_traces_dropped_total", &[]),
        }
    })
}

fn rate_to_interval(rate: f64) -> u64 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        1
    } else {
        (1.0 / rate).round() as u64
    }
}

/// Sets the sampling rate (`0.0` = off, `1.0` = every operation). The
/// default is 1%, or whatever `MANTLE_TRACE_SAMPLE` specified at startup.
pub fn set_sample_rate(rate: f64) {
    collector()
        .interval
        .store(rate_to_interval(rate), Ordering::Relaxed);
}

/// Starts a trace for `op` if the sampler selects this operation and no
/// trace is already active on this thread. Hold the returned guard for the
/// duration of the operation; the trace is committed when it drops.
pub fn start(op: &str) -> Option<TraceGuard> {
    let c = collector();
    let interval = c.interval.load(Ordering::Relaxed);
    if interval == 0 {
        return None;
    }
    let n = c.started.fetch_add(1, Ordering::Relaxed);
    if !n.is_multiple_of(interval) {
        return None;
    }
    start_inner(op, true)
}

/// Starts a trace unconditionally (CLI `trace` command, tests). Returns
/// `None` only if a trace is already active on this thread.
pub fn start_forced(op: &str) -> Option<TraceGuard> {
    start_inner(op, true)
}

/// Starts a trace whose commit does **not** land in the shared ring — the
/// caller owns the finished [`Trace`] (the flight recorder's always-on
/// capture path, which decides *after* the fact whether the trace is worth
/// keeping). Returns `None` if a trace is already active on this thread.
pub fn start_detached(op: &str) -> Option<TraceGuard> {
    start_inner(op, false)
}

/// Runs the sampling decision without starting a trace: true for the same
/// ~1-in-interval operations [`start`] would have selected. The flight
/// recorder uses this to keep feeding the sampled ring while its detached
/// capture owns the thread's trace slot.
pub fn sampler_selects() -> bool {
    let c = collector();
    let interval = c.interval.load(Ordering::Relaxed);
    if interval == 0 {
        return false;
    }
    c.started
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(interval)
}

/// Pushes an already-finished trace into the shared ring (with the same
/// eviction accounting as a sampled commit).
pub fn push_to_ring(trace: Trace) {
    ring_push(trace);
}

fn start_inner(op: &str, ring_on_commit: bool) -> Option<TraceGuard> {
    ACTIVE.with(|cell| {
        let mut active = cell.borrow_mut();
        if active.is_some() {
            return None;
        }
        let trace_id = collector().next_trace_id.fetch_add(1, Ordering::Relaxed);
        let mut trace = ActiveTrace {
            trace_id,
            op: op.to_string(),
            epoch: clock::now(),
            ledger0: clock::thread_time_stats(),
            spans: Vec::with_capacity(16),
            stack: Vec::with_capacity(8),
            truncated: false,
        };
        trace.spans.push(Span {
            id: 0,
            parent: None,
            op: op.to_string(),
            node: String::new(),
            kind: SpanKind::Op,
            start_nanos: 0,
            dur_nanos: 0,
            queue_nanos: 0,
            injected_nanos: 0,
            phases: PhaseAttribution::default(),
        });
        trace.stack.push(0);
        *active = Some(trace);
        Some(TraceGuard { ring_on_commit })
    })
}

/// Whether a trace is active on this thread. Instrumentation sites use
/// this to skip span bookkeeping entirely on the untraced fast path.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.with(|cell| cell.borrow().is_some())
}

/// RAII handle for an active trace. Dropping it (or calling
/// [`TraceGuard::finish`]) closes the root span and commits the trace —
/// into the shared ring for sampled/forced traces, or only to the caller
/// for [`start_detached`] traces.
pub struct TraceGuard {
    ring_on_commit: bool,
}

impl TraceGuard {
    /// Ends the trace and returns it (sampled/forced guards also leave a
    /// copy in the ring buffer), for callers that want to render it
    /// immediately.
    pub fn finish(self) -> Trace {
        let ring = self.ring_on_commit;
        std::mem::forget(self);
        commit(ring).expect("trace active while guard held")
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        commit(self.ring_on_commit);
    }
}

fn commit(ring_on_commit: bool) -> Option<Trace> {
    let finished = ACTIVE.with(|cell| cell.borrow_mut().take())?;
    let elapsed = finished.epoch.elapsed().as_nanos() as u64;
    let phases = PhaseAttribution(clock::thread_time_stats().delta_since(&finished.ledger0));
    let mut spans = finished.spans;
    if let Some(root) = spans.first_mut() {
        root.dur_nanos = elapsed;
        root.phases = phases;
    }
    let trace = Trace {
        trace_id: finished.trace_id,
        op: finished.op,
        spans,
        truncated: finished.truncated,
        phases,
    };
    if ring_on_commit {
        ring_push(trace.clone());
    }
    Some(trace)
}

fn ring_push(trace: Trace) {
    let c = collector();
    let mut ring = c.ring.lock();
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
        c.dropped.fetch_add(1, Ordering::Relaxed);
        c.dropped_metric.inc();
    }
    ring.push_back(trace);
}

/// Drains up to `n` of the most recent finished traces, newest last.
/// Anything older than the last `n` is discarded (and **not** counted as
/// dropped — the caller chose to skip it); use [`peek_recent`] for a
/// non-destructive view.
pub fn take_recent(n: usize) -> Vec<Trace> {
    let mut ring = collector().ring.lock();
    let skip = ring.len().saturating_sub(n);
    ring.drain(..).skip(skip).collect()
}

/// Clones up to `n` of the most recent finished traces, newest last,
/// leaving the ring intact (the `/traces/recent` endpoint's read path).
pub fn peek_recent(n: usize) -> Vec<Trace> {
    let ring = collector().ring.lock();
    let skip = ring.len().saturating_sub(n);
    ring.iter().skip(skip).cloned().collect()
}

/// Traces evicted unread from the full ring since process start (also
/// exported as `obs_traces_dropped_total`).
pub fn dropped_total() -> u64 {
    collector().dropped.load(Ordering::Relaxed)
}

/// Opens a span under the current trace. Returns `None` (with zero cost
/// beyond a thread-local read) when no trace is active.
pub fn span(op: &str, node: &str, kind: SpanKind) -> Option<SpanScope> {
    ACTIVE.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let active = borrow.as_mut()?;
        if active.spans.len() >= MAX_SPANS_PER_TRACE {
            active.truncated = true;
            return None;
        }
        let id = active.spans.len() as u32;
        let parent = active.stack.last().copied();
        let start_nanos = active.epoch.elapsed().as_nanos() as u64;
        active.spans.push(Span {
            id,
            parent,
            op: op.to_string(),
            node: node.to_string(),
            kind,
            start_nanos,
            dur_nanos: 0,
            queue_nanos: 0,
            injected_nanos: 0,
            phases: PhaseAttribution::default(),
        });
        active.stack.push(id);
        Some(SpanScope {
            id,
            started: clock::now(),
            ledger0: clock::thread_time_stats(),
        })
    })
}

/// Convenience wrapper: an RPC span served by `node`.
pub fn rpc_span(op: &str, node: &str) -> Option<SpanScope> {
    span(op, node, SpanKind::Rpc)
}

/// Adds queue-wait time to the innermost open span, if any. Lets deep
/// plumbing (permit acquisition) annotate the span its caller opened.
pub fn note_queue_on_current(nanos: u64) {
    note_on_current(|span| span.queue_nanos += nanos);
}

/// Adds injected simulated latency to the innermost open span, if any.
pub fn note_injected_on_current(nanos: u64) {
    note_on_current(|span| span.injected_nanos += nanos);
}

fn note_on_current(f: impl FnOnce(&mut Span)) {
    ACTIVE.with(|cell| {
        if let Some(active) = cell.borrow_mut().as_mut() {
            if let Some(&top) = active.stack.last() {
                if let Some(span) = active.spans.get_mut(top as usize) {
                    f(span);
                }
            }
        }
    });
}

/// RAII handle for an open span; closes the span on drop.
pub struct SpanScope {
    id: u32,
    started: SimInstant,
    ledger0: TimeStats,
}

impl SpanScope {
    /// Records time this span spent queued waiting for a service permit.
    pub fn note_queue_nanos(&self, nanos: u64) {
        self.note(|span| span.queue_nanos += nanos);
    }

    /// Records simulated latency injected into this span.
    pub fn note_injected_nanos(&self, nanos: u64) {
        self.note(|span| span.injected_nanos += nanos);
    }

    fn note(&self, f: impl FnOnce(&mut Span)) {
        ACTIVE.with(|cell| {
            if let Some(active) = cell.borrow_mut().as_mut() {
                if let Some(span) = active.spans.get_mut(self.id as usize) {
                    f(span);
                }
            }
        });
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed().as_nanos() as u64;
        let phases = PhaseAttribution(clock::thread_time_stats().delta_since(&self.ledger0));
        ACTIVE.with(|cell| {
            if let Some(active) = cell.borrow_mut().as_mut() {
                if let Some(span) = active.spans.get_mut(self.id as usize) {
                    span.dur_nanos = elapsed;
                    span.phases = phases;
                }
                // Pop back to this span's parent; tolerate out-of-order
                // drops by popping until we remove our own id.
                while let Some(top) = active.stack.pop() {
                    if top == self.id {
                        break;
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_commit() {
        set_sample_rate(0.0);
        assert!(start("nope").is_none(), "sampling off blocks start()");

        let guard = start_forced("lookup /a/b").expect("forced trace");
        {
            let outer = rpc_span("resolve", "index0").unwrap();
            outer.note_injected_nanos(200_000);
            {
                let _inner = span("cache_probe", "", SpanKind::Local).unwrap();
            }
        }
        {
            let s = rpc_span("get_attr", "tafdb1").unwrap();
            s.note_queue_nanos(5_000);
        }
        let trace = guard.finish();
        assert_eq!(trace.rpc_count(), 2);
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[3].parent, Some(0));
        assert_eq!(trace.spans[1].injected_nanos, 200_000);
        assert_eq!(trace.spans[3].queue_nanos, 5_000);
        assert!(!trace.truncated);

        let rendered = trace.render();
        assert!(rendered.contains("2 rpcs"));
        assert!(rendered.contains("[index0]"));
        assert!(rendered.contains("cache_probe"));

        let recent = take_recent(8);
        assert!(recent.iter().any(|t| t.trace_id == trace.trace_id));
    }

    #[test]
    fn no_active_trace_means_no_spans() {
        assert!(!is_active());
        assert!(span("x", "", SpanKind::Local).is_none());
    }

    #[test]
    fn only_one_trace_per_thread() {
        let g = start_forced("outer").unwrap();
        assert!(start_forced("inner").is_none());
        drop(g);
        assert!(!is_active());
    }

    #[test]
    fn sampling_interval_selects_subset() {
        // Rate 0.5 → interval 2 → roughly half of starts are selected.
        set_sample_rate(0.5);
        let mut hits = 0;
        for _ in 0..10 {
            if let Some(g) = start("sampled") {
                hits += 1;
                drop(g);
            }
        }
        set_sample_rate(0.0);
        assert!(
            (4..=6).contains(&hits),
            "expected ~half sampled, got {hits}"
        );
    }

    #[test]
    fn truncation_sets_flag() {
        let g = start_forced("deep").unwrap();
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            let _s = span("leg", "n", SpanKind::Rpc);
        }
        let t = g.finish();
        assert!(t.truncated);
        assert!(t.spans.len() <= MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn trace_serializes_to_json() {
        let g = start_forced("ser").unwrap();
        drop(span("leg", "n0", SpanKind::Rpc));
        let t = g.finish();
        let text = serde_json::to_string(&t).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("op").and_then(serde_json::Value::as_str), Some("ser"));
        assert_eq!(
            v.get("spans")
                .and_then(serde_json::Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
