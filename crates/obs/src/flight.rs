//! Always-on flight recorder: force-capture of anomalously slow operations.
//!
//! Sampled tracing ([`crate::trace`]) answers "what does a *typical* op look
//! like"; it is useless for the op that mattered — the p99.9 outlier that a
//! retry storm or an fsync stall produced — because at a 1% sample rate the
//! outlier is almost never selected. The flight recorder closes that gap:
//! every operation wrapped in [`op_scope`] runs with a detached trace, and
//! when the op's end-to-end latency exceeds a per-`(system, op)` adaptive
//! threshold (trailing p99 × k, see [`FlightConfig`]) the full trace is
//! force-captured into a bounded slow-op ring together with a structured
//! [`SlowOp`] event (path depth, shard set, retry/fault annotations from the
//! capture points, per-phase attribution).
//!
//! Everything the recorder emits is a deterministic function of the seeded
//! workload under the virtual clock: latencies are virtual, thresholds are
//! recomputed at fixed op counts, and [`SlowOp::log_line`] deliberately
//! excludes nondeterministic identifiers (trace ids), so identical seeds
//! produce byte-identical slow-op logs (pinned by tests).
//!
//! The recorder also folds every captured trace into *exclusive per-node*
//! attributions ([`crate::critpath::per_node`]); the placement controller
//! reads these via [`FlightRecorder::node_phases`] to see not just *that* a
//! shard is hot but *which phase* (fsync vs queueing vs injected faults) is
//! burning its time.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mantle_types::clock::{self, SimInstant, TimeCategory, TimeStats};
use mantle_types::hist::Histogram;
use parking_lot::Mutex;
use serde::Serialize;

use crate::critpath::{self, PhaseAttribution, N_PHASES};
use crate::metrics::{Counter, HistogramMetric};
use crate::trace::{self, Trace, TraceGuard};

/// Ops per attribution window; [`ExplainReport::recent`] covers the
/// trailing windows.
const WINDOW_OPS: u64 = 256;
/// Completed attribution windows retained per `(system, op)`.
const MAX_WINDOWS: usize = 8;
/// Annotations retained per op before the rest are counted as elided.
const MAX_ANNOTATIONS: usize = 32;

/// Tuning knobs for a [`FlightRecorder`]. [`FlightConfig::from_env`] reads
/// `MANTLE_SLOW_THRESHOLD_NANOS`; [`Default`] is the same with an empty
/// environment.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Slow-op events retained in the bounded ring (oldest evicted, with
    /// drop accounting).
    pub slow_capacity: usize,
    /// `k` in the adaptive threshold `trailing_p99 × k`.
    pub threshold_mult: f64,
    /// Fixed threshold overriding the adaptive one entirely
    /// (`MANTLE_SLOW_THRESHOLD_NANOS`).
    pub fixed_threshold_nanos: Option<u64>,
    /// Ops observed per `(system, op)` before the adaptive threshold arms
    /// (until then nothing is flagged — a trailing p99 of 3 samples is
    /// meaningless).
    pub warmup_ops: u64,
    /// The adaptive threshold is recomputed every this many ops (a fixed
    /// cadence keeps the decision deterministic under identical seeds).
    pub recompute_every: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            slow_capacity: 256,
            threshold_mult: 4.0,
            fixed_threshold_nanos: None,
            warmup_ops: 64,
            recompute_every: 32,
        }
    }
}

impl FlightConfig {
    /// Default config with `MANTLE_SLOW_THRESHOLD_NANOS` applied on top.
    pub fn from_env() -> Self {
        FlightConfig {
            fixed_threshold_nanos: std::env::var("MANTLE_SLOW_THRESHOLD_NANOS")
                .ok()
                .and_then(|s| s.parse().ok()),
            ..FlightConfig::default()
        }
    }
}

/// One force-captured slow operation.
#[derive(Clone, Debug, Serialize)]
pub struct SlowOp {
    /// Capture sequence number within this recorder instance (1-based,
    /// deterministic under identical seeds).
    pub seq: u64,
    /// Service that ran the op (`mantle`, `infinifs`, …).
    pub system: String,
    /// Operation label (`create`, `lookup`, …).
    pub op: String,
    /// End-to-end latency on the simulated timeline, in nanoseconds.
    pub latency_nanos: u64,
    /// The threshold the op exceeded, in nanoseconds.
    pub threshold_nanos: u64,
    /// Path depth of the operation's target.
    pub path_depth: u32,
    /// RPC spans in the captured trace (0 if no trace was captured).
    pub rpcs: usize,
    /// Distinct serving nodes the op touched, sorted (the "shard set").
    pub shards: Vec<String>,
    /// Capture-point annotations (fault denies, stale-route retries,
    /// fsync retries, failovers …) in the order they happened.
    pub annotations: Vec<String>,
    /// Annotations dropped after the first 32.
    pub annotations_elided: u32,
    /// Per-phase attribution of the whole op; under the virtual clock its
    /// total equals `latency_nanos` exactly.
    pub phases: PhaseAttribution,
    /// The full force-captured trace (`None` only when an enclosing trace
    /// already owned the thread's trace slot).
    pub trace: Option<Trace>,
}

impl SlowOp {
    /// Canonical one-line form of the event. Byte-stable across identical
    /// seeded runs: everything in it is a deterministic function of the
    /// workload (notably *no* trace ids, which are process-global).
    pub fn log_line(&self) -> String {
        let shards = if self.shards.is_empty() {
            "-".to_string()
        } else {
            self.shards.join(",")
        };
        let notes = if self.annotations.is_empty() {
            "-".to_string()
        } else {
            self.annotations.join(";")
        };
        format!(
            "slow seq={} system={} op={} depth={} latency_nanos={} threshold_nanos={} rpcs={} shards={} notes={} elided={} phases[{}]",
            self.seq,
            self.system,
            self.op,
            self.path_depth,
            self.latency_nanos,
            self.threshold_nanos,
            self.rpcs,
            shards,
            notes,
            self.annotations_elided,
            self.phases.canonical(),
        )
    }
}

/// Aggregated view of one `(system, op)` pair, for `mantle-cli explain`.
#[derive(Clone, Debug, Serialize)]
pub struct ExplainReport {
    /// Service name.
    pub system: String,
    /// Operation label.
    pub op: String,
    /// Ops observed.
    pub ops: u64,
    /// Median latency, nanoseconds.
    pub p50_nanos: u64,
    /// Trailing p99 latency, nanoseconds.
    pub p99_nanos: u64,
    /// Worst observed latency, nanoseconds.
    pub max_nanos: u64,
    /// Current slow threshold (`None` while still warming up).
    pub threshold_nanos: Option<u64>,
    /// Slow ops captured for this pair.
    pub slow: u64,
    /// Attribution over every observed op.
    pub total: PhaseAttribution,
    /// Attribution over the trailing windows only (recent behaviour).
    pub recent: PhaseAttribution,
}

impl ExplainReport {
    /// Human summary, e.g.
    /// `mantle/create: n=1024 p50=412.0us p99=1.8ms max=9.6ms (2 slow): 62% fsync, 21% queue`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}/{}: n={} p50={} p99={} max={}",
            self.system,
            self.op,
            self.ops,
            fmt_nanos(self.p50_nanos),
            fmt_nanos(self.p99_nanos),
            fmt_nanos(self.max_nanos),
        );
        match self.threshold_nanos {
            Some(t) => out.push_str(&format!(
                " (threshold {}, {} slow)",
                fmt_nanos(t),
                self.slow
            )),
            None => out.push_str(" (warming up)"),
        }
        out.push_str(&format!(": {}", self.total.render()));
        if self.recent != self.total && !self.recent.is_empty() {
            out.push_str(&format!("\n  recent: {}", self.recent.render()));
        }
        out
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

/// Per-`(system, op)` trailing state.
struct OpTypeState {
    hist: Histogram,
    total: PhaseAttribution,
    window: PhaseAttribution,
    window_ops: u64,
    windows: VecDeque<PhaseAttribution>,
    /// `u64::MAX` while warming up (nothing flags).
    threshold: u64,
    slow: u64,
    slow_counter: Counter,
    phase_hists: [HistogramMetric; N_PHASES],
}

impl OpTypeState {
    fn new(system: &str, op: &str) -> Self {
        let phase_hists = TimeCategory::ALL.map(|cat| {
            crate::metrics::histogram(
                "obs_phase_nanos",
                &[("system", system), ("op", op), ("phase", cat.label())],
            )
        });
        OpTypeState {
            hist: Histogram::new(),
            total: PhaseAttribution::default(),
            window: PhaseAttribution::default(),
            window_ops: 0,
            windows: VecDeque::new(),
            threshold: u64::MAX,
            slow: 0,
            slow_counter: crate::metrics::counter(
                "obs_slow_ops_total",
                &[("system", system), ("op", op)],
            ),
            phase_hists,
        }
    }

    fn recent(&self) -> PhaseAttribution {
        let mut out = self.window;
        for w in &self.windows {
            out.add(w);
        }
        out
    }
}

/// A finished op as handed from [`FlightScope`] to the recorder.
struct ObservedOp {
    system: String,
    op: String,
    path_depth: u32,
    latency_nanos: u64,
    phases: PhaseAttribution,
    annotations: Vec<String>,
    annotations_elided: u32,
    trace: Option<Trace>,
    sampled: bool,
}

/// The flight recorder: per-op-type adaptive slow thresholds, a bounded
/// slow-op ring with drop accounting, and cumulative per-node phase
/// attribution. One process-global instance ([`global`]) serves production;
/// tests install private instances per thread
/// ([`install_thread_recorder`]) for deterministic isolation.
pub struct FlightRecorder {
    config: FlightConfig,
    armed: AtomicBool,
    seq: AtomicU64,
    states: Mutex<HashMap<(String, String), OpTypeState>>,
    slow: Mutex<VecDeque<SlowOp>>,
    slow_dropped: AtomicU64,
    slow_captured: AtomicU64,
    node_phases: Mutex<BTreeMap<String, PhaseAttribution>>,
}

impl FlightRecorder {
    /// Creates a recorder with the given config, initially disarmed.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            armed: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            states: Mutex::new(HashMap::new()),
            slow: Mutex::new(VecDeque::new()),
            slow_dropped: AtomicU64::new(0),
            slow_captured: AtomicU64::new(0),
            node_phases: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether [`op_scope`] captures through this recorder.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Starts capturing.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Stops capturing (in-flight scopes still complete).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Clears all trailing state, the slow ring, per-node attribution and
    /// the capture sequence — the determinism tests call this between runs.
    pub fn reset(&self) {
        self.states.lock().clear();
        self.slow.lock().clear();
        self.node_phases.lock().clear();
        self.seq.store(0, Ordering::Relaxed);
        self.slow_dropped.store(0, Ordering::Relaxed);
        self.slow_captured.store(0, Ordering::Relaxed);
    }

    /// Clones up to `n` of the most recent slow-op events, newest last.
    pub fn slow_recent(&self, n: usize) -> Vec<SlowOp> {
        let ring = self.slow.lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// The canonical slow-op log: one [`SlowOp::log_line`] per retained
    /// event, newest last, newline-terminated. Byte-identical across
    /// identical seeded runs.
    pub fn slow_log(&self) -> String {
        let ring = self.slow.lock();
        let mut out = String::new();
        for ev in ring.iter() {
            out.push_str(&ev.log_line());
            out.push('\n');
        }
        out
    }

    /// Slow ops captured since creation (or [`FlightRecorder::reset`]),
    /// including any evicted from the ring.
    pub fn slow_captured_total(&self) -> u64 {
        self.slow_captured.load(Ordering::Relaxed)
    }

    /// Slow ops evicted unread from the full ring.
    pub fn slow_dropped_total(&self) -> u64 {
        self.slow_dropped.load(Ordering::Relaxed)
    }

    /// Cumulative exclusive per-node phase attribution across every
    /// captured trace, sorted by node name. The placement controller reads
    /// this to tell a fsync-bound shard from a queue-bound one.
    pub fn node_phases(&self) -> Vec<(String, PhaseAttribution)> {
        self.node_phases
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Reports for every `(system, op)` pair whose label matches `op`
    /// (exact match), sorted by system for stable output.
    pub fn explain(&self, op: &str) -> Vec<ExplainReport> {
        self.explain_all()
            .into_iter()
            .filter(|r| r.op == op)
            .collect()
    }

    /// Reports for every observed `(system, op)` pair, sorted.
    pub fn explain_all(&self) -> Vec<ExplainReport> {
        let states = self.states.lock();
        let mut keys: Vec<&(String, String)> = states.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|key| {
                let st = &states[key];
                ExplainReport {
                    system: key.0.clone(),
                    op: key.1.clone(),
                    ops: st.hist.count(),
                    p50_nanos: st.hist.quantile(0.5),
                    p99_nanos: st.hist.quantile(0.99),
                    max_nanos: st.hist.max(),
                    threshold_nanos: (st.threshold != u64::MAX).then_some(st.threshold),
                    slow: st.slow,
                    total: st.total,
                    recent: st.recent(),
                }
            })
            .collect()
    }

    fn observe(&self, o: ObservedOp) {
        if let Some(tr) = &o.trace {
            if o.sampled {
                trace::push_to_ring(tr.clone());
            }
            let mut np = self.node_phases.lock();
            for (node, attr) in critpath::per_node(tr) {
                np.entry(node).or_default().add(&attr);
            }
        }

        let mut states = self.states.lock();
        let st = states
            .entry((o.system.clone(), o.op.clone()))
            .or_insert_with(|| OpTypeState::new(&o.system, &o.op));

        // Flag against the *trailing* threshold (computed from prior ops),
        // then fold this op in and recompute on cadence.
        let threshold = st.threshold;
        let is_slow = o.latency_nanos > threshold;

        st.hist.record(o.latency_nanos);
        st.total.add(&o.phases);
        st.window.add(&o.phases);
        st.window_ops += 1;
        if st.window_ops >= WINDOW_OPS {
            if st.windows.len() == MAX_WINDOWS {
                st.windows.pop_front();
            }
            let full = st.window;
            st.windows.push_back(full);
            st.window = PhaseAttribution::default();
            st.window_ops = 0;
        }
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            let nanos = o.phases.nanos(*cat);
            if nanos > 0 {
                st.phase_hists[i].record(nanos);
            }
        }

        let n = st.hist.count();
        if let Some(fixed) = self.config.fixed_threshold_nanos {
            st.threshold = fixed;
        } else if n >= self.config.warmup_ops && n.is_multiple_of(self.config.recompute_every) {
            let p99 = st.hist.quantile(0.99);
            st.threshold = (p99 as f64 * self.config.threshold_mult) as u64;
        }

        if !is_slow {
            return;
        }
        st.slow += 1;
        st.slow_counter.inc();
        drop(states);

        self.slow_captured.fetch_add(1, Ordering::Relaxed);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = SlowOp {
            seq,
            system: o.system,
            op: o.op,
            latency_nanos: o.latency_nanos,
            threshold_nanos: threshold,
            path_depth: o.path_depth,
            rpcs: o.trace.as_ref().map_or(0, Trace::rpc_count),
            shards: o.trace.as_ref().map(Trace::nodes).unwrap_or_default(),
            annotations: o.annotations,
            annotations_elided: o.annotations_elided,
            phases: o.phases,
            trace: o.trace,
        };
        let mut ring = self.slow.lock();
        if ring.len() == self.config.slow_capacity {
            ring.pop_front();
            self.slow_dropped.fetch_add(1, Ordering::Relaxed);
            crate::metrics::counter("obs_slow_dropped_total", &[]).inc();
        }
        ring.push_back(event);
    }
}

/// The process-global recorder (disarmed until [`arm_from_env`] or
/// [`FlightRecorder::arm`]).
pub fn global() -> &'static Arc<FlightRecorder> {
    static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(FlightRecorder::new(FlightConfig::from_env())))
}

/// Arms the global recorder from the environment: armed by default (the
/// recorder is meant to be always-on in harnesses and the CLI), disarmed
/// only by `MANTLE_FLIGHT=0`/`false`. Returns whether it ended up armed.
/// Harness entry points and the CLI call this once at startup.
pub fn arm_from_env() -> bool {
    let off = matches!(
        std::env::var("MANTLE_FLIGHT").ok().as_deref(),
        Some("0") | Some("false") | Some("no")
    );
    if off {
        global().disarm();
    } else {
        global().arm();
    }
    !off
}

/// In-flight per-op context for the current thread.
struct ActiveOp {
    recorder: Arc<FlightRecorder>,
    system: String,
    op: String,
    path_depth: u32,
    started: SimInstant,
    ledger0: TimeStats,
    annotations: Vec<String>,
    annotations_elided: u32,
    guard: Option<TraceGuard>,
    sampled: bool,
}

thread_local! {
    static ACTIVE_OP: RefCell<Option<ActiveOp>> = const { RefCell::new(None) };
    static THREAD_RECORDER: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
}

/// Routes the current thread's [`op_scope`] calls to `recorder` (armed or
/// not) until the returned guard drops — deterministic isolation for tests
/// that must not share trailing state with the rest of the process.
pub fn install_thread_recorder(recorder: Arc<FlightRecorder>) -> ThreadRecorderGuard {
    let prev = THREAD_RECORDER.with(|cell| cell.borrow_mut().replace(recorder));
    ThreadRecorderGuard { prev }
}

/// Restores the previously installed thread recorder (if any) on drop.
pub struct ThreadRecorderGuard {
    prev: Option<Arc<FlightRecorder>>,
}

impl Drop for ThreadRecorderGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        THREAD_RECORDER.with(|cell| *cell.borrow_mut() = prev);
    }
}

/// The recorder [`op_scope`] would capture through right now: the thread
/// override if installed, else the global recorder if armed.
pub fn effective_recorder() -> Option<Arc<FlightRecorder>> {
    if let Some(r) = THREAD_RECORDER.with(|cell| cell.borrow().clone()) {
        return Some(r);
    }
    let g = global();
    g.is_armed().then(|| Arc::clone(g))
}

/// Opens a flight-recorder scope for one operation: `system` names the
/// service (`mantle`, `infinifs`, …), `op` the operation label, and
/// `path_depth` the target's depth. Returns `None` when no recorder is
/// effective or an op is already in flight on this thread (the outer scope
/// owns the op). While the scope is open the thread runs under a detached
/// trace; on drop the recorder decides whether the op was slow.
///
/// The scope also runs the sampled-ring selection ([`trace::sampler_selects`])
/// so arming the recorder does not starve the ordinary trace ring.
pub fn op_scope(system: &str, op: &str, path_depth: u32) -> Option<FlightScope> {
    let recorder = effective_recorder()?;
    ACTIVE_OP.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_some() {
            return None;
        }
        let sampled = trace::sampler_selects();
        let guard = trace::start_detached(op);
        *slot = Some(ActiveOp {
            recorder,
            system: system.to_string(),
            op: op.to_string(),
            path_depth,
            started: clock::now(),
            ledger0: clock::thread_time_stats(),
            annotations: Vec::new(),
            annotations_elided: 0,
            guard,
            sampled,
        });
        Some(FlightScope { _priv: () })
    })
}

/// Whether an [`op_scope`] is open on this thread. Capture sites check
/// this (or just call [`annotate_with`], which checks internally).
#[inline]
pub fn is_op_active() -> bool {
    ACTIVE_OP.with(|cell| cell.borrow().is_some())
}

/// Attaches a note to the in-flight op, if any — fault denies, stale-route
/// retries, fsync retries, failovers. Notes ride along on the [`SlowOp`]
/// event if the op is flagged slow. No-op (one thread-local read) when no
/// op is in flight.
pub fn annotate(note: &str) {
    annotate_with(|| note.to_string());
}

/// [`annotate`] with lazy construction: the closure only runs when an op
/// is actually in flight, so capture sites pay nothing for the format when
/// the recorder is disarmed.
pub fn annotate_with(f: impl FnOnce() -> String) {
    ACTIVE_OP.with(|cell| {
        if let Some(ctx) = cell.borrow_mut().as_mut() {
            if ctx.annotations.len() < MAX_ANNOTATIONS {
                ctx.annotations.push(f());
            } else {
                ctx.annotations_elided += 1;
            }
        }
    });
}

/// RAII handle for one recorded operation; the slow/fast decision happens
/// on drop.
pub struct FlightScope {
    _priv: (),
}

impl Drop for FlightScope {
    fn drop(&mut self) {
        let Some(ctx) = ACTIVE_OP.with(|cell| cell.borrow_mut().take()) else {
            return;
        };
        // Finish the detached trace *first* so its root span closes at the
        // same virtual instant the latency is measured at.
        let trace = ctx.guard.map(TraceGuard::finish);
        let latency_nanos = ctx.started.elapsed().as_nanos() as u64;
        let phases = PhaseAttribution(clock::thread_time_stats().delta_since(&ctx.ledger0));
        ctx.recorder.observe(ObservedOp {
            system: ctx.system,
            op: ctx.op,
            path_depth: ctx.path_depth,
            latency_nanos,
            phases,
            annotations: ctx.annotations,
            annotations_elided: ctx.annotations_elided,
            trace,
            sampled: ctx.sampled,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder(config: FlightConfig) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(config))
    }

    #[test]
    fn fast_ops_are_not_captured_slow_ones_are() {
        let rec = recorder(FlightConfig {
            warmup_ops: 4,
            recompute_every: 2,
            threshold_mult: 2.0,
            ..FlightConfig::default()
        });
        let _g = install_thread_recorder(Arc::clone(&rec));
        // Warm up with uniform 100us ops: threshold settles near 200us.
        for _ in 0..8 {
            let s = op_scope("mantle", "lookup", 4).expect("scope");
            clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(100));
            drop(s);
        }
        assert_eq!(rec.slow_captured_total(), 0, "uniform ops must not flag");

        // One 10x outlier with annotations.
        {
            let s = op_scope("mantle", "lookup", 4).expect("scope");
            clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(100));
            annotate("fault:deny site=wal_fsync");
            clock::sleep_as(TimeCategory::Fault, Duration::from_micros(900));
            drop(s);
        }
        assert_eq!(rec.slow_captured_total(), 1);
        let slow = rec.slow_recent(8);
        assert_eq!(slow.len(), 1);
        let ev = &slow[0];
        assert_eq!(ev.seq, 1);
        assert_eq!(ev.latency_nanos, 1_000_000);
        assert_eq!(
            ev.phases.total_nanos(),
            ev.latency_nanos,
            "attribution closes"
        );
        assert_eq!(ev.annotations, vec!["fault:deny site=wal_fsync"]);
        assert!(ev.trace.is_some(), "trace force-captured");
        assert!(ev.log_line().contains("notes=fault:deny site=wal_fsync"));

        let reports = rec.explain("lookup");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].ops, 9);
        assert_eq!(reports[0].slow, 1);
        assert!(reports[0].render().contains("mantle/lookup"));
    }

    #[test]
    fn warmup_blocks_capture_and_fixed_threshold_bypasses_it() {
        let rec = recorder(FlightConfig::default());
        let _g = install_thread_recorder(Arc::clone(&rec));
        {
            let s = op_scope("mantle", "mkdir", 1).expect("scope");
            clock::sleep_as(TimeCategory::Other, Duration::from_secs(1));
            drop(s);
        }
        assert_eq!(
            rec.slow_captured_total(),
            0,
            "nothing flags during warmup without a fixed threshold"
        );

        let rec = recorder(FlightConfig {
            fixed_threshold_nanos: Some(1_000),
            ..FlightConfig::default()
        });
        let _g = install_thread_recorder(Arc::clone(&rec));
        for _ in 0..2 {
            let s = op_scope("mantle", "mkdir", 1).expect("scope");
            clock::sleep_as(TimeCategory::Other, Duration::from_micros(50));
            drop(s);
        }
        // Op 1 observes the warmup threshold before the fixed value
        // installs; op 2 flags against it.
        assert_eq!(rec.slow_captured_total(), 1);
    }

    #[test]
    fn slow_ring_evicts_with_drop_accounting() {
        let rec = recorder(FlightConfig {
            slow_capacity: 2,
            fixed_threshold_nanos: Some(0),
            ..FlightConfig::default()
        });
        let _g = install_thread_recorder(Arc::clone(&rec));
        for _ in 0..5 {
            let s = op_scope("mantle", "rm", 2).expect("scope");
            clock::sleep_as(TimeCategory::Other, Duration::from_micros(10));
            drop(s);
        }
        // Op 1 observes the warmup threshold (MAX) before the fixed value
        // installs, so 4 of 5 flag; ring keeps 2, drops 2.
        assert_eq!(rec.slow_captured_total(), 4);
        assert_eq!(rec.slow_recent(16).len(), 2);
        assert_eq!(rec.slow_dropped_total(), 2);
        let last = rec.slow_recent(1).remove(0);
        assert_eq!(last.seq, 4);
    }

    #[test]
    fn scopes_do_not_nest_and_reset_clears() {
        let rec = recorder(FlightConfig {
            fixed_threshold_nanos: Some(0),
            ..FlightConfig::default()
        });
        let _g = install_thread_recorder(Arc::clone(&rec));
        let outer = op_scope("mantle", "mv", 3).expect("outer");
        assert!(op_scope("mantle", "mv", 3).is_none(), "no nesting");
        assert!(is_op_active());
        clock::sleep_as(TimeCategory::Other, Duration::from_micros(1));
        drop(outer);
        assert!(!is_op_active());

        assert!(rec.slow_captured_total() > 0 || !rec.explain_all().is_empty());
        rec.reset();
        assert_eq!(rec.slow_captured_total(), 0);
        assert!(rec.explain_all().is_empty());
        assert!(rec.slow_log().is_empty());
    }
}
