//! SimFaults: a deterministic, seeded fault-injection plane (DESIGN.md §4.9).
//!
//! A [`FaultPlan`] is constructed from a `u64` seed plus a [`FaultProfile`]
//! and owns all fault state for one simulated cluster:
//!
//! * probabilistic transport faults — RPC drops, request timeouts, latency
//!   spikes — decided by pure-function rolls so the *n*-th decision at a
//!   given site is fully determined by `(seed, kind, site, n)`;
//! * explicit topology faults — directed network partitions between named
//!   nodes and node crash/restart (with optional hooks into the owning
//!   subsystem, e.g. a Raft replica's `crash()`/`recover()`);
//! * durability faults — WAL `fsync` failures (probabilistic or forced);
//! * transaction faults — TafDB cross-shard 2PC prepare failures and
//!   commit hiccups.
//!
//! Faults are injected **before** the guarded work executes (request-loss
//! semantics), so a retry never duplicates work and the existing
//! client-UUID idempotency machinery keeps replayed mutations exactly-once.
//!
//! Every injected fault bumps `fault_injected_total{kind=...}` in the
//! global metrics registry and (for probabilistic/durability/txn faults)
//! appends a [`FaultEvent`] to the plan's bounded event log, which is what
//! the chaos determinism test compares across runs and what
//! `just chaos SEED=…` prints as the fault timeline.
//!
//! Plans are installed per instance (each `SimNode`/WAL holds a
//! [`FaultSlot`]), never process-globally, so concurrent tests cannot
//! contaminate each other. A lightweight *active plan* registry exists only
//! so the panic hook can print the seed + profile of a red chaos run and so
//! a repro bundle can be written from the failure site.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use serde::Serialize;

/// Upper bound on retained [`FaultEvent`]s per plan. Chaos runs stay well
/// under this; if it is ever hit, `events_dropped` counts the overflow.
const EVENT_LOG_CAP: usize = 65_536;

/// The kinds of fault the plane can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The request was lost on the wire; the caller observes a timeout.
    RpcDrop,
    /// The request exceeded its deadline (slow server / queue blowup).
    RpcTimeout,
    /// The request survived but paid a latency spike.
    RpcSpike,
    /// The request hit a directed network partition.
    Partition,
    /// The target node is crashed.
    NodeDown,
    /// A WAL `fsync` failed before acknowledging.
    WalFsync,
    /// A 2PC participant failed during prepare.
    TxnPrepare,
    /// A 2PC participant failed during commit (decision already durable).
    TxnCommit,
    /// A shard-range migration failed while installing its prepare marker
    /// (before any row was copied).
    SplitPrepare,
    /// A shard-range migration crashed at its commit point (rows copied to
    /// the target, shard-map swap not yet published).
    SplitCommit,
    /// A replica crashed while writing a state-machine snapshot, leaving a
    /// torn image on disk (the previous snapshot stays authoritative).
    SnapshotWrite,
    /// A follower crashed while installing a received snapshot (the
    /// pre-install state stays authoritative; the leader retries).
    SnapshotInstall,
    /// A client-side path-lease was force-expired: the cache must treat a
    /// still-valid entry as expired and revalidate it (extra work only —
    /// coherence steps are never skipped).
    LeaseExpire,
    /// A path-lease revalidation was forced to report a stale read: the
    /// cache must drop the subtree and re-resolve from the authority.
    StaleRead,
}

impl FaultKind {
    /// Stable label used in metrics, events and `MetaError::Transient`.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::RpcDrop => "rpc_drop",
            FaultKind::RpcTimeout => "rpc_timeout",
            FaultKind::RpcSpike => "rpc_spike",
            FaultKind::Partition => "partition",
            FaultKind::NodeDown => "node_down",
            FaultKind::WalFsync => "wal_fsync",
            FaultKind::TxnPrepare => "txn_prepare",
            FaultKind::TxnCommit => "txn_commit",
            FaultKind::SplitPrepare => "split_prepare",
            FaultKind::SplitCommit => "split_commit",
            FaultKind::SnapshotWrite => "snap_write",
            FaultKind::SnapshotInstall => "snap_install",
            FaultKind::LeaseExpire => "lease_expire",
            FaultKind::StaleRead => "stale_read",
        }
    }

    fn idx(self) -> u64 {
        match self {
            FaultKind::RpcDrop => 1,
            FaultKind::RpcTimeout => 2,
            FaultKind::RpcSpike => 3,
            FaultKind::Partition => 4,
            FaultKind::NodeDown => 5,
            FaultKind::WalFsync => 6,
            FaultKind::TxnPrepare => 7,
            FaultKind::TxnCommit => 8,
            FaultKind::SplitPrepare => 9,
            FaultKind::SplitCommit => 10,
            FaultKind::SnapshotWrite => 11,
            FaultKind::SnapshotInstall => 12,
            FaultKind::LeaseExpire => 13,
            FaultKind::StaleRead => 14,
        }
    }
}

/// Fault probabilities and latency distributions for one chaos run.
///
/// All probabilities are in `[0, 1]`; a zero probability short-circuits
/// before consuming any deterministic-roll state, so a zeroed profile is a
/// no-op plan (and an uninstalled plan costs one relaxed atomic load).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultProfile {
    /// Probability an RPC request is dropped on the wire.
    pub rpc_drop_prob: f64,
    /// Wall time the caller waits before declaring a dropped request lost.
    pub rpc_drop_wait_micros: u64,
    /// Probability an RPC exceeds its deadline.
    pub rpc_timeout_prob: f64,
    /// Wall time burned before the timeout error surfaces.
    pub rpc_timeout_wait_micros: u64,
    /// Probability an RPC pays a latency spike (no error).
    pub rpc_spike_prob: f64,
    /// Minimum spike, inclusive.
    pub rpc_spike_min_micros: u64,
    /// Maximum spike, inclusive.
    pub rpc_spike_max_micros: u64,
    /// Probability a WAL fsync fails before acknowledging.
    pub wal_fsync_fail_prob: f64,
    /// Probability a 2PC participant fails during prepare.
    pub txn_prepare_fail_prob: f64,
    /// Probability a 2PC participant hiccups during commit (extra round
    /// trip; the commit decision still applies).
    pub txn_commit_hiccup_prob: f64,
    /// Probability a shard migration crashes while installing its prepare
    /// marker (aborts cleanly: no row has moved).
    pub split_prepare_fail_prob: f64,
    /// Probability a shard migration crashes at its commit point (rows
    /// copied but the map swap not published; the migration rolls back).
    pub split_commit_fail_prob: f64,
    /// Probability a snapshot write crashes partway, leaving a torn image
    /// (the previous snapshot stays authoritative).
    pub snapshot_write_fail_prob: f64,
    /// Probability a snapshot install crashes before the image is applied
    /// (the pre-install state stays authoritative; the leader retries).
    pub snapshot_install_fail_prob: f64,
    /// Probability a still-valid client path-lease is treated as expired
    /// (forces a revalidation RPC; never skips a coherence step).
    pub lease_expire_prob: f64,
    /// Probability a path-lease revalidation is forced to report staleness
    /// (forces subtree invalidation + full re-resolution).
    pub stale_read_prob: f64,
}

impl FaultProfile {
    /// A profile that injects nothing — the zero-fault baseline:
    /// installing `FaultPlan::new(seed, FaultProfile::zeroed())` must leave
    /// figure-harness throughput unchanged.
    pub fn zeroed() -> Self {
        FaultProfile {
            rpc_drop_prob: 0.0,
            rpc_drop_wait_micros: 0,
            rpc_timeout_prob: 0.0,
            rpc_timeout_wait_micros: 0,
            rpc_spike_prob: 0.0,
            rpc_spike_min_micros: 0,
            rpc_spike_max_micros: 0,
            wal_fsync_fail_prob: 0.0,
            txn_prepare_fail_prob: 0.0,
            txn_commit_hiccup_prob: 0.0,
            split_prepare_fail_prob: 0.0,
            split_commit_fail_prob: 0.0,
            snapshot_write_fail_prob: 0.0,
            snapshot_install_fail_prob: 0.0,
            lease_expire_prob: 0.0,
            stale_read_prob: 0.0,
        }
    }

    /// The nightly chaos-storm profile: every fault class enabled at rates
    /// high enough to fire hundreds of times per run yet low enough that
    /// bounded retry loops terminate quickly. Tuned for
    /// `SimConfig::instant()` clusters, hence the microsecond waits.
    pub fn storm() -> Self {
        FaultProfile {
            rpc_drop_prob: 0.02,
            rpc_drop_wait_micros: 100,
            rpc_timeout_prob: 0.01,
            rpc_timeout_wait_micros: 200,
            rpc_spike_prob: 0.05,
            rpc_spike_min_micros: 50,
            rpc_spike_max_micros: 400,
            wal_fsync_fail_prob: 0.01,
            txn_prepare_fail_prob: 0.02,
            txn_commit_hiccup_prob: 0.02,
            split_prepare_fail_prob: 0.0,
            split_commit_fail_prob: 0.0,
            snapshot_write_fail_prob: 0.0,
            snapshot_install_fail_prob: 0.0,
            lease_expire_prob: 0.0,
            stale_read_prob: 0.0,
        }
    }

    /// The storm profile plus crash-during-snapshot and crash-during-install
    /// faults, for chaos runs exercising Raft snapshotting/compaction
    /// (nightly seeds 32..47).
    pub fn snapshot_storm() -> Self {
        FaultProfile {
            snapshot_write_fail_prob: 0.25,
            snapshot_install_fail_prob: 0.25,
            ..FaultProfile::storm()
        }
    }

    /// The storm profile plus path-lease faults — forced lease expiry and
    /// forced-stale revalidations — for chaos runs exercising the client
    /// path-resolution cache (nightly seeds 48..63). Both faults only add
    /// work (a revalidation RPC, a subtree drop + re-resolve); they never
    /// let the cache skip a coherence step, so every correctness invariant
    /// of the storm suite must keep holding with the cache enabled.
    pub fn lease_storm() -> Self {
        FaultProfile {
            lease_expire_prob: 0.25,
            stale_read_prob: 0.15,
            ..FaultProfile::storm()
        }
    }
}

/// One injected fault, recorded in the plan's event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Monotonic sequence number within the plan.
    pub seq: u64,
    /// [`FaultKind::label`] of the injected fault.
    pub kind: &'static str,
    /// The node, edge or WAL scope the fault hit.
    pub site: String,
    /// Free-form context (operation name, forced/rolled, etc.).
    pub detail: String,
}

/// Transport-level fault decision for one RPC attempt.
#[derive(Clone, Copy, Debug)]
pub enum RpcFault {
    /// Fail the request after `wait` with the given fault kind.
    Deny {
        /// `RpcDrop`, `RpcTimeout`, `Partition` or `NodeDown`.
        kind: FaultKind,
        /// Wall time the caller burns before observing the failure.
        wait: Duration,
    },
    /// Let the request through after an extra latency spike.
    Spike {
        /// The injected extra latency.
        extra: Duration,
    },
}

/// Crash/restart callbacks a subsystem registers for a named node, so
/// `FaultPlan::crash_node` can reach e.g. a Raft replica's `crash()`.
type NodeHook = Box<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct Topology {
    /// Directed blocked edges as `(from, to)` site patterns. A trailing
    /// `*` in a pattern matches any suffix (`"tafdb*"`).
    blocked: HashSet<(String, String)>,
    /// Crashed node names.
    down: HashSet<String>,
}

#[derive(Default)]
struct PlanState {
    /// Per-`(kind, site)` decision counters backing the deterministic rolls.
    rolls: HashMap<(u64, String), u64>,
    /// WAL scopes with forced fsync failures still pending.
    forced_fsync: HashMap<String, u32>,
    /// Migration sites with forced prepare failures still pending.
    forced_split_prepare: HashMap<String, u32>,
    /// Migration sites with forced commit failures still pending.
    forced_split_commit: HashMap<String, u32>,
    /// Nodes with forced snapshot-write failures still pending.
    forced_snapshot_write: HashMap<String, u32>,
    /// Nodes with forced snapshot-install failures still pending.
    forced_snapshot_install: HashMap<String, u32>,
    /// Registered crash/restart hooks per node name.
    hooks: HashMap<String, (NodeHook, NodeHook)>,
    events: Vec<FaultEvent>,
    events_dropped: u64,
}

/// A seeded fault plan for one simulated cluster. See the module docs.
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    seq: AtomicU64,
    /// Fast-path flag: true iff any partition or crashed node exists, so
    /// the per-RPC topology check can skip the lock in the common case.
    topology_active: AtomicBool,
    topology: RwLock<Topology>,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// Builds a plan. All randomness derives from `seed`; the same
    /// `(seed, profile)` pair replayed against the same workload yields an
    /// identical fault event sequence.
    pub fn new(seed: u64, profile: FaultProfile) -> Arc<Self> {
        Arc::new(FaultPlan {
            seed,
            profile,
            seq: AtomicU64::new(0),
            topology_active: AtomicBool::new(false),
            topology: RwLock::new(Topology::default()),
            state: Mutex::new(PlanState::default()),
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    // ---- deterministic rolls -------------------------------------------

    /// Raw deterministic variate in `[0, 1)` for decision `n` of
    /// `(kind, site)`. Pure function of `(seed, kind, site, n)`.
    /// Finalized with the splitmix64 mixer.
    fn variate(&self, kind: FaultKind, site: &str, n: u64) -> f64 {
        let mut h = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ kind.idx().wrapping_mul(0xbf58_476d_1ce4_e5b9);
        for b in site.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= n.wrapping_mul(0x94d0_49bb_1331_11eb);
        // splitmix64 finalizer.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Takes the next decision number for `(kind, site)` and rolls it
    /// against probability `p`. A non-positive `p` short-circuits without
    /// consuming roll state, keeping zeroed profiles event-identical to no
    /// plan at all.
    fn roll(&self, kind: FaultKind, site: &str, p: f64) -> Option<f64> {
        if p <= 0.0 {
            return None;
        }
        let n = {
            let mut st = self.state.lock();
            let c = st.rolls.entry((kind.idx(), site.to_string())).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let u = self.variate(kind, site, n);
        (u < p).then_some(u / p)
    }

    fn record(&self, kind: FaultKind, site: &str, detail: String) {
        mantle_obs::counter("fault_injected_total", &[("kind", kind.label())]).inc();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        if st.events.len() < EVENT_LOG_CAP {
            st.events.push(FaultEvent {
                seq,
                kind: kind.label(),
                site: site.to_string(),
                detail,
            });
        } else {
            st.events_dropped += 1;
        }
    }

    // ---- transport faults ----------------------------------------------

    /// Full fault decision for one RPC attempt `caller -> node`, used by
    /// the fallible `SimNode::try_rpc_*` paths: topology (partition, node
    /// down) is enforced, then the probabilistic drop/timeout/spike rolls.
    pub fn rpc_fault(&self, caller: &str, node: &str, op: &str) -> Option<RpcFault> {
        if self.topology_active.load(Ordering::Relaxed) {
            let topo = self.topology.read();
            if topo.down.contains(node) {
                drop(topo);
                // Counter-only (no event): background heartbeat loops probe
                // crashed nodes at timing-dependent rates.
                mantle_obs::counter("fault_injected_total", &[("kind", "node_down")]).inc();
                return Some(RpcFault::Deny {
                    kind: FaultKind::NodeDown,
                    wait: Duration::from_micros(self.profile.rpc_timeout_wait_micros),
                });
            }
            if topo.edge_blocked(caller, node) {
                drop(topo);
                mantle_obs::counter("fault_injected_total", &[("kind", "partition")]).inc();
                return Some(RpcFault::Deny {
                    kind: FaultKind::Partition,
                    wait: Duration::from_micros(self.profile.rpc_timeout_wait_micros),
                });
            }
        }
        self.probabilistic_rpc_fault(node, op)
    }

    /// Probabilistic-only decision (drop/timeout/spike), used by the
    /// infallible `SimNode::rpc*` wrappers, which absorb faults with an
    /// internal bounded retry and therefore must not observe unbounded
    /// topology faults. Services that can surface errors use
    /// [`FaultPlan::rpc_fault`] via `try_rpc_*` instead.
    pub fn probabilistic_rpc_fault(&self, node: &str, op: &str) -> Option<RpcFault> {
        let p = &self.profile;
        if self
            .roll(FaultKind::RpcDrop, node, p.rpc_drop_prob)
            .is_some()
        {
            self.record(FaultKind::RpcDrop, node, format!("op={op}"));
            return Some(RpcFault::Deny {
                kind: FaultKind::RpcDrop,
                wait: Duration::from_micros(p.rpc_drop_wait_micros),
            });
        }
        if self
            .roll(FaultKind::RpcTimeout, node, p.rpc_timeout_prob)
            .is_some()
        {
            self.record(FaultKind::RpcTimeout, node, format!("op={op}"));
            return Some(RpcFault::Deny {
                kind: FaultKind::RpcTimeout,
                wait: Duration::from_micros(p.rpc_timeout_wait_micros),
            });
        }
        if let Some(u) = self.roll(FaultKind::RpcSpike, node, p.rpc_spike_prob) {
            let span = p
                .rpc_spike_max_micros
                .saturating_sub(p.rpc_spike_min_micros);
            let extra = p.rpc_spike_min_micros + (u * (span as f64 + 1.0)) as u64;
            let extra = extra.min(p.rpc_spike_max_micros);
            self.record(
                FaultKind::RpcSpike,
                node,
                format!("op={op} extra={extra}us"),
            );
            return Some(RpcFault::Spike {
                extra: Duration::from_micros(extra),
            });
        }
        None
    }

    // ---- topology faults -----------------------------------------------

    /// Blocks the directed edge `from -> to`. Site patterns may end in `*`
    /// to match a name prefix (`"tafdb*"`); `"*"` matches everything.
    pub fn partition(&self, from: &str, to: &str) {
        {
            let mut topo = self.topology.write();
            topo.blocked.insert((from.to_string(), to.to_string()));
        }
        self.topology_active.store(true, Ordering::Relaxed);
        self.record(FaultKind::Partition, from, format!("block -> {to}"));
    }

    /// Unblocks the directed edge `from -> to` (exact pattern match).
    pub fn heal(&self, from: &str, to: &str) {
        let mut topo = self.topology.write();
        topo.blocked.remove(&(from.to_string(), to.to_string()));
        let active = !topo.blocked.is_empty() || !topo.down.is_empty();
        drop(topo);
        self.topology_active.store(active, Ordering::Relaxed);
    }

    /// Removes every partition (crashed nodes stay crashed).
    pub fn heal_all(&self) {
        let mut topo = self.topology.write();
        topo.blocked.clear();
        let active = !topo.down.is_empty();
        drop(topo);
        self.topology_active.store(active, Ordering::Relaxed);
    }

    /// Whether the directed edge `from -> to` is currently blocked.
    /// Counter-only on block (no event-log entry): heartbeat/replication
    /// loops poll this at timing-dependent rates.
    pub fn edge_blocked(&self, from: &str, to: &str) -> bool {
        if !self.topology_active.load(Ordering::Relaxed) {
            return false;
        }
        let topo = self.topology.read();
        let blocked =
            topo.edge_blocked(from, to) || topo.down.contains(from) || topo.down.contains(to);
        drop(topo);
        if blocked {
            mantle_obs::counter("fault_injected_total", &[("kind", "partition")]).inc();
        }
        blocked
    }

    /// Registers crash/restart callbacks for `name`, invoked by
    /// [`FaultPlan::crash_node`] / [`FaultPlan::restart_node`].
    pub fn register_node_hooks(
        &self,
        name: &str,
        on_crash: impl Fn() + Send + Sync + 'static,
        on_restart: impl Fn() + Send + Sync + 'static,
    ) {
        self.state
            .lock()
            .hooks
            .insert(name.to_string(), (Box::new(on_crash), Box::new(on_restart)));
    }

    /// Crashes `name`: RPCs to it fail with `node_down`, and its registered
    /// crash hook (if any) fires.
    pub fn crash_node(&self, name: &str) {
        {
            let mut topo = self.topology.write();
            topo.down.insert(name.to_string());
        }
        self.topology_active.store(true, Ordering::Relaxed);
        self.record(FaultKind::NodeDown, name, "crash".to_string());
        self.run_hook(name, true);
    }

    /// Restarts `name`: RPCs to it succeed again, and its registered
    /// restart hook (if any) fires.
    pub fn restart_node(&self, name: &str) {
        let active = {
            let mut topo = self.topology.write();
            topo.down.remove(name);
            !topo.blocked.is_empty() || !topo.down.is_empty()
        };
        self.topology_active.store(active, Ordering::Relaxed);
        self.record(FaultKind::NodeDown, name, "restart".to_string());
        self.run_hook(name, false);
    }

    fn run_hook(&self, name: &str, crash: bool) {
        // Temporarily move the hook pair out so it runs without holding the
        // state lock (hooks call into Raft/TafDB which may consult the plan).
        let pair = self.state.lock().hooks.remove(name);
        if let Some((on_crash, on_restart)) = pair {
            if crash {
                on_crash();
            } else {
                on_restart();
            }
            self.state
                .lock()
                .hooks
                .insert(name.to_string(), (on_crash, on_restart));
        }
    }

    /// Whether `name` is currently crashed.
    pub fn node_down(&self, name: &str) -> bool {
        self.topology_active.load(Ordering::Relaxed) && self.topology.read().down.contains(name)
    }

    // ---- durability faults ---------------------------------------------

    /// Forces the next `n` fsyncs on WAL `scope` to fail, ahead of any
    /// probabilistic rolls. Used by the WAL recovery test.
    pub fn force_fsync_failure(&self, scope: &str, n: u32) {
        self.state
            .lock()
            .forced_fsync
            .entry(scope.to_string())
            .and_modify(|c| *c += n)
            .or_insert(n);
        self.record(FaultKind::WalFsync, scope, format!("force n={n}"));
    }

    /// Decides whether this fsync on WAL `scope` fails.
    pub fn wal_fsync_fails(&self, scope: &str) -> bool {
        {
            let mut st = self.state.lock();
            if let Some(c) = st.forced_fsync.get_mut(scope) {
                if *c > 0 {
                    *c -= 1;
                    drop(st);
                    self.record(FaultKind::WalFsync, scope, "forced".to_string());
                    return true;
                }
            }
        }
        if self
            .roll(FaultKind::WalFsync, scope, self.profile.wal_fsync_fail_prob)
            .is_some()
        {
            self.record(FaultKind::WalFsync, scope, "rolled".to_string());
            return true;
        }
        false
    }

    // ---- transaction faults --------------------------------------------

    /// Decides whether the 2PC prepare at `site` fails. The coordinator
    /// must release locks and surface `Transient` (safe to retry: nothing
    /// committed).
    pub fn txn_prepare_fails(&self, site: &str) -> bool {
        if self
            .roll(
                FaultKind::TxnPrepare,
                site,
                self.profile.txn_prepare_fail_prob,
            )
            .is_some()
        {
            self.record(FaultKind::TxnPrepare, site, "prepare".to_string());
            return true;
        }
        false
    }

    /// Decides whether the 2PC commit at `site` hiccups. The commit
    /// decision is already durable, so the participant retries internally
    /// (one extra round trip); the transaction still commits exactly once.
    pub fn txn_commit_hiccups(&self, site: &str) -> bool {
        if self
            .roll(
                FaultKind::TxnCommit,
                site,
                self.profile.txn_commit_hiccup_prob,
            )
            .is_some()
        {
            self.record(FaultKind::TxnCommit, site, "commit".to_string());
            return true;
        }
        false
    }

    // ---- shard-migration faults ----------------------------------------

    /// Forces the next `n` migration prepares at `site` to fail, ahead of
    /// any probabilistic rolls. Used by the split-crash chaos test.
    pub fn force_split_prepare_failure(&self, site: &str, n: u32) {
        self.state
            .lock()
            .forced_split_prepare
            .entry(site.to_string())
            .and_modify(|c| *c += n)
            .or_insert(n);
        self.record(FaultKind::SplitPrepare, site, format!("force n={n}"));
    }

    /// Forces the next `n` migration commits at `site` to fail.
    pub fn force_split_commit_failure(&self, site: &str, n: u32) {
        self.state
            .lock()
            .forced_split_commit
            .entry(site.to_string())
            .and_modify(|c| *c += n)
            .or_insert(n);
        self.record(FaultKind::SplitCommit, site, format!("force n={n}"));
    }

    /// Decides whether the migration prepare at `site` fails. The
    /// controller aborts cleanly: the marker is rolled back and no row has
    /// left the source shard.
    pub fn split_prepare_fails(&self, site: &str) -> bool {
        {
            let mut st = self.state.lock();
            if let Some(c) = st.forced_split_prepare.get_mut(site) {
                if *c > 0 {
                    *c -= 1;
                    drop(st);
                    self.record(FaultKind::SplitPrepare, site, "forced".to_string());
                    return true;
                }
            }
        }
        if self
            .roll(
                FaultKind::SplitPrepare,
                site,
                self.profile.split_prepare_fail_prob,
            )
            .is_some()
        {
            self.record(FaultKind::SplitPrepare, site, "prepare".to_string());
            return true;
        }
        false
    }

    /// Decides whether the migration commit at `site` fails. Rows are
    /// already copied to the target but the map swap has not published, so
    /// the controller deletes the copies and the source stays authoritative.
    pub fn split_commit_fails(&self, site: &str) -> bool {
        {
            let mut st = self.state.lock();
            if let Some(c) = st.forced_split_commit.get_mut(site) {
                if *c > 0 {
                    *c -= 1;
                    drop(st);
                    self.record(FaultKind::SplitCommit, site, "forced".to_string());
                    return true;
                }
            }
        }
        if self
            .roll(
                FaultKind::SplitCommit,
                site,
                self.profile.split_commit_fail_prob,
            )
            .is_some()
        {
            self.record(FaultKind::SplitCommit, site, "commit".to_string());
            return true;
        }
        false
    }

    // ---- raft snapshot faults -------------------------------------------

    /// Forces the next `n` snapshot writes at `site` (a node name) to crash
    /// partway, leaving a torn image. Used by the torn-snapshot chaos test.
    pub fn force_snapshot_write_failure(&self, site: &str, n: u32) {
        self.state
            .lock()
            .forced_snapshot_write
            .entry(site.to_string())
            .and_modify(|c| *c += n)
            .or_insert(n);
        self.record(FaultKind::SnapshotWrite, site, format!("force n={n}"));
    }

    /// Forces the next `n` snapshot installs at `site` to crash before the
    /// image is applied.
    pub fn force_snapshot_install_failure(&self, site: &str, n: u32) {
        self.state
            .lock()
            .forced_snapshot_install
            .entry(site.to_string())
            .and_modify(|c| *c += n)
            .or_insert(n);
        self.record(FaultKind::SnapshotInstall, site, format!("force n={n}"));
    }

    /// Decides whether the snapshot write at `site` crashes partway. The
    /// replica keeps its previous snapshot authoritative and the log keeps
    /// its prefix — same discard-on-abort discipline as shard migration.
    pub fn snapshot_write_fails(&self, site: &str) -> bool {
        {
            let mut st = self.state.lock();
            if let Some(c) = st.forced_snapshot_write.get_mut(site) {
                if *c > 0 {
                    *c -= 1;
                    drop(st);
                    self.record(FaultKind::SnapshotWrite, site, "forced".to_string());
                    return true;
                }
            }
        }
        if self
            .roll(
                FaultKind::SnapshotWrite,
                site,
                self.profile.snapshot_write_fail_prob,
            )
            .is_some()
        {
            self.record(FaultKind::SnapshotWrite, site, "write".to_string());
            return true;
        }
        false
    }

    // ---- path-lease faults ----------------------------------------------

    /// Decides whether a still-valid path-lease probed at `site` is treated
    /// as expired. The cache then revalidates with a version-check RPC —
    /// strictly extra work, never a skipped coherence step.
    pub fn lease_expires(&self, site: &str) -> bool {
        if self
            .roll(FaultKind::LeaseExpire, site, self.profile.lease_expire_prob)
            .is_some()
        {
            self.record(FaultKind::LeaseExpire, site, "probe".to_string());
            return true;
        }
        false
    }

    /// Decides whether a successful path-lease revalidation at `site` is
    /// forced to report staleness. The cache drops the cached subtree and
    /// re-resolves from the authority.
    pub fn stale_read_fires(&self, site: &str) -> bool {
        if self
            .roll(FaultKind::StaleRead, site, self.profile.stale_read_prob)
            .is_some()
        {
            self.record(FaultKind::StaleRead, site, "revalidate".to_string());
            return true;
        }
        false
    }

    /// Decides whether the snapshot install at `site` crashes before the
    /// image is applied. The pre-install state stays authoritative and the
    /// leader retries the transfer.
    pub fn snapshot_install_fails(&self, site: &str) -> bool {
        {
            let mut st = self.state.lock();
            if let Some(c) = st.forced_snapshot_install.get_mut(site) {
                if *c > 0 {
                    *c -= 1;
                    drop(st);
                    self.record(FaultKind::SnapshotInstall, site, "forced".to_string());
                    return true;
                }
            }
        }
        if self
            .roll(
                FaultKind::SnapshotInstall,
                site,
                self.profile.snapshot_install_fail_prob,
            )
            .is_some()
        {
            self.record(FaultKind::SnapshotInstall, site, "install".to_string());
            return true;
        }
        false
    }

    // ---- event log ------------------------------------------------------

    /// The injected-fault event log so far (bounded; see `events_dropped`).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.state.lock().events.clone()
    }

    /// Number of events dropped after the log cap was hit.
    pub fn events_dropped(&self) -> u64 {
        self.state.lock().events_dropped
    }

    /// Human-readable fault timeline, one event per line.
    pub fn timeline(&self) -> String {
        let st = self.state.lock();
        let mut out = String::with_capacity(st.events.len() * 48 + 64);
        out.push_str(&format!(
            "# fault timeline: seed={} events={} dropped={}\n",
            self.seed,
            st.events.len(),
            st.events_dropped
        ));
        for e in &st.events {
            out.push_str(&format!(
                "{:>6}  {:<12} {:<16} {}\n",
                e.seq, e.kind, e.site, e.detail
            ));
        }
        out
    }

    /// Writes a repro bundle for this plan into `dir`: the seed + profile
    /// as JSON, a Prometheus metrics snapshot, and the fault timeline.
    pub fn write_repro_bundle(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let header = BundleHeader {
            seed: self.seed,
            profile: self.profile.clone(),
        };
        let json = serde_json::to_string_pretty(&header)
            .unwrap_or_else(|_| format!("{{\"seed\":{}}}", self.seed));
        std::fs::write(dir.join("profile.json"), json)?;
        std::fs::write(
            dir.join("metrics.prom"),
            mantle_obs::snapshot().to_prometheus_text(),
        )?;
        std::fs::write(dir.join("events.log"), self.timeline())?;
        Ok(())
    }

    /// Registers this plan as the process's *active* plan (for the panic
    /// reporter) and installs the panic hook on first use. Returns `self`
    /// for chaining.
    pub fn activate(self: &Arc<Self>) -> Arc<Self> {
        install_panic_reporter();
        *active_plan().write() = Some(Arc::downgrade(self));
        self.clone()
    }
}

impl Topology {
    fn edge_blocked(&self, from: &str, to: &str) -> bool {
        self.blocked
            .iter()
            .any(|(f, t)| site_matches(f, from) && site_matches(t, to))
    }
}

fn site_matches(pattern: &str, name: &str) -> bool {
    if pattern == "*" {
        return true;
    }
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

/// Seed + profile header written to `profile.json` in a repro bundle.
#[derive(Clone, Debug, Serialize)]
struct BundleHeader {
    seed: u64,
    profile: FaultProfile,
}

// ---- active-plan registry + panic reporter -----------------------------

fn active_plan() -> &'static RwLock<Option<std::sync::Weak<FaultPlan>>> {
    static ACTIVE: std::sync::OnceLock<RwLock<Option<std::sync::Weak<FaultPlan>>>> =
        std::sync::OnceLock::new();
    ACTIVE.get_or_init(|| RwLock::new(None))
}

/// The currently active plan, if any (used by test harness helpers to
/// write repro bundles on failure).
pub fn current_active_plan() -> Option<Arc<FaultPlan>> {
    active_plan().read().as_ref().and_then(|w| w.upgrade())
}

fn install_panic_reporter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(plan) = current_active_plan() {
                let profile = serde_json::to_string(&plan.profile)
                    .unwrap_or_else(|_| "<unserializable>".to_string());
                eprintln!(
                    "\n== SimFaults: panic under active fault plan ==\n\
                     reproduce with: MANTLE_FAULT_SEED={} just chaos\n\
                     seed   : {}\nprofile: {}\nevents : {} injected ({} dropped)\n",
                    plan.seed(),
                    plan.seed(),
                    profile,
                    plan.events().len(),
                    plan.events_dropped(),
                );
                if let Ok(dir) = std::env::var("MANTLE_CHAOS_BUNDLE_DIR") {
                    let dir = std::path::Path::new(&dir).join(format!("seed-{}", plan.seed()));
                    match plan.write_repro_bundle(&dir) {
                        Ok(()) => eprintln!("repro bundle written to {}", dir.display()),
                        Err(e) => eprintln!("failed to write repro bundle: {e}"),
                    }
                }
            }
            prev(info);
        }));
    });
}

/// Reads `MANTLE_FAULT_SEED` (decimal) if set and parseable.
pub fn seed_from_env() -> Option<u64> {
    std::env::var("MANTLE_FAULT_SEED").ok()?.parse().ok()
}

// ---- caller identity ----------------------------------------------------

thread_local! {
    static CALLER: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The fault-plane identity of the current thread — the `from` side of
/// directed partition checks. Defaults to `"client"`.
pub fn current_caller() -> String {
    CALLER.with(|c| c.borrow().clone().unwrap_or_else(|| "client".to_string()))
}

/// Sets the current thread's fault-plane identity for the guard's
/// lifetime. Server-side threads (Raft replicators, TafDB compactors)
/// use this so partitions between *servers* don't require client help.
pub fn as_node(name: &str) -> CallerGuard {
    let prev = CALLER.with(|c| c.borrow_mut().replace(name.to_string()));
    CallerGuard { prev }
}

/// Restores the previous caller identity on drop.
pub struct CallerGuard {
    prev: Option<String>,
}

impl Drop for CallerGuard {
    fn drop(&mut self) {
        CALLER.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

// ---- per-instance slot --------------------------------------------------

/// A cheap per-instance plan holder: one relaxed atomic load when no plan
/// is installed, so fault hooks are free when disabled.
#[derive(Default)]
pub struct FaultSlot {
    armed: AtomicBool,
    plan: RwLock<Option<Arc<FaultPlan>>>,
}

impl FaultSlot {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or, with `None`, clears) the plan.
    pub fn install(&self, plan: Option<Arc<FaultPlan>>) {
        let armed = plan.is_some();
        *self.plan.write() = plan;
        self.armed.store(armed, Ordering::Release);
    }

    /// The installed plan, if any. Single relaxed load when empty.
    #[inline]
    pub fn get(&self) -> Option<Arc<FaultPlan>> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        self.plan.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::new(7, FaultProfile::storm());
        let b = FaultPlan::new(7, FaultProfile::storm());
        for _ in 0..500 {
            let fa = a.probabilistic_rpc_fault("tafdb0", "op").is_some();
            let fb = b.probabilistic_rpc_fault("tafdb0", "op").is_some();
            assert_eq!(fa, fb);
        }
        assert_eq!(a.events(), b.events());
        assert!(
            !a.events().is_empty(),
            "storm profile must fire in 500 rolls"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1, FaultProfile::storm());
        let b = FaultPlan::new(2, FaultProfile::storm());
        for _ in 0..500 {
            a.probabilistic_rpc_fault("tafdb0", "op");
            b.probabilistic_rpc_fault("tafdb0", "op");
        }
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn zeroed_profile_never_fires_and_consumes_no_state() {
        let plan = FaultPlan::new(3, FaultProfile::zeroed());
        for _ in 0..100 {
            assert!(plan.probabilistic_rpc_fault("n", "op").is_none());
            assert!(!plan.wal_fsync_fails("wal"));
            assert!(!plan.txn_prepare_fails("s0"));
            assert!(!plan.txn_commit_hiccups("s0"));
            assert!(!plan.split_prepare_fails("s0"));
            assert!(!plan.split_commit_fails("s0"));
        }
        assert!(plan.events().is_empty());
        assert!(plan.state.lock().rolls.is_empty());
    }

    #[test]
    fn directed_partitions_and_patterns() {
        let plan = FaultPlan::new(0, FaultProfile::zeroed());
        plan.partition("client", "tafdb*");
        assert!(plan.edge_blocked("client", "tafdb3"));
        assert!(
            !plan.edge_blocked("tafdb3", "client"),
            "partition is directed"
        );
        assert!(!plan.edge_blocked("client", "index0"));
        assert!(matches!(
            plan.rpc_fault("client", "tafdb1", "get"),
            Some(RpcFault::Deny {
                kind: FaultKind::Partition,
                ..
            })
        ));
        plan.heal("client", "tafdb*");
        assert!(!plan.edge_blocked("client", "tafdb3"));
        assert!(plan.rpc_fault("client", "tafdb1", "get").is_none());
    }

    #[test]
    fn crash_restart_hooks_fire() {
        use std::sync::atomic::AtomicU32;
        let plan = FaultPlan::new(0, FaultProfile::zeroed());
        let crashes = Arc::new(AtomicU32::new(0));
        let restarts = Arc::new(AtomicU32::new(0));
        let (c, r) = (crashes.clone(), restarts.clone());
        plan.register_node_hooks(
            "index0",
            move || {
                c.fetch_add(1, Ordering::SeqCst);
            },
            move || {
                r.fetch_add(1, Ordering::SeqCst);
            },
        );
        plan.crash_node("index0");
        assert!(plan.node_down("index0"));
        assert!(matches!(
            plan.rpc_fault("client", "index0", "x"),
            Some(RpcFault::Deny {
                kind: FaultKind::NodeDown,
                ..
            })
        ));
        plan.restart_node("index0");
        assert!(!plan.node_down("index0"));
        assert_eq!(crashes.load(Ordering::SeqCst), 1);
        assert_eq!(restarts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn forced_fsync_failures_consume() {
        let plan = FaultPlan::new(0, FaultProfile::zeroed());
        plan.force_fsync_failure("wal", 2);
        assert!(plan.wal_fsync_fails("wal"));
        assert!(plan.wal_fsync_fails("wal"));
        assert!(!plan.wal_fsync_fails("wal"));
        assert!(!plan.wal_fsync_fails("other"));
    }

    #[test]
    fn forced_split_failures_consume() {
        let plan = FaultPlan::new(0, FaultProfile::zeroed());
        plan.force_split_prepare_failure("tafdb0", 1);
        plan.force_split_commit_failure("tafdb0", 1);
        assert!(plan.split_prepare_fails("tafdb0"));
        assert!(!plan.split_prepare_fails("tafdb0"));
        assert!(plan.split_commit_fails("tafdb0"));
        assert!(!plan.split_commit_fails("tafdb0"));
        assert!(!plan.split_prepare_fails("other"));
    }

    #[test]
    fn fault_slot_is_cheap_and_clearable() {
        let slot = FaultSlot::new();
        assert!(slot.get().is_none());
        let plan = FaultPlan::new(0, FaultProfile::zeroed());
        slot.install(Some(plan.clone()));
        assert!(slot.get().is_some());
        slot.install(None);
        assert!(slot.get().is_none());
    }

    #[test]
    fn timeline_mentions_seed_and_events() {
        let plan = FaultPlan::new(42, FaultProfile::zeroed());
        plan.force_fsync_failure("tafdb", 1);
        let tl = plan.timeline();
        assert!(tl.contains("seed=42"));
        assert!(tl.contains("wal_fsync"));
    }
}
