//! A single Raft replica: roles, log replication, elections, ReadIndex.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mantle_obs::{Counter, Gauge, HistogramMetric};
use mantle_rpc::SimNode;
use mantle_store::GroupCommitWal;
use mantle_types::clock::{self, TimeCategory};
use mantle_types::snapshot::{frame, unframe};
use mantle_types::{RequestCtx, SimConfig};

/// Group-shared role-change signal: bumped whenever any replica's role (or
/// liveness) changes, so waiters like [`crate::RaftGroup::await_leader`]
/// can block on a condvar instead of sleep-polling.
pub(crate) struct RoleWatch {
    version: Mutex<u64>,
    cv: Condvar,
}

impl RoleWatch {
    pub(crate) fn new() -> Self {
        RoleWatch {
            version: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Current change counter; read *before* inspecting role state so a
    /// change between the inspection and [`RoleWatch::wait_past`] is never
    /// lost.
    pub(crate) fn version(&self) -> u64 {
        *self.version.lock()
    }

    pub(crate) fn notify(&self) {
        let mut v = self.version.lock();
        *v += 1;
        self.cv.notify_all();
    }

    /// Blocks until the change counter advances past `seen` or `timeout`
    /// elapses.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) {
        let mut v = self.version.lock();
        if *v > seen {
            return;
        }
        self.cv.wait_for(&mut v, timeout);
    }
}

/// Per-replica metric handles (labeled `node=<sim node name>`).
struct RaftMetrics {
    /// `raft_appends_total{node=...}` — log entries appended (leader
    /// proposals and follower replication).
    appends: Counter,
    /// `raft_elections_total{node=...}` — campaigns started here.
    elections: Counter,
    /// `raft_leaders_elected_total{node=...}` — campaigns this replica won.
    leaders_elected: Counter,
    /// `raft_term_changes_total{node=...}` — term bumps observed here.
    term_changes: Counter,
    /// `raft_replicate_batch_entries{node=...}` — entries per
    /// AppendEntries batch sent from this leader.
    batch: HistogramMetric,
    /// `raft_snapshots_total{node=...}` — snapshots captured here.
    snapshots: Counter,
    /// `raft_snapshot_installs_total{node=...}` — snapshots installed on
    /// this (lagging) replica.
    installs: Counter,
    /// `raft_snapshot_aborts_total{node=...}` — snapshot writes/installs
    /// abandoned on an injected fault or torn image; the previous snapshot
    /// stayed authoritative.
    snapshot_aborts: Counter,
    /// `raft_log_bytes{node=...}` — retained (uncompacted) log footprint.
    log_bytes: Gauge,
}

impl RaftMetrics {
    fn new(node: &str) -> Self {
        let labels = [("node", node)];
        RaftMetrics {
            appends: mantle_obs::counter("raft_appends_total", &labels),
            elections: mantle_obs::counter("raft_elections_total", &labels),
            leaders_elected: mantle_obs::counter("raft_leaders_elected_total", &labels),
            term_changes: mantle_obs::counter("raft_term_changes_total", &labels),
            batch: mantle_obs::histogram("raft_replicate_batch_entries", &labels),
            snapshots: mantle_obs::counter("raft_snapshots_total", &labels),
            installs: mantle_obs::counter("raft_snapshot_installs_total", &labels),
            snapshot_aborts: mantle_obs::counter("raft_snapshot_aborts_total", &labels),
            log_bytes: mantle_obs::gauge("raft_log_bytes", &labels),
        }
    }
}

use crate::batcher::{CommitIndexBatcher, CommitPoint};
use crate::log::{LogEntry, RaftLog};

/// The replicated state machine a Raft group drives.
///
/// Each replica owns an independent instance and applies committed commands
/// in log order; §4: "all nodes maintain identical in-memory data
/// structures, which are independently constructed by each node".
pub trait StateMachine: Send + Sync + 'static {
    /// The replicated command type.
    type Command: Clone + Send + Sync + 'static;

    /// Applies the committed entry at `index`. Must be deterministic.
    fn apply(&self, index: u64, cmd: &Self::Command);

    /// A no-op command the leader appends on taking office. Committing it
    /// is what allows a new leader to advance the commit index over entries
    /// from previous terms (Raft §5.4.2's current-term commit rule).
    fn barrier() -> Self::Command;

    /// Serializes the entire applied state. Must be **deterministic**: two
    /// replicas that applied the same log prefix must produce byte-identical
    /// images (iterate maps in sorted order — see
    /// [`mantle_types::snapshot`]). Called from the apply thread only, so
    /// no command is concurrently being applied.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the whole state with an image produced by
    /// [`StateMachine::snapshot`]. Derived caches may simply be cleared;
    /// like `apply`, this runs on the apply thread only.
    fn restore(&self, image: &[u8]);
}

/// Protocol tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RaftOptions {
    /// Share fsyncs across concurrently appended entries (§5.2.3). Turning
    /// this off reproduces the Figure 16 pre-`+raftlogbatch` baseline.
    pub log_batching: bool,
    /// Leader heartbeat interval.
    pub heartbeat_interval: Duration,
    /// Minimum randomized election timeout.
    pub election_timeout_min: Duration,
    /// Maximum randomized election timeout.
    pub election_timeout_max: Duration,
    /// Maximum entries per AppendEntries RPC — the replication pipeline
    /// depth. Together with the per-round network+fsync cost this bounds a
    /// group's commit throughput ("Mantle's throughput is bound to a single
    /// Raft group", §6.3).
    pub max_batch: usize,
    /// Applied entries between state-machine snapshots (0 disables
    /// snapshotting and compaction entirely — the pre-§4.11 behaviour).
    pub snapshot_every: u64,
    /// Also snapshot + compact whenever the retained log exceeds this many
    /// bytes, even if `snapshot_every` has not elapsed (0 disables the
    /// bytes trigger).
    pub log_watermark_bytes: u64,
    /// Trailing entries kept behind each snapshot so briefly-lagging
    /// followers (and freshly recovered replicas) catch up from the log
    /// suffix instead of a full snapshot transfer.
    pub snapshot_keep_entries: u64,
}

impl Default for RaftOptions {
    fn default() -> Self {
        RaftOptions {
            log_batching: true,
            heartbeat_interval: Duration::from_millis(20),
            election_timeout_min: Duration::from_millis(150),
            election_timeout_max: Duration::from_millis(300),
            max_batch: 16,
            snapshot_every: 1024,
            log_watermark_bytes: 4 << 20,
            snapshot_keep_entries: 64,
        }
    }
}

/// A replica's current role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Accepts proposals and drives replication.
    Leader,
    /// Replicates the leader's log; may campaign.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Non-voting read replica (§5.1.3).
    Learner,
}

/// Errors surfaced to Raft clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaftError {
    /// This replica is not the leader; the hint names the believed leader.
    NotLeader(Option<usize>),
    /// The replica is crashed or shutting down.
    Unavailable,
    /// The proposed entry was overwritten by a newer leader before commit.
    Superseded,
    /// The request's propagated deadline expired before the read path could
    /// issue its ReadIndex query (§4.14 deadline propagation).
    DeadlineExceeded,
}

impl std::fmt::Display for RaftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaftError::NotLeader(hint) => write!(f, "not leader (hint: {hint:?})"),
            RaftError::Unavailable => write!(f, "replica unavailable"),
            RaftError::Superseded => write!(f, "entry superseded by new leader"),
            RaftError::DeadlineExceeded => write!(f, "read deadline exceeded"),
        }
    }
}

impl std::error::Error for RaftError {}

/// AppendEntries response.
#[derive(Clone, Copy, Debug)]
pub struct AppendResult {
    term: u64,
    success: bool,
    match_index: u64,
    reachable: bool,
}

/// RequestVote response.
#[derive(Clone, Copy, Debug)]
pub struct VoteResult {
    term: u64,
    granted: bool,
    reachable: bool,
}

struct Inner<C> {
    term: u64,
    voted_for: Option<usize>,
    role: Role,
    log: RaftLog<C>,
    commit_index: u64,
    last_applied: u64,
    /// Highest applied index whose post-apply work (the snapshot check)
    /// has finished too; trails `last_applied` while a snapshot is written.
    settled_index: u64,
    /// Readers blocked in `read_index`. `append_entries` that lands
    /// entries without moving the commit index signals `apply_cv` only when
    /// some wait, sparing the apply thread a needless wake-up.
    read_waiters: usize,
    last_heartbeat: Instant,
    leader_hint: Option<usize>,
    /// Leader-only: next log index to send to each peer.
    next_index: Vec<u64>,
    /// Leader-only: highest durably replicated index per peer.
    match_index: Vec<u64>,
    /// Bumped on each leadership acquisition; stale replicators exit.
    leader_epoch: u64,
    /// A received-but-not-yet-installed snapshot `(index, term, frame)`;
    /// consumed by the apply thread, which is the sole SM mutator.
    pending_install: Option<(u64, u64, Arc<Vec<u8>>)>,
    /// Completed install *attempts* (success or abort); lets the
    /// InstallSnapshot handler distinguish "still queued" from "tried and
    /// failed" without a side channel.
    install_seq: u64,
}

/// The latest durable state-machine snapshot of one replica.
///
/// `data` is a checksummed frame ([`mantle_types::snapshot::frame`]): a
/// torn write is detected at restore time, not trusted.
struct Snapshot {
    /// Last log index folded into the image.
    index: u64,
    /// Term of that entry.
    term: u64,
    /// Framed image; shared with in-flight InstallSnapshot RPCs.
    data: Arc<Vec<u8>>,
}

/// One member of a Raft group.
pub struct RaftReplica<SM: StateMachine> {
    id: usize,
    n_voters: usize,
    group_size: usize,
    learner: bool,
    inner: Mutex<Inner<SM::Command>>,
    /// Signaled when commit_index or last_applied advances.
    apply_cv: Condvar,
    /// Signaled when new entries are appended (wakes replicators).
    log_cv: Condvar,
    sm: Arc<SM>,
    wal: GroupCommitWal,
    node: Arc<SimNode>,
    alive: AtomicBool,
    shutdown: AtomicBool,
    peers: OnceLock<Vec<Weak<RaftReplica<SM>>>>,
    read_batcher: CommitIndexBatcher,
    config: SimConfig,
    opts: RaftOptions,
    metrics: RaftMetrics,
    role_watch: Arc<RoleWatch>,
    /// Latest *known-good* durable snapshot: only ever replaced by a fully
    /// written, checkpoint-acknowledged successor. Lock order: `inner`
    /// before `snap`.
    snap: Mutex<Snapshot>,
    /// A newer image whose write crashed partway (injected
    /// `snap_write` fault): durable on disk but torn. Recovery validates it,
    /// rejects it by checksum, and falls back to [`RaftReplica::snap`].
    torn_snap: Mutex<Option<Arc<Vec<u8>>>>,
    /// InstallSnapshot RPCs sent while leading.
    installs_sent: AtomicU64,
    /// Snapshots successfully installed on this replica.
    installs_applied: AtomicU64,
    /// Snapshots captured locally by the apply thread.
    snapshots_taken: AtomicU64,
}

impl<SM: StateMachine> RaftReplica<SM> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        n_voters: usize,
        group_size: usize,
        sm: SM,
        node: Arc<SimNode>,
        config: SimConfig,
        opts: RaftOptions,
        role_watch: Arc<RoleWatch>,
    ) -> Arc<Self> {
        let learner = id >= n_voters;
        let metrics = RaftMetrics::new(node.name());
        // The index-0 snapshot of the pristine state machine: recovery and
        // InstallSnapshot always have *some* authoritative image to fall
        // back to, even before the first periodic snapshot.
        let genesis = Arc::new(frame(sm.snapshot()));
        Arc::new(RaftReplica {
            id,
            n_voters,
            group_size,
            learner,
            inner: Mutex::new(Inner {
                term: 0,
                voted_for: None,
                role: if learner {
                    Role::Learner
                } else {
                    Role::Follower
                },
                log: RaftLog::default(),
                commit_index: 0,
                last_applied: 0,
                settled_index: 0,
                read_waiters: 0,
                last_heartbeat: Instant::now(),
                leader_hint: None,
                next_index: vec![1; group_size],
                match_index: vec![0; group_size],
                leader_epoch: 0,
                pending_install: None,
                install_seq: 0,
            }),
            apply_cv: Condvar::new(),
            log_cv: Condvar::new(),
            sm: Arc::new(sm),
            wal: GroupCommitWal::new_scoped(config, opts.log_batching, "raft"),
            node,
            alive: AtomicBool::new(true),
            shutdown: AtomicBool::new(false),
            peers: OnceLock::new(),
            read_batcher: CommitIndexBatcher::new(),
            config,
            opts,
            metrics,
            role_watch,
            snap: Mutex::new(Snapshot {
                index: 0,
                term: 0,
                data: genesis,
            }),
            torn_snap: Mutex::new(None),
            installs_sent: AtomicU64::new(0),
            installs_applied: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
        })
    }

    /// Sets the role field and signals the group-wide watch if it changed.
    fn set_role(&self, g: &mut Inner<SM::Command>, role: Role) {
        if g.role != role {
            g.role = role;
            self.role_watch.notify();
        }
    }

    pub(crate) fn set_peers(&self, peers: Vec<Weak<RaftReplica<SM>>>) {
        self.peers
            .set(peers)
            .map_err(|_| ())
            .expect("peers set once");
    }

    fn peer(&self, i: usize) -> Option<Arc<RaftReplica<SM>>> {
        self.peers.get()?.get(i)?.upgrade()
    }

    // --- accessors -------------------------------------------------------

    /// This replica's id within the group.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether this replica is a non-voting learner.
    pub fn is_learner(&self) -> bool {
        self.learner
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.inner.lock().role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.inner.lock().term
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.alive() && self.inner.lock().role == Role::Leader
    }

    /// Whether the replica is up.
    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire) && !self.shutdown.load(Ordering::Acquire)
    }

    /// Highest applied log index.
    pub fn last_applied(&self) -> u64 {
        self.inner.lock().last_applied
    }

    /// The replica's state machine.
    pub fn state_machine(&self) -> &SM {
        &self.sm
    }

    /// The simulated server this replica runs on.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.node
    }

    /// Physical fsyncs performed by this replica's log.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Index of the last entry covered by this replica's local snapshot.
    pub fn snapshot_index(&self) -> u64 {
        self.snap.lock().index
    }

    /// Approximate bytes retained in the (uncompacted) log.
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log.bytes()
    }

    /// Snapshots this replica has captured.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken.load(Ordering::Relaxed)
    }

    /// InstallSnapshot RPCs this replica has sent while leading.
    pub fn snapshot_installs_sent(&self) -> u64 {
        self.installs_sent.load(Ordering::Relaxed)
    }

    /// Snapshots successfully installed on this replica.
    pub fn snapshot_installs_applied(&self) -> u64 {
        self.installs_applied.load(Ordering::Relaxed)
    }

    // --- failure injection ------------------------------------------------

    /// Installs (or clears) a fault plan on this replica: its node
    /// (transport faults), its log WAL (fsync faults), and the
    /// replication/election/read paths (directed partitions).
    pub fn install_faults(&self, plan: Option<Arc<mantle_rpc::FaultPlan>>) {
        self.node.set_faults(plan.clone());
        self.wal.set_faults(plan);
    }

    /// Whether the directed edge from this replica to `peer` is cut by an
    /// installed fault plan.
    fn edge_cut(&self, peer: &RaftReplica<SM>) -> bool {
        self.node
            .faults()
            .is_some_and(|p| p.edge_blocked(self.node.name(), peer.node.name()))
    }

    /// Simulates a crash: the replica stops answering and proposing. Its
    /// log survives (it was durable), matching a restart from disk.
    pub fn crash(&self) {
        self.alive.store(false, Ordering::Release);
        let _g = self.inner.lock();
        self.apply_cv.notify_all();
        self.log_cv.notify_all();
        self.role_watch.notify();
    }

    /// Brings a crashed replica back as a follower.
    ///
    /// Bounded recovery (§4.11): the in-memory applied state is lost with
    /// the crash, so the replica restores its latest durable snapshot and
    /// re-applies only the durable log *suffix* past it — O(snapshot +
    /// suffix), not O(history). A snapshot whose write was torn by the
    /// crash fails checksum validation and recovery falls back to the
    /// previous known-good snapshot (the log is only ever compacted after
    /// a *successful* snapshot, so the longer suffix it needs is intact).
    pub fn recover(&self) {
        {
            let mut g = self.inner.lock();
            if g.role == Role::Leader || g.role == Role::Candidate {
                self.set_role(&mut g, Role::Follower);
            }
            g.last_heartbeat = Instant::now();
            g.pending_install = None;
            if let Some(torn) = self.torn_snap.lock().take() {
                // The newest on-disk image never finished writing; the
                // checksum rejects it and the previous snapshot stays
                // authoritative.
                debug_assert!(unframe(&torn).is_none(), "torn frame must not validate");
                mantle_obs::flight::annotate_with(|| {
                    format!("raft:recover torn_snapshot node={}", self.node.name())
                });
                self.metrics.snapshot_aborts.inc();
            }
            let (snap_index, data) = {
                let s = self.snap.lock();
                (s.index, Arc::clone(&s.data))
            };
            let image = unframe(&data).expect("known-good snapshot validates");
            self.sm.restore(image);
            g.last_applied = snap_index;
            g.settled_index = snap_index;
            if g.commit_index < snap_index {
                g.commit_index = snap_index;
            }
            // Invalidate any apply batch collected before the crash: its
            // bookkeeping would skip re-applying the restored suffix.
            g.install_seq += 1;
            self.apply_cv.notify_all();
        }
        self.alive.store(true, Ordering::Release);
        self.role_watch.notify();
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _g = self.inner.lock();
        self.apply_cv.notify_all();
        self.log_cv.notify_all();
        self.role_watch.notify();
    }

    // --- client API -------------------------------------------------------

    /// Proposes a command; returns its log index once committed *and*
    /// applied on this (leader) replica.
    ///
    /// # Errors
    ///
    /// [`RaftError::NotLeader`] when called on a non-leader,
    /// [`RaftError::Unavailable`] if the replica dies while waiting, and
    /// [`RaftError::Superseded`] if a new leader overwrote the entry.
    pub fn propose(&self, cmd: SM::Command) -> Result<u64, RaftError> {
        if !self.alive() {
            return Err(RaftError::Unavailable);
        }
        let (my_index, my_term) = {
            let mut g = self.inner.lock();
            if g.role != Role::Leader {
                return Err(RaftError::NotLeader(g.leader_hint));
            }
            let term = g.term;
            let index = g.log.append(LogEntry { term, cmd });
            self.log_cv.notify_all();
            (index, term)
        };
        self.metrics.appends.inc();

        // Leader durability: group-committed fsync outside the lock.
        self.wal.append();

        // Retryable even if the entry later commits: the client-UUID
        // idempotency layer makes the replay safe.
        let deadline = self.fault_wait_deadline();

        let mut g = self.inner.lock();
        if g.match_index[self.id] < my_index {
            g.match_index[self.id] = my_index;
        }
        self.advance_commit(&mut g);
        loop {
            if g.last_applied >= my_index {
                return match g.log.term_at(my_index) {
                    Some(t) if t == my_term => {
                        // Quorum replication happens on replicator threads;
                        // under virtual time the proposer's own timeline
                        // would not see that round trip, so the modeled
                        // commit cost is folded in here (no-op under the
                        // wall clock, where the condvar wait was real).
                        if self.n_voters > 1 {
                            // Attribute the folded commit cost to this
                            // replica in any active trace, so critical-path
                            // breakdowns show "commit @ raft leader" rather
                            // than unlabeled client time.
                            let _span = mantle_obs::trace::span(
                                "quorum_commit",
                                self.node.name(),
                                mantle_obs::trace::SpanKind::Local,
                            );
                            clock::fold_model(TimeCategory::Commit, self.config.rtt());
                        }
                        Ok(my_index)
                    }
                    _ => Err(RaftError::Superseded),
                };
            }
            if g.log.term_at(my_index) != Some(my_term) {
                return Err(RaftError::Superseded);
            }
            if !self.alive() {
                return Err(RaftError::Unavailable);
            }
            if deadline.is_some_and(|d| Instant::now() > d) {
                return Err(RaftError::Unavailable);
            }
            self.apply_cv.wait_for(&mut g, Duration::from_millis(10));
        }
    }

    /// With a fault plan installed, a partitioned leader must not hang its
    /// callers forever: waits for a commit are bounded by this instant and
    /// surface [`RaftError::Unavailable`] (retryable). Without a plan they
    /// are unbounded.
    fn fault_wait_deadline(&self) -> Option<Instant> {
        self.node.faults().map(|_| {
            Instant::now() + (self.opts.election_timeout_max * 10).max(Duration::from_secs(2))
        })
    }

    /// Blocks until this replica has applied at least `index` and finished
    /// the post-apply work for it (a due snapshot is taken and counted), or
    /// `timeout` elapses. Returns whether the target was reached.
    /// Notification-based (the apply loop signals `apply_cv`), so callers
    /// neither spin nor depend on wall-clock sleep granularity.
    pub fn wait_for_applied(&self, index: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock();
        while g.settled_index < index {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.apply_cv.wait_for(&mut g, deadline - now);
        }
        true
    }

    /// ReadIndex (§5.1.3): obtains a linearization-safe commit index and
    /// waits until the local apply index reaches it. On the leader this is
    /// the local commit index; on followers/learners the leader is queried
    /// (batched) at the cost of one RPC for the batch leader, and its
    /// `(index, term)` reply lets this replica commit the index itself as
    /// soon as its log holds that entry (DESIGN.md §4.15) — no wait for the
    /// leader's next AppendEntries. Either way the leader first waits for
    /// its term-start barrier to apply.
    ///
    /// # Errors
    ///
    /// [`RaftError::Unavailable`] when no leader is reachable or this
    /// replica dies while waiting (a leader that steps down while waiting
    /// for its barrier asks the new leader instead);
    /// [`RaftError::DeadlineExceeded`] when an expired request reaches a
    /// follower. The leader-local read issues no ReadIndex round and leaves
    /// the deadline to the resolve RPC's admission (DESIGN.md §4.14).
    pub fn read_index(&self, stats: &mut RequestCtx) -> Result<u64, RaftError> {
        let point = match self.leader_read_point() {
            Err(RaftError::NotLeader(_)) => self.query_leader(stats)?,
            local => return local.map(|p| p.index),
        };
        let mut g = self.inner.lock();
        loop {
            let commit = learn_commit(&g.log, g.commit_index, point);
            if commit > g.commit_index {
                g.commit_index = commit;
                self.apply_cv.notify_all();
            }
            if g.last_applied >= point.index {
                return Ok(point.index);
            }
            if !self.alive() {
                return Err(RaftError::Unavailable);
            }
            // Woken by the apply loop, by `append_entries` landing the
            // entry this replica lacked, or by a crash; the timeout is only
            // a backstop.
            g.read_waiters += 1;
            self.apply_cv.wait_for(&mut g, self.opts.heartbeat_interval);
            g.read_waiters -= 1;
        }
    }

    /// A follower's batched commit-point query to the leader: one RPC for
    /// the batch leader, none for the readers that join its batch.
    fn query_leader(&self, stats: &mut RequestCtx) -> Result<CommitPoint, RaftError> {
        if stats.deadline_expired() {
            self.node.note_deadline_abort("read_index");
            return Err(RaftError::DeadlineExceeded);
        }
        self.read_batcher
            .query(|| {
                let leader = (0..self.group_size)
                    .filter(|i| *i != self.id)
                    .filter_map(|i| self.peer(i))
                    .find(|p| p.is_leader())?;
                if self.edge_cut(&leader) {
                    return None;
                }
                leader
                    .node
                    .rpc_named(stats, "read_index", || leader.leader_read_point().ok())
            })
            .ok_or(RaftError::Unavailable)
    }

    /// The leader's answer to a read (Raft thesis §6.4): waits until this
    /// leader has committed *and applied* an entry of its own term — its
    /// term-start barrier — and then until it has applied through the
    /// commit point it returns, so a leader-local read needs no further
    /// wait. Before the barrier a new leader's commit index and state
    /// machine can trail entries its predecessor committed, and a read
    /// served from them would be stale. Bounded under a fault plan like
    /// [`RaftReplica::propose`].
    ///
    /// # Errors
    ///
    /// [`RaftError::NotLeader`] when this replica is not (or stops being)
    /// the leader, [`RaftError::Unavailable`] when it dies or the bound
    /// passes.
    fn leader_read_point(&self) -> Result<CommitPoint, RaftError> {
        let deadline = self.fault_wait_deadline();
        let mut g = self.inner.lock();
        let mut point = None;
        loop {
            if !self.alive() {
                return Err(RaftError::Unavailable);
            }
            if g.role != Role::Leader {
                return Err(RaftError::NotLeader(g.leader_hint));
            }
            // Every entry from the barrier on is of the current term, so
            // the applied entry carries it exactly when the barrier applied.
            if point.is_none() && g.log.term_at(g.last_applied) == Some(g.term) {
                point = Some(CommitPoint {
                    index: g.commit_index,
                    term: g.term,
                });
            }
            if let Some(p) = point.filter(|p| g.last_applied >= p.index) {
                return Ok(p);
            }
            if deadline.is_some_and(|d| Instant::now() > d) {
                return Err(RaftError::Unavailable);
            }
            self.apply_cv.wait_for(&mut g, Duration::from_millis(10));
        }
    }

    // --- RPC handlers -----------------------------------------------------

    /// AppendEntries handler (also the heartbeat).
    pub(crate) fn append_entries(
        &self,
        term: u64,
        leader_id: usize,
        prev_index: u64,
        prev_term: u64,
        batch: Vec<LogEntry<SM::Command>>,
        leader_commit: u64,
    ) -> AppendResult {
        if !self.alive() {
            return AppendResult {
                term: 0,
                success: false,
                match_index: 0,
                reachable: false,
            };
        }
        self.node.execute(|| {
            let mut g = self.inner.lock();
            if term < g.term {
                return AppendResult {
                    term: g.term,
                    success: false,
                    match_index: 0,
                    reachable: true,
                };
            }
            if term > g.term {
                g.term = term;
                g.voted_for = None;
                self.metrics.term_changes.inc();
            }
            let new_role = if self.learner {
                Role::Learner
            } else {
                Role::Follower
            };
            self.set_role(&mut g, new_role);
            g.last_heartbeat = Instant::now();
            g.leader_hint = Some(leader_id);

            let appended = g.log.try_append(prev_index, prev_term, &batch);
            let Some(new_last) = appended else {
                // Consistency check failed; help the leader back off fast.
                let hint = g.log.last_index();
                return AppendResult {
                    term: g.term,
                    success: false,
                    match_index: hint,
                    reachable: true,
                };
            };
            let n_new = batch.len();
            drop(g);
            self.metrics.appends.add(n_new as u64);

            // Durability outside the lock: one fsync per batch when log
            // batching is on, one per entry otherwise (§5.2.3).
            if n_new > 0 {
                if self.opts.log_batching {
                    self.wal.append();
                } else {
                    for _ in 0..n_new {
                        self.wal.append();
                    }
                }
            }

            let mut g = self.inner.lock();
            let target = leader_commit.min(new_last);
            if target > g.commit_index {
                g.commit_index = target;
                self.apply_cv.notify_all();
            } else if n_new > 0 && g.read_waiters > 0 {
                // A reader in `read_index` may be waiting for exactly these
                // entries to adopt its leader's commit point.
                self.apply_cv.notify_all();
            }
            AppendResult {
                term: g.term,
                success: true,
                match_index: prev_index + n_new as u64,
                reachable: true,
            }
        })
    }

    /// InstallSnapshot handler (Raft §7): a follower that has fallen behind
    /// the leader's compacted log receives a full snapshot image instead of
    /// entries. The image is staged for the apply thread (the sole SM
    /// mutator) and the handler waits for that install attempt, so the
    /// leader's response tells it whether to retry.
    pub(crate) fn install_snapshot(
        &self,
        term: u64,
        leader_id: usize,
        snap_index: u64,
        snap_term: u64,
        data: Arc<Vec<u8>>,
    ) -> AppendResult {
        if !self.alive() {
            return AppendResult {
                term: 0,
                success: false,
                match_index: 0,
                reachable: false,
            };
        }
        self.node.execute(|| {
            let mut g = self.inner.lock();
            if term < g.term {
                return AppendResult {
                    term: g.term,
                    success: false,
                    match_index: 0,
                    reachable: true,
                };
            }
            if term > g.term {
                g.term = term;
                g.voted_for = None;
                self.metrics.term_changes.inc();
            }
            let new_role = if self.learner {
                Role::Learner
            } else {
                Role::Follower
            };
            self.set_role(&mut g, new_role);
            g.last_heartbeat = Instant::now();
            g.leader_hint = Some(leader_id);

            if g.last_applied >= snap_index {
                // Already caught up past this image; nothing to install.
                return AppendResult {
                    term: g.term,
                    success: true,
                    match_index: g.last_applied,
                    reachable: true,
                };
            }
            mantle_obs::flight::annotate_with(|| {
                format!(
                    "raft:install_snapshot phase=transfer node={} index={snap_index} bytes={}",
                    self.node.name(),
                    data.len()
                )
            });
            g.pending_install = Some((snap_index, snap_term, data));
            let seen = g.install_seq;
            self.apply_cv.notify_all();
            // Wait (bounded) for the apply thread's install attempt; a
            // bump of `install_seq` without the apply index reaching the
            // snapshot means the attempt aborted and the leader retries.
            let deadline = Instant::now() + Duration::from_secs(2);
            while g.last_applied < snap_index && g.install_seq == seen {
                if !self.alive() || Instant::now() > deadline {
                    break;
                }
                self.apply_cv.wait_for(&mut g, Duration::from_millis(5));
            }
            g.last_heartbeat = Instant::now();
            AppendResult {
                term: g.term,
                success: g.last_applied >= snap_index,
                match_index: g.last_applied,
                reachable: true,
            }
        })
    }

    /// RequestVote handler.
    pub(crate) fn request_vote(
        &self,
        term: u64,
        candidate: usize,
        last_log_index: u64,
        last_log_term: u64,
    ) -> VoteResult {
        if !self.alive() {
            return VoteResult {
                term: 0,
                granted: false,
                reachable: false,
            };
        }
        self.node.execute(|| {
            let mut g = self.inner.lock();
            if term > g.term {
                g.term = term;
                g.voted_for = None;
                if g.role == Role::Leader || g.role == Role::Candidate {
                    self.set_role(&mut g, Role::Follower);
                }
            }
            let up_to_date = last_log_term > g.log.last_term()
                || (last_log_term == g.log.last_term() && last_log_index >= g.log.last_index());
            let granted = term >= g.term
                && up_to_date
                && !self.learner
                && (g.voted_for.is_none() || g.voted_for == Some(candidate));
            if granted {
                g.voted_for = Some(candidate);
                g.last_heartbeat = Instant::now();
            }
            VoteResult {
                term: g.term,
                granted,
                reachable: true,
            }
        })
    }

    // --- leader machinery ---------------------------------------------------

    fn advance_commit(&self, g: &mut Inner<SM::Command>) {
        if g.role != Role::Leader {
            return;
        }
        // Median-of-voters match index = highest quorum-replicated index.
        let mut matches: Vec<u64> = g.match_index[..self.n_voters].to_vec();
        matches.sort_unstable_by(|a, b| b.cmp(a));
        let quorum_index = matches[self.n_voters / 2];
        // Raft safety: only commit entries from the current term directly.
        if quorum_index > g.commit_index && g.log.term_at(quorum_index) == Some(g.term) {
            g.commit_index = quorum_index;
            self.apply_cv.notify_all();
        }
    }

    fn become_leader(self: &Arc<Self>, g: &mut Inner<SM::Command>) {
        self.metrics.leaders_elected.inc();
        self.set_role(g, Role::Leader);
        g.leader_hint = Some(self.id);
        g.leader_epoch += 1;
        let last = g.log.last_index();
        for i in 0..self.group_size {
            g.next_index[i] = last + 1;
            g.match_index[i] = 0;
        }
        // Term-start barrier: replicating it commits every prior-term entry.
        let barrier_idx = g.log.append(LogEntry {
            term: g.term,
            cmd: SM::barrier(),
        });
        g.match_index[self.id] = barrier_idx;
        self.advance_commit(g);
        self.log_cv.notify_all();
        let epoch = g.leader_epoch;
        for peer_id in 0..self.group_size {
            if peer_id == self.id {
                continue;
            }
            let me = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("raft-repl-{}-{}", self.id, peer_id))
                .spawn(move || me.replicate_loop(peer_id, epoch))
                .expect("spawn replicator");
        }
    }

    /// Bootstraps this replica as the initial leader (group construction).
    pub(crate) fn bootstrap_leader(self: &Arc<Self>) {
        let mut g = self.inner.lock();
        g.term = 1;
        self.become_leader(&mut g);
    }

    fn replicate_loop(self: Arc<Self>, peer_id: usize, epoch: u64) {
        loop {
            if self.shutdown.load(Ordering::Acquire) || !self.alive.load(Ordering::Acquire) {
                return;
            }
            // Gather the next batch (or wait up to a heartbeat interval).
            // A peer whose next entry was compacted away gets the snapshot
            // instead (Raft §7).
            enum Send<C> {
                Entries {
                    term: u64,
                    prev_index: u64,
                    prev_term: u64,
                    batch: Vec<LogEntry<C>>,
                    commit: u64,
                },
                Snapshot {
                    term: u64,
                    index: u64,
                    snap_term: u64,
                    data: Arc<Vec<u8>>,
                },
            }
            let send = {
                let mut g = self.inner.lock();
                if g.role != Role::Leader || g.leader_epoch != epoch {
                    return;
                }
                if g.log.last_index() < g.next_index[peer_id] {
                    self.log_cv.wait_for(&mut g, self.opts.heartbeat_interval);
                    if g.role != Role::Leader || g.leader_epoch != epoch {
                        return;
                    }
                }
                if g.next_index[peer_id] < g.log.first_index() {
                    // The snapshot store is always at or past the log's
                    // compaction point, so one install re-anchors the peer
                    // inside the retained suffix.
                    let s = self.snap.lock();
                    Send::Snapshot {
                        term: g.term,
                        index: s.index,
                        snap_term: s.term,
                        data: Arc::clone(&s.data),
                    }
                } else {
                    let prev_index = g.next_index[peer_id] - 1;
                    let prev_term = g.log.term_at(prev_index).unwrap_or(0);
                    let batch = g.log.slice(prev_index, self.opts.max_batch);
                    Send::Entries {
                        term: g.term,
                        prev_index,
                        prev_term,
                        batch,
                        commit: g.commit_index,
                    }
                }
            };

            let Some(peer) = self.peer(peer_id) else {
                return;
            };
            let (term, prev_index, prev_term, batch, commit) = match send {
                Send::Snapshot {
                    term,
                    index,
                    snap_term,
                    data,
                } => {
                    if self.edge_cut(&peer) {
                        std::thread::sleep(self.opts.heartbeat_interval);
                        continue;
                    }
                    let _span = mantle_obs::trace::span(
                        "install_snapshot",
                        self.node.name(),
                        mantle_obs::trace::SpanKind::Local,
                    );
                    mantle_obs::flight::annotate_with(|| {
                        format!(
                            "raft:install_snapshot phase=send to={} index={index} bytes={}",
                            peer.node.name(),
                            data.len()
                        )
                    });
                    self.installs_sent.fetch_add(1, Ordering::Relaxed);
                    mantle_rpc::net_round_trip(&self.config);
                    let resp = peer.install_snapshot(term, self.id, index, snap_term, data);
                    if !resp.reachable {
                        std::thread::sleep(self.opts.heartbeat_interval);
                        continue;
                    }
                    let mut g = self.inner.lock();
                    if resp.term > g.term {
                        g.term = resp.term;
                        g.voted_for = None;
                        self.set_role(&mut g, Role::Follower);
                        return;
                    }
                    if g.role != Role::Leader || g.leader_epoch != epoch {
                        return;
                    }
                    if resp.success {
                        g.next_index[peer_id] = resp.match_index + 1;
                        g.match_index[peer_id] = g.match_index[peer_id].max(resp.match_index);
                        self.advance_commit(&mut g);
                    } else {
                        // Install aborted on the peer; retry at
                        // heartbeat pace.
                        drop(g);
                        std::thread::sleep(self.opts.heartbeat_interval);
                    }
                    continue;
                }
                Send::Entries {
                    term,
                    prev_index,
                    prev_term,
                    batch,
                    commit,
                } => (term, prev_index, prev_term, batch, commit),
            };
            if self.edge_cut(&peer) {
                // Partitioned follower: behaves exactly like an unreachable
                // peer — the leader keeps retrying at heartbeat pace.
                std::thread::sleep(self.opts.heartbeat_interval);
                continue;
            }
            let n = batch.len() as u64;
            if n > 0 {
                self.metrics.batch.record(n);
            }
            mantle_rpc::net_round_trip(&self.config);
            let resp = peer.append_entries(term, self.id, prev_index, prev_term, batch, commit);

            if !resp.reachable {
                std::thread::sleep(self.opts.heartbeat_interval);
                continue;
            }
            let mut g = self.inner.lock();
            if resp.term > g.term {
                g.term = resp.term;
                g.voted_for = None;
                self.set_role(&mut g, Role::Follower);
                return;
            }
            if g.role != Role::Leader || g.leader_epoch != epoch {
                return;
            }
            if resp.success {
                g.next_index[peer_id] = prev_index + n + 1;
                g.match_index[peer_id] = g.match_index[peer_id].max(prev_index + n);
                self.advance_commit(&mut g);
            } else {
                // Back off using the follower's hint.
                g.next_index[peer_id] = (resp.match_index + 1).min(g.next_index[peer_id]).max(1);
                if g.next_index[peer_id] > 1 && resp.match_index + 1 == g.next_index[peer_id] {
                    // Hint already applied.
                } else if g.next_index[peer_id] > 1 {
                    g.next_index[peer_id] -= 1;
                }
            }
        }
    }

    // --- elections ---------------------------------------------------------

    pub(crate) fn tick_loop(self: Arc<Self>) {
        let mut timeout = self.random_timeout();
        loop {
            std::thread::sleep(Duration::from_millis(5));
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if !self.alive.load(Ordering::Acquire) || self.learner {
                continue;
            }
            let should_campaign = {
                let g = self.inner.lock();
                g.role != Role::Leader && g.last_heartbeat.elapsed() > timeout
            };
            if should_campaign {
                self.campaign();
                timeout = self.random_timeout();
            }
        }
    }

    fn random_timeout(&self) -> Duration {
        // Deterministic per-call jitter from a splitmix64 step; keeps the
        // raft crate free of a rand dependency.
        use std::sync::atomic::AtomicU64;
        static SEED: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);
        let mut z = SEED.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let min = self.opts.election_timeout_min.as_millis() as u64;
        let max = self.opts.election_timeout_max.as_millis() as u64;
        Duration::from_millis(min + z % (max - min).max(1))
    }

    fn campaign(self: &Arc<Self>) {
        self.metrics.elections.inc();
        self.metrics.term_changes.inc();
        let (term, last_index, last_term) = {
            let mut g = self.inner.lock();
            g.term += 1;
            self.set_role(&mut g, Role::Candidate);
            g.voted_for = Some(self.id);
            g.last_heartbeat = Instant::now();
            (g.term, g.log.last_index(), g.log.last_term())
        };
        let mut votes = 1; // Own vote.
        for peer_id in 0..self.n_voters {
            if peer_id == self.id {
                continue;
            }
            let Some(peer) = self.peer(peer_id) else {
                continue;
            };
            if self.edge_cut(&peer) {
                // A partitioned voter cannot be reached; its vote is lost.
                continue;
            }
            mantle_rpc::net_round_trip(&self.config);
            let resp = peer.request_vote(term, self.id, last_index, last_term);
            if !resp.reachable {
                continue;
            }
            if resp.term > term {
                let mut g = self.inner.lock();
                if resp.term > g.term {
                    g.term = resp.term;
                    g.voted_for = None;
                    self.set_role(&mut g, Role::Follower);
                }
                return;
            }
            if resp.granted {
                votes += 1;
            }
        }
        if votes > self.n_voters / 2 {
            let mut g = self.inner.lock();
            if g.term == term && g.role == Role::Candidate {
                self.become_leader(&mut g);
            }
        }
    }

    // --- apply loop ---------------------------------------------------------

    pub(crate) fn apply_loop(self: Arc<Self>) {
        // Entries are applied in batches and waiters are woken once per
        // batch: notifying every proposer after every entry turns the
        // applier into a thundering-herd bottleneck under write load.
        const APPLY_BATCH: u64 = 64;
        enum Work<C> {
            /// `(install_seq at collection, entries)` — stale-seq batches
            /// are discarded after a concurrent snapshot restore.
            Batch(u64, Vec<(u64, C)>),
            Install(u64, u64, Arc<Vec<u8>>),
        }
        loop {
            let work = {
                let mut g = self.inner.lock();
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if self.alive.load(Ordering::Acquire) {
                        if let Some((si, st, data)) = g.pending_install.take() {
                            if si > g.last_applied {
                                break Work::Install(si, st, data);
                            }
                            // Stale image (normal replication caught us up
                            // first); count the attempt so the handler
                            // stops waiting.
                            g.install_seq += 1;
                            self.apply_cv.notify_all();
                        }
                        if g.last_applied < g.commit_index {
                            let from = g.last_applied + 1;
                            let to = g.commit_index.min(g.last_applied + APPLY_BATCH);
                            let cmds: Vec<(u64, SM::Command)> = (from..=to)
                                .map(|i| {
                                    (i, g.log.get(i).expect("committed entry exists").cmd.clone())
                                })
                                .collect();
                            break Work::Batch(g.install_seq, cmds);
                        }
                    }
                    self.apply_cv.wait_for(&mut g, Duration::from_millis(20));
                }
            };
            match work {
                Work::Batch(seq, batch) => {
                    let last = batch.last().expect("non-empty batch").0;
                    for (index, cmd) in &batch {
                        self.sm.apply(*index, cmd);
                    }
                    let mut g = self.inner.lock();
                    if g.install_seq != seq {
                        // A snapshot restore (recover or install) rewound the
                        // apply index while this batch was in flight; its
                        // entries will be re-applied from the restored image.
                        continue;
                    }
                    debug_assert_eq!(g.last_applied + 1, batch[0].0);
                    g.last_applied = last;
                    let log_bytes = g.log.bytes();
                    self.metrics.log_bytes.set(log_bytes as i64);
                    // Proposers wake on `last_applied` now; callers of
                    // `wait_for_applied` only once a due snapshot is taken.
                    let snapshot_due = self.snapshot_due(last, log_bytes);
                    if !snapshot_due {
                        g.settled_index = last;
                    }
                    self.apply_cv.notify_all();
                    if snapshot_due {
                        drop(g);
                        self.take_snapshot(last);
                        g = self.inner.lock();
                        if g.install_seq == seq {
                            g.settled_index = last;
                            self.apply_cv.notify_all();
                        }
                    }
                }
                Work::Install(si, st, data) => self.finish_install(si, st, data),
            }
        }
    }

    // --- snapshotting --------------------------------------------------------

    /// Whether a snapshot is due after the apply index advanced to
    /// `applied`: `snapshot_every` applied entries accumulated since the
    /// last snapshot *or* the retained log crossed the bytes watermark.
    fn snapshot_due(&self, applied: u64, log_bytes: u64) -> bool {
        if self.opts.snapshot_every == 0 {
            return false;
        }
        let last = self.snap.lock().index;
        let due_count = applied >= last + self.opts.snapshot_every;
        let due_bytes = self.opts.log_watermark_bytes > 0
            && log_bytes > self.opts.log_watermark_bytes
            && applied > last;
        due_count || due_bytes
    }

    /// Captures a snapshot at `applied` (apply thread only, so the state
    /// machine is quiescent), acknowledges it with a WAL checkpoint record,
    /// then compacts the log prefix. Both fault points follow the same
    /// discard-on-abort discipline as shard migration: an injected crash
    /// mid-write leaves a torn image behind and the previous snapshot
    /// authoritative; a torn checkpoint record is no acknowledgment, so the
    /// image is dropped and the log keeps its prefix.
    fn take_snapshot(&self, applied: u64) {
        let _span = mantle_obs::trace::span(
            "snapshot_write",
            self.node.name(),
            mantle_obs::trace::SpanKind::Local,
        );
        let framed = frame(self.sm.snapshot());
        if self
            .node
            .faults()
            .is_some_and(|p| p.snapshot_write_fails(self.node.name()))
        {
            // Crash mid-write: only a prefix of the frame reached disk.
            let torn = framed[..framed.len() / 2].to_vec();
            *self.torn_snap.lock() = Some(Arc::new(torn));
            self.metrics.snapshot_aborts.inc();
            mantle_obs::flight::annotate_with(|| {
                format!(
                    "raft:snapshot phase=abort_write node={} index={applied}",
                    self.node.name()
                )
            });
            return;
        }
        if self.wal.append_checkpoint(applied).is_err() {
            self.metrics.snapshot_aborts.inc();
            mantle_obs::flight::annotate_with(|| {
                format!(
                    "raft:snapshot phase=abort_checkpoint node={} index={applied}",
                    self.node.name()
                )
            });
            return;
        }
        let mut g = self.inner.lock();
        let Some(term) = g.log.term_at(applied) else {
            return; // Already compacted past (a newer install superseded us).
        };
        {
            let mut s = self.snap.lock();
            if applied <= s.index {
                return;
            }
            *s = Snapshot {
                index: applied,
                term,
                data: Arc::new(framed),
            };
        }
        *self.torn_snap.lock() = None;
        g.log
            .compact(applied.saturating_sub(self.opts.snapshot_keep_entries));
        let log_bytes = g.log.bytes();
        drop(g);
        self.metrics.snapshots.inc();
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        self.metrics.log_bytes.set(log_bytes as i64);
        mantle_obs::flight::annotate_with(|| {
            format!(
                "raft:snapshot node={} index={applied} log_bytes={log_bytes}",
                self.node.name()
            )
        });
    }

    /// Applies a staged InstallSnapshot image (apply thread only). An
    /// injected `snap_install` crash or a torn image aborts the install and
    /// leaves the pre-install state authoritative — the leader retries.
    fn finish_install(&self, si: u64, st: u64, data: Arc<Vec<u8>>) {
        let faulted = self
            .node
            .faults()
            .is_some_and(|p| p.snapshot_install_fails(self.node.name()));
        let image = if faulted { None } else { unframe(&data) };
        let Some(image) = image else {
            self.metrics.snapshot_aborts.inc();
            mantle_obs::flight::annotate_with(|| {
                format!(
                    "raft:install_snapshot phase=abort node={} index={si}",
                    self.node.name()
                )
            });
            let mut g = self.inner.lock();
            g.install_seq += 1;
            self.apply_cv.notify_all();
            return;
        };
        let _span = mantle_obs::trace::span(
            "snapshot_restore",
            self.node.name(),
            mantle_obs::trace::SpanKind::Local,
        );
        mantle_obs::flight::annotate_with(|| {
            format!(
                "raft:install_snapshot phase=restore node={} index={si} bytes={}",
                self.node.name(),
                data.len()
            )
        });
        self.sm.restore(image);
        let mut g = self.inner.lock();
        g.log.install_snapshot(si, st);
        if g.last_applied < si {
            g.last_applied = si;
        }
        g.settled_index = g.last_applied;
        if g.commit_index < si {
            g.commit_index = si;
        }
        {
            let mut s = self.snap.lock();
            if si > s.index {
                *s = Snapshot {
                    index: si,
                    term: st,
                    data,
                };
            }
        }
        *self.torn_snap.lock() = None;
        g.install_seq += 1;
        self.installs_applied.fetch_add(1, Ordering::Relaxed);
        self.metrics.installs.inc();
        self.metrics.log_bytes.set(g.log.bytes() as i64);
        self.apply_cv.notify_all();
    }
}

/// The follower rule of ReadIndex (DESIGN.md §4.15): the commit index a
/// replica holding `log` and `commit_index` may adopt from its leader's
/// commit `point`. When the log holds the entry `(point.index, point.term)`,
/// Log Matching makes the prefix through it identical to the leader's, and
/// that prefix is committed; otherwise `commit_index` stands.
fn learn_commit<C: Clone>(log: &RaftLog<C>, commit_index: u64, point: CommitPoint) -> u64 {
    if point.index > commit_index && log.term_at(point.index) == Some(point.term) {
        point.index
    } else {
        commit_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(terms: &[u64]) -> RaftLog<u32> {
        let mut log = RaftLog::default();
        for &term in terms {
            log.append(LogEntry { term, cmd: 0 });
        }
        log
    }

    #[test]
    fn commit_point_adopted_when_the_entry_matches() {
        let log = log_of(&[1, 1, 2, 2]);
        let point = CommitPoint { index: 3, term: 2 };
        assert_eq!(learn_commit(&log, 1, point), 3);
        // Never moves the commit index backwards.
        assert_eq!(learn_commit(&log, 4, point), 4);
    }

    #[test]
    fn commit_point_with_another_term_is_not_adopted() {
        // The follower's entry 3 is from term 2; the leader committed a
        // term-3 entry there, so this suffix will be overwritten.
        let log = log_of(&[1, 1, 2, 2]);
        assert_eq!(learn_commit(&log, 1, CommitPoint { index: 3, term: 3 }), 1);
    }

    #[test]
    fn commit_point_past_the_log_waits_for_the_entry() {
        let mut log = log_of(&[1, 1]);
        let point = CommitPoint { index: 3, term: 1 };
        assert_eq!(learn_commit(&log, 2, point), 2);
        log.append(LogEntry { term: 1, cmd: 0 });
        assert_eq!(learn_commit(&log, 2, point), 3);
    }
}
