//! The database core: options, counters, shard construction, and direct
//! (population/test) access. TafDB is layered (DESIGN.md §4.12):
//!
//! - `shard` — the per-shard runtime: a
//!   [`mantle_engine::BTreeEngine`] plus row locks, latches, the
//!   group-commit WAL, checkpoint/restore, and contention tracking;
//! - `router` — epoch-versioned [`ShardMap`] routing, the
//!   `StaleRoute` bounce, and every read path;
//! - `exec` — transaction grouping, the single-shard fast path,
//!   and two-phase commit;
//! - `migrate` — the placement plane: splits, merges, online
//!   range migration over checkpoint images, and the controller tick.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use mantle_engine::EngineKind;
use mantle_rpc::faults::{FaultPlan, FaultSlot};
use mantle_rpc::SimNode;
use mantle_store::{GroupCommitWal, LockManager, RowKey};
use mantle_sync::LatchTable;
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{
    DirAttrMeta,
    InodeId,
    PlacementConfig,
    SimConfig,
    TxnId,
    ROOT_ID,
    SCALED_DB_SHARDS, //
};

use crate::metrics::DbMetrics;
use crate::schema::{attr_key, Row};
use crate::shard::Shard;
use crate::shardmap::{place_of, ShardMap};

/// TafDB tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TafDbOptions {
    /// Number of shards (one per simulated DB server). The paper deploys 18
    /// TafDB servers; the scaled default is [`SCALED_DB_SHARDS`].
    pub n_shards: usize,
    /// The storage engine backing every shard (DESIGN.md §4.12).
    pub engine: EngineKind,
    /// Master switch for delta records (§5.2.1); off reproduces the
    /// pre-`+delta record` ablation baseline of Figure 16.
    pub delta_records: bool,
    /// Aborts within [`Self::hot_window`] that flip a directory into delta
    /// mode ("activated only under sustained contention").
    pub delta_abort_threshold: u32,
    /// Window over which aborts are counted.
    pub hot_window: Duration,
    /// How long a directory stays in delta mode after its last use.
    pub hot_ttl: Duration,
    /// Period of the background delta compactor.
    pub compact_interval: Duration,
    /// Share WAL fsyncs across concurrent commits.
    pub group_commit: bool,
    /// Transparent retries for retryable (conflict) errors.
    pub max_txn_retries: u32,
    /// Placement controller: dynamic shard splitting and load balancing.
    /// Off by default — routing then stays equivalent to the fixed hash.
    pub placement: PlacementConfig,
}

impl Default for TafDbOptions {
    fn default() -> Self {
        TafDbOptions {
            n_shards: SCALED_DB_SHARDS,
            engine: EngineKind::Btree,
            delta_records: true,
            delta_abort_threshold: 3,
            hot_window: Duration::from_millis(100),
            hot_ttl: Duration::from_secs(2),
            compact_interval: Duration::from_millis(20),
            group_commit: true,
            max_txn_retries: 10_000,
            placement: PlacementConfig::default(),
        }
    }
}

/// Snapshot of TafDB's internal counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbCounters {
    /// Committed transactions.
    pub txns_committed: u64,
    /// Aborted prepare attempts (lock conflicts, validation failures).
    pub txns_aborted: u64,
    /// Delta records appended.
    pub delta_appends: u64,
    /// In-place attribute merges.
    pub inplace_updates: u64,
    /// Compactor folds (directories compacted).
    pub compactions: u64,
    /// Blocking latched attribute updates (baseline path).
    pub latched_updates: u64,
    /// Shard-map range splits (including hot-region isolation cuts).
    pub shard_splits: u64,
    /// Shard-map range merges.
    pub shard_merges: u64,
    /// Completed range migrations.
    pub range_migrations: u64,
    /// Rows copied by completed migrations.
    pub rows_migrated: u64,
    /// Operations rejected with a stale shard-map epoch and retried.
    pub stale_routes: u64,
}

/// The sharded metadata database.
pub struct TafDb {
    pub(crate) shards: Vec<Shard>,
    pub(crate) map: RwLock<Arc<ShardMap>>,
    /// Serializes every shard-map mutation (split/merge/migrate).
    pub(crate) migration_lock: Mutex<()>,
    /// Previous controller tick's cumulative per-shard busy nanos.
    pub(crate) last_busy: Mutex<Vec<u64>>,
    oracle: AtomicU64,
    pub(crate) config: SimConfig,
    pub(crate) opts: TafDbOptions,
    shutdown: Arc<AtomicBool>,
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
    controller: Mutex<Option<std::thread::JoinHandle<()>>>,
    pub(crate) txns_committed: AtomicU64,
    pub(crate) txns_aborted: AtomicU64,
    pub(crate) delta_appends: AtomicU64,
    pub(crate) inplace_updates: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) latched_updates: AtomicU64,
    pub(crate) shard_splits: AtomicU64,
    pub(crate) shard_merges: AtomicU64,
    pub(crate) range_migrations: AtomicU64,
    pub(crate) rows_migrated: AtomicU64,
    pub(crate) stale_routes: AtomicU64,
    pub(crate) metrics: DbMetrics,
    pub(crate) faults: FaultSlot,
    /// Monotonic per-directory namespace versions (DESIGN.md §4.13): bumped
    /// whenever a committed write touches the directory's access row —
    /// rename (delete src + put dst), rmdir/delete, and chmod all land here
    /// via [`TafDb::apply_write`] or the direct write paths. The versioned
    /// path-lease protocol uses this as the durable authority that cached
    /// `(pid, version)` pairs are validated against.
    pub(crate) ns_versions: Mutex<HashMap<InodeId, u64>>,
}

impl TafDb {
    /// Builds a database with `opts.n_shards` shards (each backed by a
    /// fresh `opts.engine` storage engine) and bootstraps the namespace
    /// root's attribute row. A background compactor thread folds delta
    /// records until the database is dropped; with
    /// `opts.placement.dynamic_shards` a placement-controller thread
    /// rebalances the shard map as well.
    pub fn new(config: SimConfig, opts: TafDbOptions) -> Arc<Self> {
        assert!(opts.n_shards >= 1);
        let shards = (0..opts.n_shards)
            .map(|i| Shard {
                engine: opts.engine.build::<Row>(),
                locks: LockManager::new(1024),
                latches: LatchTable::new(1024),
                wal: GroupCommitWal::new_scoped(config, opts.group_commit, "tafdb"),
                node: Arc::new(SimNode::new(
                    format!("tafdb{i}"),
                    config.db_node_permits,
                    config,
                )),
                delta_dirs: Mutex::new(HashSet::new()),
                hot: Mutex::new(HashMap::new()),
                in_flight: AtomicU64::new(0),
                mig_active: AtomicBool::new(false),
                mig_range: Mutex::new(None),
                snap: Mutex::new(None),
            })
            .collect();
        let db = Arc::new(TafDb {
            shards,
            map: RwLock::new(Arc::new(ShardMap::uniform(opts.n_shards))),
            migration_lock: Mutex::new(()),
            last_busy: Mutex::new(vec![0; opts.n_shards]),
            oracle: AtomicU64::new(1),
            config,
            opts,
            shutdown: Arc::new(AtomicBool::new(false)),
            compactor: Mutex::new(None),
            controller: Mutex::new(None),
            txns_committed: AtomicU64::new(0),
            txns_aborted: AtomicU64::new(0),
            delta_appends: AtomicU64::new(0),
            inplace_updates: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            latched_updates: AtomicU64::new(0),
            shard_splits: AtomicU64::new(0),
            shard_merges: AtomicU64::new(0),
            range_migrations: AtomicU64::new(0),
            rows_migrated: AtomicU64::new(0),
            stale_routes: AtomicU64::new(0),
            metrics: DbMetrics::new(opts.n_shards),
            faults: FaultSlot::new(),
            ns_versions: Mutex::new(HashMap::new()),
        });
        db.raw_put(attr_key(ROOT_ID), Row::DirAttr(DirAttrMeta::new(0, 0)));

        let weak: Weak<TafDb> = Arc::downgrade(&db);
        let shutdown = Arc::clone(&db.shutdown);
        let interval = opts.compact_interval;
        let handle = std::thread::Builder::new()
            .name("tafdb-compactor".into())
            .spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    let Some(db) = weak.upgrade() else { return };
                    db.compact_once();
                }
            })
            .expect("spawn compactor");
        *db.compactor.lock() = Some(handle);

        if opts.placement.dynamic_shards {
            let weak: Weak<TafDb> = Arc::downgrade(&db);
            let shutdown = Arc::clone(&db.shutdown);
            let tick = Duration::from_millis(opts.placement.rebalance_interval_ms.max(1));
            let handle = std::thread::Builder::new()
                .name("tafdb-controller".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(tick);
                        let Some(db) = weak.upgrade() else { return };
                        db.rebalance_once();
                    }
                })
                .expect("spawn controller");
            *db.controller.lock() = Some(handle);
        }
        db
    }

    // --- accessors ----------------------------------------------------------

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The simulated server of shard `i` (for load inspection).
    pub fn shard_node(&self, i: usize) -> &Arc<SimNode> {
        &self.shards[i].node
    }

    /// The database's timing configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The database's options.
    pub fn options(&self) -> &TafDbOptions {
        &self.opts
    }

    /// Live rows on shard `i`.
    pub fn shard_rows(&self, i: usize) -> usize {
        self.shards[i].engine.len()
    }

    /// Real nanoseconds writers and scans spent blocked on engine-internal
    /// latches, summed over shards. Deliberately *outside* the virtual
    /// clock: it measures actual cross-thread contention, is zero in
    /// single-threaded runs, and never perturbs deterministic latency pins.
    pub fn engine_lock_wait_nanos(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.lock_wait_nanos()).sum()
    }

    /// Number of contended engine-latch acquisitions, summed over shards.
    pub fn engine_lock_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.lock_waits()).sum()
    }

    /// Installs (or, with `None`, clears) a fault plan on the database:
    /// every shard node (transport faults), every shard WAL (fsync faults)
    /// and the 2PC coordinator (prepare/commit faults) consult it, as does
    /// the migration path (`split_prepare`/`split_commit`).
    pub fn install_faults(&self, plan: Option<Arc<FaultPlan>>) {
        for shard in &self.shards {
            shard.node.set_faults(plan.clone());
            shard.wal.set_faults(plan.clone());
        }
        self.faults.install(plan);
    }

    /// Counter snapshot.
    pub fn counters(&self) -> DbCounters {
        DbCounters {
            txns_committed: self.txns_committed.load(Ordering::Relaxed),
            txns_aborted: self.txns_aborted.load(Ordering::Relaxed),
            delta_appends: self.delta_appends.load(Ordering::Relaxed),
            inplace_updates: self.inplace_updates.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            latched_updates: self.latched_updates.load(Ordering::Relaxed),
            shard_splits: self.shard_splits.load(Ordering::Relaxed),
            shard_merges: self.shard_merges.load(Ordering::Relaxed),
            range_migrations: self.range_migrations.load(Ordering::Relaxed),
            rows_migrated: self.rows_migrated.load(Ordering::Relaxed),
            stale_routes: self.stale_routes.load(Ordering::Relaxed),
        }
    }

    /// Allocates a transaction timestamp.
    pub fn begin(&self) -> TxnId {
        TxnId(self.oracle.fetch_add(1, Ordering::Relaxed))
    }

    // --- direct (population / test) access --------------------------------

    /// Writes a row directly, bypassing RPC, locking and the WAL. Used only
    /// for bulk namespace population before an experiment (and by the
    /// non-transactional `setattr` path, which is why it still bumps the
    /// directory's namespace version).
    pub fn raw_put(&self, key: RowKey, row: Row) {
        if let Row::DirAccess { id, .. } = &row {
            self.bump_ns_version(*id);
        }
        self.shards[self.owner_of(&key)].engine.put(key, row);
    }

    /// The current namespace version of directory `dir` (0 until its access
    /// row is first written). Monotonic: every committed rename/delete/chmod
    /// touching the directory's access row bumps it exactly once per write.
    pub fn ns_version(&self, dir: InodeId) -> u64 {
        self.ns_versions.lock().get(&dir).copied().unwrap_or(0)
    }

    /// Bumps and returns `dir`'s namespace version.
    pub(crate) fn bump_ns_version(&self, dir: InodeId) -> u64 {
        let mut map = self.ns_versions.lock();
        let v = map.entry(dir).or_insert(0);
        *v += 1;
        *v
    }

    /// Reads a row directly (tests/diagnostics).
    pub fn raw_get(&self, key: &RowKey) -> Option<Row> {
        self.shards[self.owner_of(key)].engine.get(key)
    }

    /// Total rows across shards.
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(|s| s.engine.len()).sum()
    }

    /// Forces `dir` into delta mode as if the abort-rate heuristic had
    /// fired. Test hook: under the virtual clock injected fsyncs are
    /// instant, so the lock-hold windows that make real conflicts (and
    /// thus heuristic activation) accumulate do not exist. The state lands
    /// on the current base-attribute owner; callers racing migrations
    /// should re-force periodically.
    pub fn force_hot(&self, dir: InodeId) {
        let shard = &self.shards[self.owner_of(&attr_key(dir))];
        let mut hot = shard.hot.lock();
        let state = hot.entry(dir).or_default();
        state.hot_until = Some(Instant::now() + self.opts.hot_ttl);
    }

    /// Number of outstanding delta records for `dir`, summed over every
    /// shard (split regions spread them).
    pub fn pending_deltas(&self, dir: InodeId) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                mantle_engine::scan_versions(&shard.engine, dir, ATTR_ROW_NAME)
                    .iter()
                    .filter(|(k, _)| k.ts != TxnId::BASE)
                    .count()
            })
            .sum()
    }

    /// Live rows on shard `i` whose placement key falls in
    /// `start..=end` (chaos-test visibility into staged migration state).
    pub fn shard_rows_in_place_range(&self, i: usize, start: u64, end: u64) -> usize {
        self.shards[i]
            .engine
            .export_rows()
            .iter()
            .filter(|(k, _)| {
                let p = place_of(k);
                start <= p && p <= end
            })
            .count()
    }
}

impl Drop for TafDb {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for slot in [&self.compactor, &self.controller] {
            if let Some(h) = slot.lock().take() {
                // Background threads briefly hold a strong reference; if the
                // final drop happens on one of them, joining would
                // self-deadlock.
                if h.thread().id() != std::thread::current().id() {
                    let _ = h.join();
                }
            }
        }
    }
}
