//! The Mantle proxy logic: every metadata operation, coordinated across
//! IndexNode and TafDB.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mantle_index::cache::CachedPrefix;
use mantle_index::{IndexNode, IndexOptions, TopDirPathCache};
use mantle_rpc::{classify_failover, classify_rename, RetryPolicy};
use mantle_tafdb::{attr_key, entry_key, Row, TafDb, TafDbOptions, TxnOp};
use mantle_types::{
    id::IdAllocator,
    AttrDelta,
    ClientUuid,
    DirAttrMeta,
    DirEntry,
    DirStat,
    InodeId,
    MetaError,
    MetaPath,
    MetadataService,
    ObjectMeta,
    Permission,
    Phase,
    RequestCtx,
    ResolvedPath,
    Result,
    SimConfig, //
};

use crate::data::DataService;
use crate::pathcache::{LeaseProbe, PathCacheStats, PathLeaseCache, PathLeaseConfig};

/// Per-operation service counters (`service_ops_total{system,op}`), created
/// once per cluster so the per-op cost is a single atomic increment.
pub struct SvcMetrics {
    lookup: mantle_obs::Counter,
    mkdir: mantle_obs::Counter,
    rmdir: mantle_obs::Counter,
    create: mantle_obs::Counter,
    delete: mantle_obs::Counter,
    objstat: mantle_obs::Counter,
    dirstat: mantle_obs::Counter,
    readdir: mantle_obs::Counter,
    list: mantle_obs::Counter,
    rename: mantle_obs::Counter,
    setattr: mantle_obs::Counter,
}

impl SvcMetrics {
    /// Creates the counter set for `system` (the service's `name()`).
    pub fn new(system: &str) -> Self {
        let op =
            |o: &str| mantle_obs::counter("service_ops_total", &[("system", system), ("op", o)]);
        SvcMetrics {
            lookup: op("lookup"),
            mkdir: op("mkdir"),
            rmdir: op("rmdir"),
            create: op("create"),
            delete: op("delete"),
            objstat: op("objstat"),
            dirstat: op("dirstat"),
            readdir: op("readdir"),
            list: op("list"),
            rename: op("rename_dir"),
            setattr: op("setattr"),
        }
    }

    /// The counter for `op` (a [`MetadataService`] method name).
    pub fn op(&self, op: &str) -> &mantle_obs::Counter {
        match op {
            "lookup" => &self.lookup,
            "mkdir" => &self.mkdir,
            "rmdir" => &self.rmdir,
            "create" => &self.create,
            "delete" => &self.delete,
            "objstat" => &self.objstat,
            "dirstat" => &self.dirstat,
            "readdir" => &self.readdir,
            "list" => &self.list,
            "rename_dir" => &self.rename,
            "setattr" => &self.setattr,
            other => panic!("unknown service op {other:?}"),
        }
    }
}

/// Full configuration of a Mantle deployment.
#[derive(Clone, Copy, Debug)]
pub struct MantleConfig {
    /// Substrate timing/capacity.
    pub sim: SimConfig,
    /// IndexNode options (k, caching, follower reads, replication).
    pub index: IndexOptions,
    /// TafDB options (shards, delta records, group commit).
    pub db: TafDbOptions,
    /// Data-service node count.
    pub data_nodes: usize,
    /// Proxy-level retries for rename lock conflicts.
    pub rename_retries: u32,
    /// Proxy-level retries for transient unavailability (leader failover).
    pub unavailable_retries: u32,
    /// Equip the proxy with an AM-Cache-style full-path metadata cache
    /// (the Figure 20 experiment; off in Mantle's normal configuration).
    pub amcache: bool,
    /// Client-side path-lease cache (DESIGN.md §4.13). Defaults from
    /// `MANTLE_PATH_CACHE` — off unless opted in, which keeps
    /// the cache-off latency pins byte-identical.
    pub pcache: PathLeaseConfig,
}

impl Default for MantleConfig {
    fn default() -> Self {
        MantleConfig {
            sim: SimConfig::default(),
            index: IndexOptions::default(),
            db: TafDbOptions::default(),
            data_nodes: 4,
            rename_retries: 10_000,
            unavailable_retries: 600,
            amcache: false,
            pcache: PathLeaseConfig::from_env(),
        }
    }
}

impl MantleConfig {
    /// A configuration using `sim` everywhere, with `db_shards` TafDB
    /// shards.
    pub fn with_sim(sim: SimConfig, db_shards: usize) -> Self {
        let mut config = MantleConfig {
            sim,
            ..MantleConfig::default()
        };
        config.db.n_shards = db_shards;
        config
    }
}

/// A complete Mantle metadata-service deployment for one namespace.
pub struct MantleCluster {
    config: MantleConfig,
    db: Arc<TafDb>,
    index: Arc<IndexNode>,
    data: Arc<DataService>,
    ids: Arc<IdAllocator>,
    clock: AtomicU64,
    /// This namespace's root directory id (distinct per namespace when a
    /// region shares one TafDB across namespaces, §7.1).
    root: InodeId,
    /// Proxy-side AM-Cache (Figure 20): full-path resolutions, k = 0.
    amcache: TopDirPathCache,
    /// Client-side path-lease cache (DESIGN.md §4.13).
    pcache: PathLeaseCache,
    /// Fault plan driving the `LeaseExpire`/`StaleRead` probe faults; the
    /// proxy has no `SimNode` of its own, so the cache gets its own slot.
    pcache_faults: mantle_rpc::FaultSlot,
    ops: SvcMetrics,
}

impl MantleCluster {
    /// Builds a cluster from an explicit configuration.
    pub fn with_config(config: MantleConfig) -> Arc<Self> {
        let db = TafDb::new(config.sim, config.db);
        let data = Arc::new(DataService::new(config.sim, config.data_nodes));
        Self::with_shared(
            config,
            db,
            data,
            Arc::new(IdAllocator::new()),
            mantle_types::ROOT_ID,
        )
    }

    /// Builds a namespace over a *shared* TafDB/data service (§7.1: within
    /// a cluster "all namespaces share a common TafDB deployment"). The
    /// caller provides the region-wide id allocator and this namespace's
    /// root id, whose attribute row must already exist in `db`.
    pub fn with_shared(
        mut config: MantleConfig,
        db: Arc<TafDb>,
        data: Arc<DataService>,
        ids: Arc<IdAllocator>,
        root: InodeId,
    ) -> Arc<Self> {
        config.index.root = root;
        let index = Arc::new(IndexNode::new(config.sim, config.index));
        Arc::new(MantleCluster {
            config,
            db,
            index,
            data,
            ids,
            clock: AtomicU64::new(1),
            root,
            amcache: TopDirPathCache::new(0, config.amcache),
            pcache: PathLeaseCache::new(config.pcache, "mantle"),
            pcache_faults: mantle_rpc::FaultSlot::new(),
            ops: SvcMetrics::new("mantle"),
        })
    }

    /// This namespace's root directory id.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Convenience constructor: timing `sim`, `db_shards` TafDB shards,
    /// defaults everywhere else.
    pub fn build(sim: SimConfig, db_shards: usize) -> Arc<Self> {
        Self::with_config(MantleConfig::with_sim(sim, db_shards))
    }

    /// A handle usable as a [`MetadataService`] trait object.
    pub fn service(self: &Arc<Self>) -> Arc<Self> {
        Arc::clone(self)
    }

    /// The shared TafDB.
    pub fn db(&self) -> &Arc<TafDb> {
        &self.db
    }

    /// The namespace's IndexNode.
    pub fn index(&self) -> &Arc<IndexNode> {
        &self.index
    }

    /// The data service.
    pub fn data(&self) -> &Arc<DataService> {
        &self.data
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MantleConfig {
        &self.config
    }

    /// The inode allocator (used by the populator).
    pub(crate) fn ids(&self) -> &IdAllocator {
        &self.ids
    }

    /// Changes a directory's permission mask: replicated through the
    /// IndexNode (which invalidates affected cache prefixes, §5.1.2) and
    /// persisted in the TafDB entry row.
    pub fn setattr(
        &self,
        path: &MetaPath,
        permission: Permission,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.ops.setattr.inc();
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            // Persist in TafDB first (source of truth), then refresh the
            // IndexNode's access metadata.
            let key = entry_key(parent.id, &name);
            let updated = match self.db.get_entry(parent.id, &name, stats) {
                Some(Row::DirAccess { id, .. }) => {
                    self.db.raw_put(key, Row::DirAccess { id, permission });
                    true
                }
                _ => false,
            };
            if !updated {
                return Err(MetaError::NotFound(path.to_string()));
            }
            self.with_failover(stats, |stats| {
                self.index
                    .set_permission(parent.id, &name, permission, path, stats)
            })?;
            self.amcache.invalidate_subtree(path);
            // Aggregated permissions changed for everything underneath.
            stats.cache_invalidations += self.pcache.invalidate_subtree(path) as u32;
            Ok(())
        })
    }

    /// Logical timestamp for mtime/ctime fields.
    pub fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Retries `f` across transient unavailability (IndexNode leader
    /// failover re-election windows) and injected transient faults, with
    /// bounded exponential backoff (200µs doubling, capped at 5ms).
    ///
    /// Safe to retry blindly: injected faults are request-loss only (the
    /// guarded work never ran), and multi-step operations carry a client
    /// UUID so server-side replays stay idempotent.
    fn with_failover<R>(
        &self,
        stats: &mut RequestCtx,
        f: impl FnMut(&mut RequestCtx) -> Result<R>,
    ) -> Result<R> {
        // StaleRoute: the DB's shard map moved under the op; the retry
        // re-routes against the refreshed snapshot. The engine books the
        // per-class retry stat and paces (modeled backoff plus real pacing
        // under the virtual clock, since leader re-election runs on the
        // real-time control plane).
        RetryPolicy::failover(self.config.unavailable_retries).run(
            stats,
            classify_failover,
            |_, e| {
                mantle_obs::flight::annotate_with(|| match e {
                    MetaError::Unavailable(at) => format!("failover:unavailable at={at}"),
                    MetaError::Transient { kind, at } => {
                        format!("failover:transient kind={kind} at={at}")
                    }
                    MetaError::Overloaded(at) => format!("failover:overloaded at={at}"),
                    _ => "failover:stale_route".to_string(),
                });
            },
            f,
        )
    }

    /// Installs a deterministic fault plan across every component: the
    /// IndexNode's Raft replicas (RPC + WAL + crash hooks), every TafDB
    /// shard (RPC + WAL + 2PC), and the data nodes.
    pub fn install_faults(&self, plan: &Arc<mantle_rpc::FaultPlan>) {
        self.index.install_faults(Some(plan.clone()));
        self.db.install_faults(Some(plan.clone()));
        self.data.install_faults(Some(plan.clone()));
        self.pcache_faults.install(Some(plan.clone()));
    }

    /// Removes a previously installed fault plan from every component.
    pub fn clear_faults(&self) {
        self.index.install_faults(None);
        self.db.install_faults(None);
        self.data.install_faults(None);
        self.pcache_faults.install(None);
    }

    /// The client-side path-lease cache (statistics, test inspection).
    pub fn path_cache(&self) -> &PathLeaseCache {
        &self.pcache
    }

    /// Path-lease cache statistics snapshot.
    pub fn path_cache_stats(&self) -> PathCacheStats {
        self.pcache.stats()
    }

    /// One path resolution, optionally short-circuited by the proxy-side
    /// path-lease cache (DESIGN.md §4.13) or AM-Cache (Figure 20).
    fn cached_lookup(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        if self.pcache.enabled() {
            return self.leased_lookup(path, stats);
        }
        if let Some(prefix) = self.amcache.prefix_of(path) {
            if let Some(hit) = self.amcache.get(&prefix) {
                stats.cache_hits += 1;
                mantle_obs::counter("amcache_hits_total", &[]).inc();
                return Ok(ResolvedPath {
                    id: hit.pid,
                    permission: hit.permission,
                });
            }
        }
        let resolved = self.with_failover(stats, |stats| self.index.lookup(path, stats))?;
        if let Some(prefix) = self.amcache.prefix_of(path) {
            self.amcache.try_fill(
                prefix,
                CachedPrefix {
                    pid: resolved.id,
                    permission: resolved.permission,
                },
                || true,
            );
        }
        Ok(resolved)
    }

    /// Resolution through the path-lease cache: a live entry answers with
    /// zero RPCs; an expired one is revalidated with a single version-check
    /// RPC; a miss resolves fully and installs a lease. The `LeaseExpire`
    /// fault demotes live hits and `StaleRead` vetoes matching
    /// revalidations — both only *add* coherence work, never skip it.
    fn leased_lookup(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        let ttl = self.pcache.config().lease_ttl;
        let force_expire = self
            .pcache_faults
            .get()
            .is_some_and(|plan| plan.lease_expires("proxy"));
        match self.pcache.probe(path, force_expire) {
            LeaseProbe::Hit(lease) => {
                stats.cache_hits += 1;
                Ok(ResolvedPath {
                    id: lease.pid,
                    permission: lease.permission,
                })
            }
            LeaseProbe::NegativeHit => {
                stats.cache_hits += 1;
                Err(MetaError::NotFound(path.to_string()))
            }
            LeaseProbe::Expired(old) => {
                let token = self.pcache.begin();
                match self.with_failover(stats, |stats| self.index.lease_check(path, ttl, stats)) {
                    Ok(fresh) => {
                        let stale_read = self
                            .pcache_faults
                            .get()
                            .is_some_and(|plan| plan.stale_read_fires("proxy"));
                        let matched = fresh.resolved.id == old.pid
                            && fresh.version == old.version
                            && !stale_read;
                        let dropped = self.pcache.revalidated(path, matched, &fresh, token, stats);
                        if matched {
                            stats.cache_revalidations += 1;
                        } else {
                            stats.cache_invalidations += dropped as u32;
                        }
                        Ok(fresh.resolved)
                    }
                    Err(e @ MetaError::NotFound(_)) => {
                        // The directory is gone: the lease (and anything
                        // cached beneath it) is dead.
                        stats.cache_invalidations +=
                            self.pcache.revalidated_gone(path, token, stats) as u32;
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
            LeaseProbe::Miss | LeaseProbe::Disabled => {
                stats.cache_misses += 1;
                let token = self.pcache.begin();
                match self.with_failover(stats, |stats| self.index.lookup_leased(path, ttl, stats))
                {
                    Ok(fresh) => {
                        self.pcache.fill(path, &fresh, token, stats);
                        Ok(fresh.resolved)
                    }
                    Err(e @ MetaError::NotFound(_)) => {
                        self.pcache.fill_negative(path, token, stats);
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Resolves the parent directory of `path` and returns
    /// `(parent, leaf name)`.
    fn resolve_parent(
        &self,
        path: &MetaPath,
        stats: &mut RequestCtx,
    ) -> Result<(ResolvedPath, String)> {
        let parent = path
            .parent()
            .ok_or_else(|| MetaError::InvalidPath("operation on root".into()))?;
        let name = path.name().expect("non-root path").to_string();
        let resolved = self.cached_lookup(&parent, stats)?;
        Ok((resolved, name))
    }
}

impl MetadataService for MantleCluster {
    fn name(&self) -> &'static str {
        "mantle"
    }

    fn lookup(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        self.ops.lookup.inc();
        stats.time(Phase::Lookup, |stats| self.cached_lookup(path, stats))
    }

    fn mkdir(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<InodeId> {
        self.ops.mkdir.inc();
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            if !parent.permission.allows(Permission::WRITE) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            let id = self.ids.alloc();
            let now = self.now();
            let ops = [
                TxnOp::InsertUnique {
                    key: entry_key(parent.id, &name),
                    row: Row::DirAccess {
                        id,
                        permission: Permission::ALL,
                    },
                },
                TxnOp::Put {
                    key: attr_key(id),
                    row: Row::DirAttr(DirAttrMeta::new(now, 0)),
                },
                TxnOp::AttrUpdate {
                    dir: parent.id,
                    delta: AttrDelta {
                        nlink: 1,
                        entries: 1,
                        mtime: now,
                    },
                },
            ];
            self.db.execute(&ops, stats)?;
            // Refresh the IndexNode's access metadata (Figure 5: "TafDB
            // updates all metadata while IndexNode refreshes access data").
            self.with_failover(stats, |stats| {
                self.index
                    .insert_dir(parent.id, &name, id, Permission::ALL, stats)
            })?;
            // Scrub any cached NotFound verdict for the new directory.
            self.pcache.invalidate_exact(path);
            Ok(id)
        })
    }

    fn rmdir(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        self.ops.rmdir.inc();
        let (dir, parent, name) = stats.time(Phase::Lookup, |stats| {
            let dir = self.with_failover(stats, |stats| self.index.lookup(path, stats))?;
            let (parent, name) = self.resolve_parent(path, stats)?;
            Ok::<_, MetaError>((dir, parent, name))
        })?;
        stats.time(Phase::Execute, |stats| {
            if !parent.permission.allows(Permission::WRITE) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            let now = self.now();
            let ops = [
                // Exclusive lock on the attr row first; ExpectEmptyDir then
                // checks emptiness with creations excluded.
                TxnOp::Delete {
                    key: attr_key(dir.id),
                },
                TxnOp::ExpectEmptyDir { dir: dir.id },
                TxnOp::Delete {
                    key: entry_key(parent.id, &name),
                },
                TxnOp::AttrUpdate {
                    dir: parent.id,
                    delta: AttrDelta {
                        nlink: -1,
                        entries: -1,
                        mtime: now,
                    },
                },
            ];
            self.db.execute(&ops, stats)?;
            self.with_failover(stats, |stats| {
                self.index.remove_dir(parent.id, &name, path, stats)
            })?;
            self.amcache.invalidate_subtree(path);
            stats.cache_invalidations += self.pcache.invalidate_subtree(path) as u32;
            Ok(())
        })
    }

    fn create(&self, path: &MetaPath, size: u64, stats: &mut RequestCtx) -> Result<InodeId> {
        self.ops.create.inc();
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            if !parent.permission.allows(Permission::WRITE) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            let id = self.ids.alloc();
            let now = self.now();
            let ops = [
                TxnOp::InsertUnique {
                    key: entry_key(parent.id, &name),
                    row: Row::Object(ObjectMeta {
                        pid: parent.id,
                        name: name.clone(),
                        id,
                        size,
                        blob: 0,
                        ctime: now,
                        permission: Permission::ALL,
                    }),
                },
                TxnOp::AttrUpdate {
                    dir: parent.id,
                    delta: AttrDelta {
                        nlink: 0,
                        entries: 1,
                        mtime: now,
                    },
                },
            ];
            self.db.execute(&ops, stats)?;
            Ok(id)
        })
    }

    fn delete(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        self.ops.delete.inc();
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            // Type check (an object, not a directory) before deleting.
            self.db.get_object(parent.id, &name, stats)?;
            let now = self.now();
            let ops = [
                TxnOp::Delete {
                    key: entry_key(parent.id, &name),
                },
                TxnOp::AttrUpdate {
                    dir: parent.id,
                    delta: AttrDelta {
                        nlink: 0,
                        entries: -1,
                        mtime: now,
                    },
                },
            ];
            self.db.execute(&ops, stats)?;
            Ok(())
        })
    }

    fn objstat(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ObjectMeta> {
        self.ops.objstat.inc();
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            if !parent.permission.allows(Permission::READ) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            self.db.get_object(parent.id, &name, stats)
        })
    }

    fn dirstat(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<DirStat> {
        self.ops.dirstat.inc();
        let dir = stats.time(Phase::Lookup, |stats| self.cached_lookup(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            let attrs = self.db.dir_stat(dir.id, stats)?;
            Ok(DirStat {
                id: dir.id,
                attrs,
                permission: dir.permission,
            })
        })
    }

    fn readdir(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<Vec<DirEntry>> {
        self.ops.readdir.inc();
        let dir = stats.time(Phase::Lookup, |stats| self.cached_lookup(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            if !dir.permission.allows(Permission::READ) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            Ok(self.db.readdir(dir.id, stats))
        })
    }

    fn list(
        &self,
        path: &MetaPath,
        start_after: Option<&str>,
        limit: usize,
        stats: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        self.ops.list.inc();
        let dir = stats.time(Phase::Lookup, |stats| self.cached_lookup(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            if !dir.permission.allows(Permission::READ) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            Ok(self.db.readdir_page(dir.id, start_after, limit, stats))
        })
    }

    fn rename_dir(&self, src: &MetaPath, dst: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        self.ops.rename.inc();
        // Each retry of the whole operation keeps the same client UUID so a
        // lock left by an earlier (failed) attempt is re-entered (§5.3).
        let uuid = ClientUuid::generate();
        // The engine's rename pacing charges the modeled backoff to this
        // client's timeline and yields so the conflicting client can release
        // the lock in real time (or plain yields when RTT is zero).
        RetryPolicy::rename(self.config.rename_retries, self.config.sim.rtt_micros == 0).run(
            stats,
            classify_rename,
            |_, e| {
                if matches!(
                    e,
                    MetaError::RenameLocked(_) | MetaError::TxnConflict { .. }
                ) {
                    mantle_obs::flight::annotate("rename:lock_conflict");
                }
            },
            |stats| self.try_rename(src, dst, uuid, stats),
        )
    }
}

impl mantle_types::BulkLoad for MantleCluster {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        let mut pid = self.root;
        let mut current = MetaPath::root();
        for comp in path.components() {
            current = current.child(comp);
            match self.db.raw_get(&entry_key(pid, comp)) {
                Some(Row::DirAccess { id, .. }) => pid = id,
                Some(_) => panic!("bulk_dir crosses an object at {current}"),
                None => {
                    let id = self.ids.alloc();
                    let now = self.now();
                    self.db.raw_put(
                        entry_key(pid, comp),
                        Row::DirAccess {
                            id,
                            permission: Permission::ALL,
                        },
                    );
                    self.db
                        .raw_put(attr_key(id), Row::DirAttr(DirAttrMeta::new(now, 0)));
                    if let Some(Row::DirAttr(mut attrs)) = self.db.raw_get(&attr_key(pid)) {
                        attrs.apply_delta(&AttrDelta {
                            nlink: 1,
                            entries: 1,
                            mtime: now,
                        });
                        self.db.raw_put(attr_key(pid), Row::DirAttr(attrs));
                    }
                    self.index.raw_insert_dir(pid, comp, id, Permission::ALL);
                    pid = id;
                }
            }
        }
        pid
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        let parent = path.parent().expect("objects cannot be the root");
        let name = path.name().expect("non-root");
        let pid = self.bulk_dir(&parent);
        let id = self.ids.alloc();
        let now = self.now();
        let blob = self.data.raw_write(size);
        self.db.raw_put(
            entry_key(pid, name),
            Row::Object(ObjectMeta {
                pid,
                name: name.to_string(),
                id,
                size,
                blob,
                ctime: now,
                permission: Permission::ALL,
            }),
        );
        if let Some(Row::DirAttr(mut attrs)) = self.db.raw_get(&attr_key(pid)) {
            attrs.apply_delta(&AttrDelta {
                nlink: 0,
                entries: 1,
                mtime: now,
            });
            self.db.raw_put(attr_key(pid), Row::DirAttr(attrs));
        }
    }
}

impl MantleCluster {
    fn try_rename(
        &self,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        // Figure 9 steps 1–7: resolution + lock + loop detection, one RPC.
        // Mantle "records zero lookup time in dirrename since it is merged
        // with loop detection" (§6.3) — charged to the LoopDetect phase.
        let grant = stats.time(Phase::LoopDetect, |stats| {
            self.with_failover(stats, |stats| {
                self.index.rename_prepare(src, dst, uuid, stats)
            })
        })?;

        stats.time(Phase::Execute, |stats| {
            let src_name = src.name().expect("non-root");
            let dst_name = dst.name().expect("non-root");
            let now = self.now();
            let mut ops = vec![
                TxnOp::Delete {
                    key: entry_key(grant.src_pid, src_name),
                },
                TxnOp::InsertUnique {
                    key: entry_key(grant.dst_pid, dst_name),
                    row: Row::DirAccess {
                        id: grant.src_id,
                        permission: grant.permission,
                    },
                },
            ];
            if grant.src_pid == grant.dst_pid {
                // Same-parent rename: entry counts are unchanged.
                ops.push(TxnOp::AttrUpdate {
                    dir: grant.src_pid,
                    delta: AttrDelta {
                        nlink: 0,
                        entries: 0,
                        mtime: now,
                    },
                });
            } else {
                ops.push(TxnOp::AttrUpdate {
                    dir: grant.src_pid,
                    delta: AttrDelta {
                        nlink: -1,
                        entries: -1,
                        mtime: now,
                    },
                });
                ops.push(TxnOp::AttrUpdate {
                    dir: grant.dst_pid,
                    delta: AttrDelta {
                        nlink: 1,
                        entries: 1,
                        mtime: now,
                    },
                });
            }
            match self.db.execute(&ops, stats) {
                Ok(_) => {
                    self.with_failover(stats, |stats| {
                        self.index.rename_commit(&grant, src, dst, uuid, stats)
                    })?;
                    self.amcache.invalidate_subtree(src);
                    // Both subtrees: sources go stale, and the destination
                    // side may hold negative verdicts for paths that exist
                    // now that the subtree moved in.
                    stats.cache_invalidations += self.pcache.invalidate_subtree(src) as u32;
                    stats.cache_invalidations += self.pcache.invalidate_subtree(dst) as u32;
                    Ok(())
                }
                Err(e) => {
                    self.with_failover(stats, |stats| {
                        self.index.rename_abort(&grant, src, uuid, stats)
                    })?;
                    Err(e)
                }
            }
        })
    }
}
