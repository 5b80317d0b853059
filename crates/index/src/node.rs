//! The IndexNode service facade: Raft group + Invalidator threads + the
//! proxy-facing single-RPC operations.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mantle_raft::{RaftError, RaftGroup, RaftOptions, RaftReplica};
use mantle_rpc::SimNode;
use mantle_types::{
    ClientUuid, InodeId, LeasedPath, MetaError, MetaPath, Permission, RequestCtx, ResolvedPath,
    Result, SimConfig,
};

use crate::cache::CacheStats;
use crate::sm::{IndexCmd, IndexSm, ResolveOutcome};

/// IndexNode deployment options.
#[derive(Clone, Copy, Debug)]
pub struct IndexOptions {
    /// TopDirPathCache truncation distance; the paper settles on `k = 3`
    /// (§5.1.1, Figure 18).
    pub k: usize,
    /// Enable TopDirPathCache (`false` = Mantle-base of Figure 16).
    pub path_cache: bool,
    /// Serve lookups from followers/learners via batched ReadIndex
    /// (§5.1.3; `false` = pre-`+follower read` ablation).
    pub follower_reads: bool,
    /// Voting replicas (the paper deploys 3 IndexNode servers).
    pub voters: usize,
    /// Additional learner (read-only) replicas.
    pub learners: usize,
    /// Raft tuning (log batching etc.).
    pub raft: RaftOptions,
    /// Invalidator poll period (§5.1.2's background thread).
    pub invalidator_poll: Duration,
    /// The namespace root's directory id (distinct per namespace when
    /// several namespaces share one TafDB, §7.1).
    pub root: InodeId,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            k: 3,
            path_cache: true,
            follower_reads: true,
            voters: 3,
            learners: 0,
            raft: RaftOptions::default(),
            invalidator_poll: Duration::from_millis(1),
            root: mantle_types::ROOT_ID,
        }
    }
}

/// The reply to a successful rename prepare (Figure 9 step 7): everything
/// the proxy needs to run the metadata transaction.
#[derive(Clone, Debug)]
pub struct RenameGrant {
    /// Source parent directory id.
    pub src_pid: InodeId,
    /// The moving directory's id.
    pub src_id: InodeId,
    /// The moving directory's permission mask.
    pub permission: Permission,
    /// Destination parent directory id.
    pub dst_pid: InodeId,
}

/// A per-namespace IndexNode: a Raft group of [`IndexSm`] replicas plus the
/// background Invalidators.
pub struct IndexNode {
    group: RaftGroup<IndexSm>,
    opts: IndexOptions,
    /// Leader-local reservations for renames whose lock-bit replication is
    /// still in flight. Validation runs under this short mutex (so two
    /// renames cannot validate against each other's pre-lock state), while
    /// the Raft propose itself proceeds concurrently — without this split,
    /// every rename in the namespace would serialize behind one
    /// replication round trip.
    pending_renames: Mutex<std::collections::HashMap<(InodeId, Arc<str>), ClientUuid>>,
    /// Round-robin cursor for follower reads.
    rr: AtomicUsize,
    shutdown: Arc<AtomicBool>,
    invalidators: Mutex<Vec<std::thread::JoinHandle<()>>>,
    metrics: IndexMetrics,
}

/// IndexNode obs handles, created once so the lookup hot path stays cheap.
struct IndexMetrics {
    /// `index_cache_hits_total` — lookups answered from the TopDirPathCache.
    cache_hits: mantle_obs::Counter,
    /// `index_cache_misses_total` — cacheable lookups that walked the index.
    cache_misses: mantle_obs::Counter,
    /// `index_follower_reads_total` — lookups served by a non-leader replica
    /// (each pays a ReadIndex round).
    follower_reads: mantle_obs::Counter,
    /// `index_resolve_levels` — directory levels walked per resolve.
    resolve_levels: mantle_obs::HistogramMetric,
}

impl IndexMetrics {
    fn new() -> Self {
        IndexMetrics {
            cache_hits: mantle_obs::counter("index_cache_hits_total", &[]),
            cache_misses: mantle_obs::counter("index_cache_misses_total", &[]),
            follower_reads: mantle_obs::counter("index_follower_reads_total", &[]),
            resolve_levels: mantle_obs::histogram("index_resolve_levels", &[]),
        }
    }
}

impl IndexNode {
    /// Builds the replication group (`voters + learners` simulated servers)
    /// and starts one Invalidator thread per replica.
    pub fn new(config: SimConfig, opts: IndexOptions) -> Self {
        let nodes: Vec<Arc<SimNode>> = (0..opts.voters + opts.learners)
            .map(|i| {
                Arc::new(SimNode::new(
                    format!("index{i}"),
                    config.index_node_permits,
                    config,
                ))
            })
            .collect();
        let group = RaftGroup::new(config, opts.raft, nodes, opts.voters, |_| {
            IndexSm::with_root(config, opts.k, opts.path_cache, opts.root)
        });

        let shutdown = Arc::new(AtomicBool::new(false));
        let invalidators = group
            .replicas()
            .iter()
            .map(|r| {
                let replica = Arc::clone(r);
                let stop = Arc::clone(&shutdown);
                let poll = opts.invalidator_poll;
                std::thread::Builder::new()
                    .name(format!("invalidator-{}", replica.id()))
                    .spawn(move || {
                        // Version-gated drain: each recorded modification is
                        // invalidated once. Re-scanning unchanged entries
                        // every poll would burn CPU for nothing — a covered
                        // path cannot regain cache entries (the fill-time
                        // version check rejects it) until it leaves the
                        // RemovalList.
                        let mut drained_version = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            std::thread::sleep(poll);
                            let sm = replica.state_machine();
                            let version = sm.removal.version();
                            if version == drained_version || sm.removal.is_empty() {
                                continue;
                            }
                            for path in sm.removal.snapshot() {
                                sm.cache.invalidate_subtree(&path);
                            }
                            drained_version = version;
                        }
                    })
                    .expect("spawn invalidator")
            })
            .collect();

        IndexNode {
            group,
            opts,
            pending_renames: Mutex::new(std::collections::HashMap::new()),
            rr: AtomicUsize::new(0),
            shutdown,
            invalidators: Mutex::new(invalidators),
            metrics: IndexMetrics::new(),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &IndexOptions {
        &self.opts
    }

    /// The underlying Raft group (failure injection, inspection).
    pub fn group(&self) -> &RaftGroup<IndexSm> {
        &self.group
    }

    /// Installs (or clears) a fault plan on every replica — transport
    /// faults on the `index*` nodes, fsync faults on their Raft logs, and
    /// crash/restart hooks so `FaultPlan::crash_node("index0")` downs the
    /// replica like `RaftGroup::crash` would.
    pub fn install_faults(&self, plan: Option<Arc<mantle_rpc::FaultPlan>>) {
        self.group.install_faults(plan);
    }

    fn leader(&self) -> Result<Arc<RaftReplica<IndexSm>>> {
        self.group.leader().ok_or_else(|| {
            mantle_obs::flight::annotate("index:no_leader");
            MetaError::Unavailable("no IndexNode leader".into())
        })
    }

    fn map_raft(e: RaftError) -> MetaError {
        if e == RaftError::DeadlineExceeded {
            return MetaError::DeadlineExceeded("IndexNode raft read path".into());
        }
        mantle_obs::flight::annotate_with(|| format!("index:raft_unavailable err={e}"));
        MetaError::Unavailable(format!("IndexNode raft: {e}"))
    }

    /// Picks the replica to serve a lookup: the leader when follower reads
    /// are off, round-robin across live replicas otherwise (§5.1.3).
    fn pick_read_replica(&self) -> Result<Arc<RaftReplica<IndexSm>>> {
        if !self.opts.follower_reads {
            return self.leader();
        }
        let replicas = self.group.replicas();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..replicas.len() {
            let r = &replicas[(start + i) % replicas.len()];
            if r.alive() {
                return Ok(Arc::clone(r));
            }
        }
        Err(MetaError::Unavailable("no live IndexNode replica".into()))
    }

    /// Single-RPC path lookup (§5.1): resolves a directory path and returns
    /// its id plus the aggregated permission.
    ///
    /// # Errors
    ///
    /// Resolution errors pass through; [`MetaError::Unavailable`] when no
    /// replica can serve consistently.
    pub fn lookup(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        self.resolve_rpc(path, "resolve", stats).map(|o| o.0)
    }

    /// [`Self::lookup`] stamped with the leaf's namespace version and a
    /// client-supplied lease TTL (DESIGN.md §4.13). Same single RPC.
    pub fn lookup_leased(
        &self,
        path: &MetaPath,
        lease_ttl: Duration,
        stats: &mut RequestCtx,
    ) -> Result<LeasedPath> {
        let (resolved, version) = self.resolve_rpc(path, "resolve", stats)?;
        Ok(LeasedPath {
            resolved,
            version,
            lease_ttl,
        })
    }

    /// Revalidates an expired path lease with a single version-check RPC:
    /// the server re-resolves the full path (so renamed *ancestors* are
    /// caught even though only the moved entry's version bumps) and returns
    /// a fresh lease. The client compares `(pid, version)` against its
    /// cached entry: a match renews, a mismatch invalidates the subtree.
    pub fn lease_check(
        &self,
        path: &MetaPath,
        lease_ttl: Duration,
        stats: &mut RequestCtx,
    ) -> Result<LeasedPath> {
        let (resolved, version) = self.resolve_rpc(path, "lease_check", stats)?;
        Ok(LeasedPath {
            resolved,
            version,
            lease_ttl,
        })
    }

    fn resolve_rpc(
        &self,
        path: &MetaPath,
        rpc_name: &'static str,
        stats: &mut RequestCtx,
    ) -> Result<(ResolvedPath, u64)> {
        let replica = self.pick_read_replica()?;
        if !replica.is_leader() {
            self.metrics.follower_reads.inc();
        }
        // On the leader this waits for its term-start barrier, so a fresh
        // leader never serves state its predecessor had moved past.
        replica.read_index(stats).map_err(Self::map_raft)?;
        let outcome: ResolveOutcome = replica
            .node()
            .try_rpc_named(stats, rpc_name, || replica.state_machine().resolve(path))?;
        if outcome.cacheable {
            if outcome.cache_hit {
                stats.cache_hits += 1;
                self.metrics.cache_hits.inc();
            } else {
                stats.cache_misses += 1;
                self.metrics.cache_misses.inc();
            }
        }
        self.metrics
            .resolve_levels
            .record(outcome.levels_walked as u64);
        outcome.result.map(|r| (r, outcome.leaf_version))
    }

    /// Replicates a directory insertion (mkdir's IndexTable refresh).
    pub fn insert_dir(
        &self,
        pid: InodeId,
        name: &str,
        id: InodeId,
        permission: Permission,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::InsertDir {
                pid,
                name: Arc::from(name),
                id,
                permission,
            },
            stats,
        )
    }

    /// Replicates a directory removal (rmdir).
    pub fn remove_dir(
        &self,
        pid: InodeId,
        name: &str,
        path: &MetaPath,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::RemoveDir {
                pid,
                name: Arc::from(name),
                path: path.clone(),
            },
            stats,
        )
    }

    /// Replicates a permission change (setattr).
    pub fn set_permission(
        &self,
        pid: InodeId,
        name: &str,
        permission: Permission,
        path: &MetaPath,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::SetPermission {
                pid,
                name: Arc::from(name),
                permission,
                path: path.clone(),
            },
            stats,
        )
    }

    fn propose(&self, cmd: IndexCmd, stats: &mut RequestCtx) -> Result<()> {
        let leader = self.leader()?;
        // Admission + CPU inside the node's capacity envelope; the wait for
        // replication is I/O and does not occupy a core — the Raft
        // pipeline itself (bounded AppendEntries batches over the injected
        // network/fsync delays) is the write-throughput ceiling.
        leader.node().rpc_named(stats, "index_propose", || ());
        leader.propose(cmd).map_err(Self::map_raft)?;
        Ok(())
    }

    /// The rename coordination RPC (Figure 9 steps 1–7): resolves both
    /// paths, performs loop detection against the local index, sets the
    /// source lock bit (replicated), and returns the ids the proxy needs.
    ///
    /// # Errors
    ///
    /// [`MetaError::RenameLoop`] when `dst` lies inside `src`;
    /// [`MetaError::RenameLocked`] when a conflicting rename holds a lock on
    /// the source or on the LCA→destination chain (the caller aborts and
    /// retries, §5.2.2); resolution errors pass through. Re-invocation with
    /// the same `uuid` re-enters an already-held lock (§5.3).
    pub fn rename_prepare(
        &self,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<RenameGrant> {
        if src.is_root() || dst.is_root() {
            return Err(MetaError::InvalidRename("root cannot be renamed".into()));
        }
        if src == dst {
            return Err(MetaError::InvalidRename("source equals destination".into()));
        }
        let leader = self.leader()?;
        let src_name = src.name().expect("non-root");
        let grant = leader
            .node()
            .try_rpc_named(stats, "rename_prepare", || -> Result<RenameGrant> {
                let sm = leader.state_machine();

                // Loop detection on paths: a rename creating `dst` inside `src`
                // would detach the subtree into a cycle.
                if src.is_ancestor_of(dst) {
                    return Err(MetaError::RenameLoop {
                        src: src.to_string(),
                        dst: dst.to_string(),
                    });
                }

                // Resolve both parents *outside* the pending lock — resolution
                // carries the per-level CPU cost and must not serialize
                // unrelated renames. The lock-bit examination below re-reads
                // the entries it cares about.
                let src_parent = src.parent().expect("non-root");
                let src_parent_res = sm.resolve(&src_parent).result?;
                let dst_parent = dst.parent().expect("non-root");
                let dst_name = dst.name().expect("non-root");
                let dst_parent_res = sm.resolve(&dst_parent).result?;

                // Validation + reservation under the short pending lock; the
                // replication of the lock bit happens outside it so
                // non-conflicting renames replicate concurrently.
                {
                    let mut pending = self.pending_renames.lock();
                    let locked_by_other = |pid: InodeId, name: &str| -> bool {
                        let replicated = sm
                            .table
                            .get(pid, name)
                            .and_then(|e| e.lock)
                            .is_some_and(|h| h != uuid);
                        let reserved = pending
                            .get(&(pid, Arc::from(name)))
                            .is_some_and(|h| *h != uuid);
                        replicated || reserved
                    };

                    let Some(src_entry) = sm.table.get(src_parent_res.id, src_name) else {
                        return Err(MetaError::NotFound(src.to_string()));
                    };
                    if locked_by_other(src_parent_res.id, src_name) {
                        return Err(MetaError::RenameLocked(src.to_string()));
                    }

                    // Destination must not be a directory already (object
                    // collisions surface in the metadata transaction).
                    if sm.table.get(dst_parent_res.id, dst_name).is_some() {
                        return Err(MetaError::AlreadyExists(dst.to_string()));
                    }

                    // Examine lock bits (replicated or reserved) from the least
                    // common ancestor down to the destination parent (Figure 9
                    // step 6): a locked directory on that chain means a
                    // concurrent rename could re-parent us into a loop.
                    let lca_depth = src.lca_depth(dst);
                    let mut pid = sm.root();
                    for (depth, comp) in dst_parent.components().enumerate() {
                        let Some(entry) = sm.table.get(pid, comp) else {
                            return Err(MetaError::NotFound(dst_parent.to_string()));
                        };
                        if depth >= lca_depth && locked_by_other(pid, comp) {
                            return Err(MetaError::RenameLocked(
                                dst_parent.prefix(depth + 1).to_string(),
                            ));
                        }
                        pid = entry.id;
                    }

                    pending.insert((src_parent_res.id, Arc::from(src_name)), uuid);
                    Ok(RenameGrant {
                        src_pid: src_parent_res.id,
                        src_id: src_entry.id,
                        permission: src_entry.permission,
                        dst_pid: dst_parent_res.id,
                    })
                }
            })
            .and_then(|r| r)?;

        // Replicate the lock bit outside the capacity permit (replication
        // is I/O); the reservation covers the window until apply sets the
        // bit in every replica's IndexTable.
        let proposed = leader.propose(IndexCmd::RenamePrepare {
            src_pid: grant.src_pid,
            src_name: Arc::from(src_name),
            uuid,
            src_path: src.clone(),
        });
        self.pending_renames
            .lock()
            .remove(&(grant.src_pid, Arc::from(src_name)));
        proposed.map_err(Self::map_raft)?;
        Ok(grant)
    }

    /// Finalizes a granted rename: moves the access-metadata edge and
    /// releases the lock (Figure 9 step 8b).
    pub fn rename_commit(
        &self,
        grant: &RenameGrant,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::RenameCommit {
                src_pid: grant.src_pid,
                src_name: Arc::from(src.name().expect("non-root")),
                dst_pid: grant.dst_pid,
                dst_name: Arc::from(dst.name().expect("non-root")),
                uuid,
                src_path: src.clone(),
            },
            stats,
        )
    }

    /// Rolls back a granted rename whose metadata transaction failed.
    pub fn rename_abort(
        &self,
        grant: &RenameGrant,
        src: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::RenameAbort {
                src_pid: grant.src_pid,
                src_name: Arc::from(src.name().expect("non-root")),
                uuid,
                src_path: src.clone(),
            },
            stats,
        )
    }

    // --- population / inspection -------------------------------------------

    /// Installs a directory entry directly into every replica's state
    /// machine, bypassing Raft — bulk namespace population only (equivalent
    /// to restoring replicas from a common snapshot).
    pub fn raw_insert_dir(&self, pid: InodeId, name: &str, id: InodeId, permission: Permission) {
        for r in self.group.replicas() {
            r.state_machine().table.insert(
                pid,
                name,
                crate::table::IndexEntry {
                    id,
                    permission,
                    lock: None,
                    version: 1,
                },
            );
        }
    }

    /// Directory count on the leader replica.
    pub fn table_len(&self) -> usize {
        self.group
            .leader()
            .map(|l| l.state_machine().table.len())
            .unwrap_or(0)
    }

    /// Aggregated TopDirPathCache statistics across replicas
    /// `(leader, per-replica)`.
    pub fn cache_stats(&self) -> Vec<CacheStats> {
        self.group
            .replicas()
            .iter()
            .map(|r| r.state_machine().cache.stats())
            .collect()
    }
}

impl Drop for IndexNode {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.invalidators.lock().drain(..) {
            let _ = h.join();
        }
    }
}
