//! Executing one op: through the `MetadataService` front door (core pass)
//! or as the sequence of layer calls the Mantle proxy makes (layer pass),
//! with a span recorded around each call when tracing is on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mantle_core::pathcache::LeaseProbe;
use mantle_core::MantleCluster;
use mantle_index::IndexCmd;
use mantle_raft::RaftError;
use mantle_rpc::{classify_failover, classify_rename, RetryPolicy};
use mantle_store::RowKey;
use mantle_tafdb::{attr_key, entry_key, Row, TxnOp};
use mantle_types::id::IdAllocator;
use mantle_types::{
    clock, AttrDelta, ClientUuid, DirAttrMeta, LeasedPath, MetaError, MetaPath, MetadataService,
    ObjectMeta, Permission, Phase, RequestCtx, ResolvedPath, Result,
};

use crate::sys;
use crate::workload::Op;

/// What one op returned, judged against what it must return.
pub enum Outcome {
    /// The op succeeded with a correct reply.
    Ok,
    /// The op returned an error.
    Failed(String),
    /// The op succeeded with a wrong reply.
    Wrong(String),
}

fn judge<T>(r: Result<T>, check: impl FnOnce(T) -> Option<String>) -> Outcome {
    match r {
        Ok(v) => check(v).map_or(Outcome::Ok, Outcome::Wrong),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn size_check(path: &MetaPath, want: u64) -> impl FnOnce(ObjectMeta) -> Option<String> + '_ {
    move |m: ObjectMeta| {
        (m.size != want).then(|| format!("objstat {path}: size {} != loaded {want}", m.size))
    }
}

/// One recorded span. Times are real ns since the tracer's base, thread
/// CPU ns and virtual (modeled) ns.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the enclosing span in the same tracer (`u32::MAX`: none).
    pub parent: u32,
    pub start_ns: u64,
    pub real_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
    /// Real and CPU ns covered by direct children.
    pub child_real_ns: u64,
    pub child_cpu_ns: u64,
    start_cpu: u64,
    start_virt: u64,
}

/// Per-client span recorder; spans stay in memory until the run ends.
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    base: Instant,
    /// Current op id (client in the high bits, sequence number below).
    pub op: u64,
    /// Set after this client's IndexNode write commits; the next follower
    /// ReadIndex is the one that may wait for that commit to reach the
    /// follower.
    pub wrote: bool,
    /// Row keys the layer pass read and wrote, and WAL records it caused,
    /// replayed afterwards on a standalone engine and WAL.
    pub get_keys: Vec<RowKey>,
    pub put_keys: Vec<RowKey>,
    pub wal_records: u64,
}

impl Tracer {
    pub fn new(on: bool, base: Instant) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            base,
            op: 0,
            wrote: false,
            get_keys: Vec::new(),
            put_keys: Vec::new(),
            wal_records: 0,
        }
    }

    /// Opens a span; returns its handle for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            start_ns: self.base.elapsed().as_nanos() as u64,
            real_ns: 0,
            cpu_ns: 0,
            virt_ns: 0,
            child_real_ns: 0,
            child_cpu_ns: 0,
            start_cpu: sys::thread_cpu_ns(),
            start_virt: clock::now().as_nanos(),
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes the span `h` opened (spans nest strictly).
    pub fn end(&mut self, h: Option<u32>) {
        let Some(idx) = h else { return };
        let cpu = sys::thread_cpu_ns();
        let virt = clock::now().as_nanos();
        let now = self.base.elapsed().as_nanos() as u64;
        debug_assert_eq!(self.stack.last(), Some(&idx));
        self.stack.pop();
        let s = &mut self.spans[idx as usize];
        s.real_ns = now - s.start_ns;
        s.cpu_ns = cpu.saturating_sub(s.start_cpu);
        s.virt_ns = virt.saturating_sub(s.start_virt);
        let (parent, real, cpu) = (s.parent, s.real_ns, s.cpu_ns);
        if let Some(p) = self.spans.get_mut(parent as usize) {
            p.child_real_ns += real;
            p.child_cpu_ns += cpu;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let h = self.begin(name);
        let out = f(self);
        self.end(h);
        out
    }
}

/// Core pass: one `MetadataService` call per op.
pub fn run_core(svc: &MantleCluster, op: &Op, ctx: &mut RequestCtx, tr: &mut Tracer) -> Outcome {
    const NAMES: [&str; 7] = [
        "core.objstat",
        "core.dirstat",
        "core.lookup",
        "core.create",
        "core.mkdir",
        "core.rename",
        "core.readdir",
    ];
    let h = tr.begin(NAMES[op.kind()]);
    let out = match op {
        Op::ObjStat { path, size } => judge(svc.objstat(path, ctx), size_check(path, *size)),
        Op::DirStat(p) => judge(svc.dirstat(p, ctx), |_| None),
        Op::Lookup(p) => judge(svc.lookup(p, ctx), |_| None),
        Op::Create { path, size } => judge(svc.create(path, *size, ctx), |_| None),
        Op::Mkdir(p) => judge(svc.mkdir(p, ctx), |_| None),
        Op::Rename { src, dst } => judge(svc.rename_dir(src, dst, ctx), |_| None),
        Op::Readdir(p) => judge(svc.readdir(p, ctx), |_| None),
    };
    tr.end(h);
    out
}

/// Layer pass: the op stream the Mantle proxy (`MantleCluster`) issues,
/// made from the benchmark as direct calls into each layer's public API.
///
/// IndexNode lookups and propose-style updates are split one level
/// further, into the `RaftReplica::read_index` / `RaftReplica::propose`
/// and `SimNode` calls the IndexNode makes for them. `rename_prepare`
/// (which keeps leader-private reservations) and the TafDB calls are
/// timed whole.
pub struct Layer {
    pub cluster: Arc<MantleCluster>,
    pub ids: Arc<IdAllocator>,
    /// Round-robin cursor over IndexNode replicas for follower reads.
    rr: AtomicUsize,
}

fn map_raft(e: RaftError) -> MetaError {
    if e == RaftError::DeadlineExceeded {
        return MetaError::DeadlineExceeded("IndexNode raft read path".into());
    }
    MetaError::Unavailable(format!("IndexNode raft: {e}"))
}

impl Layer {
    pub fn new(cluster: Arc<MantleCluster>, ids: Arc<IdAllocator>) -> Self {
        Layer {
            cluster,
            ids,
            rr: AtomicUsize::new(0),
        }
    }

    fn failover<R>(
        &self,
        ctx: &mut RequestCtx,
        f: impl FnMut(&mut RequestCtx) -> Result<R>,
    ) -> Result<R> {
        let tries = self.cluster.config().unavailable_retries;
        RetryPolicy::failover(tries).run(ctx, classify_failover, |_, _| {}, f)
    }

    /// `IndexNode::lookup`: the replica is picked round-robin when follower
    /// reads are on (a follower first runs a ReadIndex round), else it is
    /// the leader; then the single resolve RPC.
    fn index_resolve(
        &self,
        tr: &mut Tracer,
        rpc: &'static str,
        path: &MetaPath,
        ctx: &mut RequestCtx,
    ) -> Result<(ResolvedPath, u64)> {
        let h = tr.begin("index.lookup");
        let out = self.failover(ctx, |ctx| {
            let index = self.cluster.index();
            let replica = if index.options().follower_reads {
                let replicas = index.group().replicas();
                let start = self.rr.fetch_add(1, Ordering::Relaxed);
                (0..replicas.len())
                    .map(|i| &replicas[(start + i) % replicas.len()])
                    .find(|r| r.alive())
                    .cloned()
                    .ok_or_else(|| MetaError::Unavailable("no live IndexNode replica".into()))?
            } else {
                index
                    .group()
                    .leader()
                    .ok_or_else(|| MetaError::Unavailable("no IndexNode leader".into()))?
            };
            if !replica.is_leader() {
                let name = if std::mem::take(&mut tr.wrote) {
                    "raft.read_index_after_write"
                } else {
                    "raft.read_index"
                };
                tr.span(name, |_| replica.read_index(ctx))
                    .map_err(map_raft)?;
            }
            let outcome = tr.span("index.resolve", |_| {
                replica
                    .node()
                    .try_rpc_named(ctx, rpc, || replica.state_machine().resolve(path))
            })?;
            if outcome.cacheable {
                if outcome.cache_hit {
                    ctx.cache_hits += 1;
                } else {
                    ctx.cache_misses += 1;
                }
            }
            outcome.result.map(|r| (r, outcome.leaf_version))
        });
        tr.end(h);
        out
    }

    /// `MantleCluster::cached_lookup`, including the path-lease protocol.
    fn lookup(
        &self,
        tr: &mut Tracer,
        path: &MetaPath,
        ctx: &mut RequestCtx,
    ) -> Result<ResolvedPath> {
        let pcache = self.cluster.path_cache();
        if !pcache.enabled() {
            return self.index_resolve(tr, "resolve", path, ctx).map(|r| r.0);
        }
        let ttl = pcache.config().lease_ttl;
        let lease = |(resolved, version)| LeasedPath {
            resolved,
            version,
            lease_ttl: ttl,
        };
        match tr.span("pathcache.probe", |_| pcache.probe(path, false)) {
            LeaseProbe::Hit(l) => {
                ctx.cache_hits += 1;
                Ok(ResolvedPath {
                    id: l.pid,
                    permission: l.permission,
                })
            }
            LeaseProbe::NegativeHit => {
                ctx.cache_hits += 1;
                Err(MetaError::NotFound(path.to_string()))
            }
            LeaseProbe::Expired(old) => {
                let token = pcache.begin();
                match self.index_resolve(tr, "lease_check", path, ctx) {
                    Ok(fresh) => {
                        let fresh = lease(fresh);
                        let matched = fresh.resolved.id == old.pid && fresh.version == old.version;
                        let dropped = tr.span("pathcache.fill", |_| {
                            pcache.revalidated(path, matched, &fresh, token, ctx)
                        });
                        if matched {
                            ctx.cache_revalidations += 1;
                        } else {
                            ctx.cache_invalidations += dropped as u32;
                        }
                        Ok(fresh.resolved)
                    }
                    Err(e @ MetaError::NotFound(_)) => {
                        ctx.cache_invalidations += tr.span("pathcache.invalidate", |_| {
                            pcache.revalidated_gone(path, token, ctx)
                        }) as u32;
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
            LeaseProbe::Miss | LeaseProbe::Disabled => {
                ctx.cache_misses += 1;
                let token = pcache.begin();
                match self.index_resolve(tr, "resolve", path, ctx) {
                    Ok(fresh) => {
                        let fresh = lease(fresh);
                        tr.span("pathcache.fill", |_| pcache.fill(path, &fresh, token, ctx));
                        Ok(fresh.resolved)
                    }
                    Err(e @ MetaError::NotFound(_)) => {
                        tr.span("pathcache.fill", |_| pcache.fill_negative(path, token, ctx));
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// A path-cache call the proxy makes even with the cache off, where
    /// it returns at once; spanned only when the cache is on, so the
    /// `pathcache` layer reads zero on workloads that bypass it.
    fn pcache_span<R>(
        &self,
        tr: &mut Tracer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if self.cluster.path_cache().enabled() {
            tr.span(name, f)
        } else {
            f(tr)
        }
    }

    fn resolve_parent<'p>(
        &self,
        tr: &mut Tracer,
        path: &'p MetaPath,
        ctx: &mut RequestCtx,
    ) -> Result<(ResolvedPath, &'p str)> {
        let parent = path.parent().expect("ops never target the root");
        let name = path.name().expect("non-root path");
        Ok((self.lookup(tr, &parent, ctx)?, name))
    }

    /// `IndexNode`'s propose path: admission RPC on the leader, then the
    /// Raft proposal.
    fn index_propose(&self, tr: &mut Tracer, cmd: IndexCmd, ctx: &mut RequestCtx) -> Result<()> {
        self.failover(ctx, |ctx| {
            let leader = self
                .cluster
                .index()
                .group()
                .leader()
                .ok_or_else(|| MetaError::Unavailable("no IndexNode leader".into()))?;
            tr.span("rpc.index_propose", |_| {
                leader.node().rpc_named(ctx, "index_propose", || ())
            });
            tr.span("raft.propose", |_| leader.propose(cmd.clone()))
                .map_err(map_raft)?;
            tr.wrote = true;
            Ok(())
        })
    }

    fn execute(&self, tr: &mut Tracer, ops: &[TxnOp], ctx: &mut RequestCtx) -> Result<()> {
        if tr.on {
            for op in ops {
                match op {
                    TxnOp::InsertUnique { key, .. } | TxnOp::Put { key, .. } => {
                        tr.put_keys.push(key.clone())
                    }
                    TxnOp::Delete { key } => tr.put_keys.push(key.clone()),
                    TxnOp::AttrUpdate { dir, .. } => tr.put_keys.push(attr_key(*dir)),
                    _ => {}
                }
            }
            tr.wal_records += ops.len() as u64;
        }
        tr.span("tafdb.execute", |_| self.cluster.db().execute(ops, ctx))
            .map(|_| ())
    }

    /// Runs `op` as the proxy would.
    pub fn run(&self, op: &Op, ctx: &mut RequestCtx, tr: &mut Tracer) -> Outcome {
        let h = tr.begin("op");
        let out = match op {
            Op::ObjStat { path, size } => {
                judge(self.objstat(tr, path, ctx), size_check(path, *size))
            }
            Op::DirStat(p) => judge(
                self.with_dir(tr, p, ctx, |l, tr, id, ctx| {
                    tr.span("tafdb.dir_stat", |_| l.cluster.db().dir_stat(id, ctx))
                }),
                |_| None,
            ),
            Op::Lookup(p) => judge(
                ctx.time(Phase::Lookup, |ctx| self.lookup(tr, p, ctx)),
                |_| None,
            ),
            Op::Readdir(p) => judge(
                self.with_dir(tr, p, ctx, |l, tr, id, ctx| {
                    Ok(tr.span("tafdb.readdir", |_| l.cluster.db().readdir(id, ctx)))
                }),
                |_| None,
            ),
            Op::Create { path, size } => judge(self.create(tr, path, *size, ctx), |_| None),
            Op::Mkdir(p) => judge(self.mkdir(tr, p, ctx), |_| None),
            Op::Rename { src, dst } => judge(self.rename(tr, src, dst, ctx), |_| None),
        };
        tr.end(h);
        out
    }

    fn objstat(
        &self,
        tr: &mut Tracer,
        path: &MetaPath,
        ctx: &mut RequestCtx,
    ) -> Result<ObjectMeta> {
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(tr, path, ctx))?;
        ctx.time(Phase::Execute, |ctx| {
            if tr.on {
                tr.get_keys.push(entry_key(parent.id, name));
            }
            tr.span("tafdb.get_object", |_| {
                self.cluster.db().get_object(parent.id, name, ctx)
            })
        })
    }

    /// Resolves directory `p`, then runs `f` on its id (dirstat, readdir).
    fn with_dir<R>(
        &self,
        tr: &mut Tracer,
        p: &MetaPath,
        ctx: &mut RequestCtx,
        f: impl FnOnce(&Self, &mut Tracer, mantle_types::InodeId, &mut RequestCtx) -> Result<R>,
    ) -> Result<R> {
        let dir = ctx.time(Phase::Lookup, |ctx| self.lookup(tr, p, ctx))?;
        ctx.time(Phase::Execute, |ctx| {
            if tr.on {
                tr.get_keys.push(attr_key(dir.id));
            }
            f(self, tr, dir.id, ctx)
        })
    }

    fn create(
        &self,
        tr: &mut Tracer,
        path: &MetaPath,
        size: u64,
        ctx: &mut RequestCtx,
    ) -> Result<()> {
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(tr, path, ctx))?;
        ctx.time(Phase::Execute, |ctx| {
            let id = self.ids.alloc();
            let now = self.cluster.now();
            let ops = [
                TxnOp::InsertUnique {
                    key: entry_key(parent.id, name),
                    row: Row::Object(ObjectMeta {
                        pid: parent.id,
                        name: name.to_string(),
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
            self.execute(tr, &ops, ctx)
        })
    }

    fn mkdir(&self, tr: &mut Tracer, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(tr, path, ctx))?;
        ctx.time(Phase::Execute, |ctx| {
            let id = self.ids.alloc();
            let now = self.cluster.now();
            let ops = [
                TxnOp::InsertUnique {
                    key: entry_key(parent.id, name),
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
            self.execute(tr, &ops, ctx)?;
            let cmd = IndexCmd::InsertDir {
                pid: parent.id,
                name: Arc::from(name),
                id,
                permission: Permission::ALL,
            };
            tr.span("index.insert_dir", |tr| self.index_propose(tr, cmd, ctx))?;
            self.pcache_span(tr, "pathcache.invalidate", |_| {
                self.cluster.path_cache().invalidate_exact(path)
            });
            Ok(())
        })
    }

    fn rename(
        &self,
        tr: &mut Tracer,
        src: &MetaPath,
        dst: &MetaPath,
        ctx: &mut RequestCtx,
    ) -> Result<()> {
        let uuid = ClientUuid::generate();
        let cfg = self.cluster.config();
        RetryPolicy::rename(cfg.rename_retries, cfg.sim.rtt_micros == 0).run(
            ctx,
            classify_rename,
            |_, _| {},
            |ctx| self.try_rename(tr, src, dst, uuid, ctx),
        )
    }

    fn try_rename(
        &self,
        tr: &mut Tracer,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        ctx: &mut RequestCtx,
    ) -> Result<()> {
        let index = self.cluster.index();
        let grant = ctx.time(Phase::LoopDetect, |ctx| {
            self.failover(ctx, |ctx| {
                tr.span("index.rename_prepare", |_| {
                    index.rename_prepare(src, dst, uuid, ctx)
                })
            })
        })?;
        ctx.time(Phase::Execute, |ctx| {
            let src_name = src.name().expect("non-root");
            let dst_name = dst.name().expect("non-root");
            let now = self.cluster.now();
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
            let delta = |nlink, entries| AttrDelta {
                nlink,
                entries,
                mtime: now,
            };
            if grant.src_pid == grant.dst_pid {
                ops.push(TxnOp::AttrUpdate {
                    dir: grant.src_pid,
                    delta: delta(0, 0),
                });
            } else {
                ops.push(TxnOp::AttrUpdate {
                    dir: grant.src_pid,
                    delta: delta(-1, -1),
                });
                ops.push(TxnOp::AttrUpdate {
                    dir: grant.dst_pid,
                    delta: delta(1, 1),
                });
            }
            match self.execute(tr, &ops, ctx) {
                Ok(()) => {
                    let cmd = IndexCmd::RenameCommit {
                        src_pid: grant.src_pid,
                        src_name: Arc::from(src_name),
                        dst_pid: grant.dst_pid,
                        dst_name: Arc::from(dst_name),
                        uuid,
                        src_path: src.clone(),
                    };
                    tr.span("index.rename_commit", |tr| self.index_propose(tr, cmd, ctx))?;
                    let pcache = self.cluster.path_cache();
                    let dropped = self.pcache_span(tr, "pathcache.invalidate", |_| {
                        pcache.invalidate_subtree(src) + pcache.invalidate_subtree(dst)
                    });
                    ctx.cache_invalidations += dropped as u32;
                    Ok(())
                }
                Err(e) => {
                    self.failover(ctx, |ctx| {
                        tr.span("index.rename_abort", |_| {
                            index.rename_abort(&grant, src, uuid, ctx)
                        })
                    })?;
                    Err(e)
                }
            }
        })
    }
}
