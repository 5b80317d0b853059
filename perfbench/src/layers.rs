//! Per-layer metrics: counter deltas from public accessors, span
//! aggregates, and standalone timings of the engine, WAL and RPC layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mantle_core::pathcache::PathCacheStats;
use mantle_core::MantleCluster;
use mantle_obs::MetricsSnapshot;
use mantle_rpc::SimNode;
use mantle_store::{GroupCommitWal, RowKey};
use mantle_tafdb::{entry_key, DbCounters, EngineKind, Row};
use mantle_types::{InodeId, ObjectMeta, Permission, RequestCtx, SimConfig};

use crate::exec::Span;

/// Counters read from the program's public accessors at one instant.
pub struct Counters {
    snap: MetricsSnapshot,
    db: DbCounters,
    lock_wait_ns: u64,
    lock_waits: u64,
    pcache: PathCacheStats,
}

impl Counters {
    pub fn read(cluster: &MantleCluster) -> Self {
        Counters {
            snap: mantle_obs::snapshot(),
            db: cluster.db().counters(),
            lock_wait_ns: cluster.db().engine_lock_wait_nanos(),
            lock_waits: cluster.db().engine_lock_waits(),
            pcache: cluster.path_cache_stats(),
        }
    }

    fn hist(&self, name: &str) -> (f64, f64) {
        self.snap
            .histograms
            .iter()
            .filter(|h| h.name == name)
            .fold((0.0, 0.0), |(n, s), h| {
                (n + h.count as f64, s + h.mean * h.count as f64)
            })
    }
}

/// Change of every counter between two reads.
pub struct Delta<'a> {
    pub a: &'a Counters,
    pub b: &'a Counters,
}

impl Delta<'_> {
    /// A global obs counter, summed over labels.
    pub fn obs(&self, name: &str) -> f64 {
        (self.b.snap.counter_total(name) - self.a.snap.counter_total(name)) as f64
    }

    /// A global obs histogram's `(samples, sum)`.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let ((n0, s0), (n1, s1)) = (self.a.hist(name), self.b.hist(name));
        (n1 - n0, s1 - s0)
    }

    pub fn db(&self, f: impl Fn(&DbCounters) -> u64) -> f64 {
        (f(&self.b.db) - f(&self.a.db)) as f64
    }

    pub fn pcache(&self, f: impl Fn(&PathCacheStats) -> u64) -> f64 {
        (f(&self.b.pcache) - f(&self.a.pcache)) as f64
    }

    pub fn lock_wait_ns(&self) -> f64 {
        (self.b.lock_wait_ns - self.a.lock_wait_ns) as f64
    }

    pub fn lock_waits(&self) -> f64 {
        (self.b.lock_waits - self.a.lock_waits) as f64
    }
}

/// Totals of all spans with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub real_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
    pub self_real_ns: u64,
    pub self_cpu_ns: u64,
}

impl SpanAgg {
    pub fn mean_real_us(&self) -> f64 {
        crate::stats::ratio(self.real_ns as f64, self.count as f64 * 1e3)
    }

    pub fn mean_cpu_us(&self) -> f64 {
        crate::stats::ratio(self.cpu_ns as f64, self.count as f64 * 1e3)
    }

    pub fn mean_real_ns(&self) -> f64 {
        crate::stats::ratio(self.real_ns as f64, self.count as f64)
    }

    pub fn mean_self_cpu_us(&self) -> f64 {
        crate::stats::ratio(self.self_cpu_ns as f64, self.count as f64 * 1e3)
    }
}

/// Aggregates spans by name; self time is a span's duration minus what
/// its direct children cover.
pub fn aggregate<'a>(spans: impl IntoIterator<Item = &'a Span>) -> BTreeMap<&'static str, SpanAgg> {
    let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.real_ns += s.real_ns;
        a.cpu_ns += s.cpu_ns;
        a.virt_ns += s.virt_ns;
        a.self_real_ns += s.real_ns.saturating_sub(s.child_real_ns);
        a.self_cpu_ns += s.cpu_ns.saturating_sub(s.child_cpu_ns);
    }
    out
}

fn object_row(i: u64) -> Row {
    Row::Object(ObjectMeta {
        pid: InodeId(i),
        name: format!("o{i}"),
        id: InodeId(i),
        size: 4096,
        blob: 0,
        ctime: 0,
        permission: Permission::ALL,
    })
}

/// Rows of one TafDB shard at the benchmark's namespace size (entries plus
/// attribute rows, spread over 8 shards), loaded before the replay.
const ENGINE_FILL_ROWS: u64 = 27_500;

/// Mean real ns of `get` over `gets` and of `put` over `puts` on a
/// standalone B-tree engine holding a shard's worth of rows plus every
/// key read.
pub fn engine_replay(gets: &[RowKey], puts: &[RowKey]) -> (f64, f64) {
    let engine = EngineKind::Btree.build::<Row>();
    for i in 0..ENGINE_FILL_ROWS {
        engine.put(
            entry_key(InodeId((1 << 40) | (i / 32)), &format!("f{i}")),
            object_row(i),
        );
    }
    for (i, k) in gets.iter().enumerate() {
        engine.put(k.clone(), object_row(i as u64));
    }
    let get_ns = if gets.is_empty() {
        0.0
    } else {
        let t = Instant::now();
        for k in gets {
            black_box(engine.get(black_box(k)));
        }
        t.elapsed().as_nanos() as f64 / gets.len() as f64
    };
    let rows: Vec<(RowKey, Row)> = puts
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), object_row(i as u64)))
        .collect();
    let put_ns = if rows.is_empty() {
        0.0
    } else {
        let n = rows.len();
        let t = Instant::now();
        for (k, v) in rows {
            black_box(engine.put(k, v));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    };
    (get_ns, put_ns)
}

/// Mean real ns of one `GroupCommitWal::append` over `records` appends
/// (0 when the workload writes nothing).
pub fn wal_replay(sim: SimConfig, records: u64) -> f64 {
    if records == 0 {
        return 0.0;
    }
    let wal = GroupCommitWal::new_scoped(sim, true, "bench");
    let t = Instant::now();
    for _ in 0..records {
        wal.append();
    }
    t.elapsed().as_nanos() as f64 / records as f64
}

/// Mean real ns of one `SimNode::rpc` with an empty body.
pub fn rpc_replay(sim: SimConfig, calls: u64) -> f64 {
    let node = SimNode::new("bench-rpc", sim.index_node_permits, sim);
    let mut ctx = RequestCtx::new();
    let t = Instant::now();
    for i in 0..calls {
        if i % 1_000_000 == 0 {
            ctx = RequestCtx::new();
        }
        node.rpc(&mut ctx, || black_box(()));
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}
