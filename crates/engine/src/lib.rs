//! TafDB's ordered-KV storage engine (DESIGN.md §4.12).
//!
//! [`BTreeEngine`] is the boundary between TafDB's shard runtime (row
//! locks, WAL, fault points, RPC modeling — all above it) and the
//! physical row organisation below it: a reader-writer lock around a
//! B-tree. Range scans hold the shared lock for the whole scan, so
//! writers wait behind long scans; hot-directory write contention is
//! handled above the engine by delta records (§5.2.1).
//!
//! The engine dumps its rows in a checkpoint **image format** (a framed,
//! checksummed row dump — byte-identical for identical rows, whatever
//! write history produced them), which WAL checkpoint records, Raft shard
//! restore and online shard migration all ship.
//!
//! The engine also self-reports *lock-wait* time: real nanoseconds threads
//! spent blocked acquiring its internal latch (fast-path `try_lock` first,
//! so the uncontended case records nothing). This is deliberately kept out
//! of the virtual-clock ledger — it is a wall-time contention measurement,
//! zero in deterministic single-threaded runs.

use std::ops::Bound;
use std::sync::Arc;

use mantle_store::RowKey;
use mantle_types::snapshot::{frame, unframe, SnapshotReader, SnapshotWriter};
use mantle_types::{InodeId, TxnId};

pub mod btree;

pub use btree::BTreeEngine;

/// A value storable by the engine: cloneable, shareable, and serializable
/// into the checkpoint image format.
pub trait EngineValue: Clone + Send + Sync + 'static {
    /// Appends this value (tag + payload) to a checkpoint image.
    fn encode(&self, w: &mut SnapshotWriter);
    /// Reads one value written by [`EngineValue::encode`].
    fn decode(r: &mut SnapshotReader<'_>) -> Self;
}

/// One mutation of an atomic write batch.
#[derive(Clone, Debug)]
pub enum WriteOp<V> {
    /// Insert or replace.
    Put(RowKey, V),
    /// Remove (a no-op if the key is absent).
    Delete(RowKey),
}

/// Serializes rows into the framed checkpoint image format: row count,
/// then `(pid, name, ts, value)` per row in the given order.
pub fn encode_image<V: EngineValue>(rows: &[(RowKey, V)]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u64(rows.len() as u64);
    for (k, v) in rows {
        write_key(&mut w, k);
        v.encode(&mut w);
    }
    frame(w.finish())
}

/// Decodes a framed checkpoint image; `None` on checksum failure (a torn
/// write).
pub fn decode_image<V: EngineValue>(framed: &[u8]) -> Option<Vec<(RowKey, V)>> {
    let image = unframe(framed)?;
    let mut r = SnapshotReader::new(image);
    let n = r.u64() as usize;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let k = read_key(&mut r);
        let v = V::decode(&mut r);
        rows.push((k, v));
    }
    Some(rows)
}

/// Number of rows in a framed checkpoint image (cheap: reads the header).
pub fn image_row_count(framed: &[u8]) -> Option<u64> {
    let image = unframe(framed)?;
    Some(SnapshotReader::new(image).u64())
}

/// Appends a row key to a checkpoint image.
pub fn write_key(w: &mut SnapshotWriter, key: &RowKey) {
    w.u64(key.pid.0);
    w.str(&key.name);
    w.u64(key.ts.0);
}

/// Reads a row key written by [`write_key`].
pub fn read_key(r: &mut SnapshotReader<'_>) -> RowKey {
    let pid = InodeId(r.u64());
    let name = r.str();
    let ts = TxnId(r.u64());
    RowKey::delta(pid, &name, ts)
}

/// Exclusive upper bound covering every key of directory `pid`.
pub fn dir_upper_bound(pid: InodeId) -> Bound<RowKey> {
    Bound::Excluded(RowKey::base(InodeId(pid.0 + 1), ""))
}

/// All rows of directory `pid` with names in `[name_from, ..)`, capped at
/// `limit` (the shape of `readdir`/`list` page scans).
pub fn scan_dir<V: EngineValue>(
    engine: &BTreeEngine<V>,
    pid: InodeId,
    name_from: &str,
    limit: usize,
) -> Vec<(RowKey, V)> {
    engine.scan_range(
        Bound::Included(RowKey::base(pid, name_from)),
        dir_upper_bound(pid),
        limit,
    )
}

/// All rows `(pid, name, *)` — the base row and every delta record of one
/// logical entry, in timestamp order.
pub fn scan_versions<V: EngineValue>(
    engine: &BTreeEngine<V>,
    pid: InodeId,
    name: &str,
) -> Vec<(RowKey, V)> {
    engine.scan_range(
        Bound::Included(RowKey::base(pid, name)),
        Bound::Included(RowKey::delta(pid, name, TxnId(u64::MAX))),
        usize::MAX,
    )
}

/// Atomic range transform over the `(pid, name, *)` version range.
pub fn update_versions<V: EngineValue>(
    engine: &BTreeEngine<V>,
    pid: InodeId,
    name: &str,
    f: impl FnOnce(&[(RowKey, V)]) -> Vec<WriteOp<V>>,
) {
    engine.update_range(
        Bound::Included(RowKey::base(pid, name)),
        Bound::Included(RowKey::delta(pid, name, TxnId(u64::MAX))),
        f,
    );
}

/// The engine a shard is built with — [`BTreeEngine`], the only one. It
/// is what TafDB's options name when they construct shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Reader-writer-locked B-tree.
    Btree,
}

impl EngineKind {
    /// Builds an engine of this kind.
    pub fn build<V: EngineValue>(self) -> Arc<BTreeEngine<V>> {
        match self {
            EngineKind::Btree => Arc::new(BTreeEngine::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EngineValue for u64 {
        fn encode(&self, w: &mut SnapshotWriter) {
            w.u64(*self);
        }
        fn decode(r: &mut SnapshotReader<'_>) -> Self {
            r.u64()
        }
    }

    fn key(pid: u64, name: &str) -> RowKey {
        RowKey::base(InodeId(pid), name)
    }

    #[test]
    fn point_ops_round_trip() {
        let e = EngineKind::Btree.build::<u64>();
        assert!(e.put(key(1, "a"), 10).is_none());
        assert_eq!(e.put(key(1, "a"), 11), Some(10));
        assert_eq!(e.get(&key(1, "a")), Some(11));
        assert!(e.contains(&key(1, "a")));
        assert!(e.put_if_absent(key(1, "b"), 2));
        assert!(!e.put_if_absent(key(1, "b"), 3));
        assert_eq!(e.len(), 2);
        assert!(e.delete(&key(1, "a")));
        assert!(!e.delete(&key(1, "a")));
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
    }

    #[test]
    fn scan_dir_and_versions_are_bounded_and_ordered() {
        let e = BTreeEngine::new();
        e.put(key(1, "a"), 1);
        e.put(key(1, "b"), 2);
        e.put(key(2, "a"), 3);
        e.put(RowKey::delta(InodeId(1), "a", TxnId(7)), 4);
        assert_eq!(scan_dir(&e, InodeId(1), "", 10).len(), 3);
        assert_eq!(scan_dir(&e, InodeId(1), "b", 10).len(), 1);
        assert_eq!(scan_dir(&e, InodeId(1), "", 1).len(), 1);
        let vs = scan_versions(&e, InodeId(1), "a");
        let ts: Vec<u64> = vs.iter().map(|(k, _)| k.ts.0).collect();
        assert_eq!(ts, vec![0, 7]);
    }

    /// Migration and Raft restore ship images between shards whose write
    /// histories differ: two engines holding the same rows must emit the
    /// same bytes, however they got there.
    #[test]
    fn checkpoint_images_depend_only_on_rows() {
        let a = BTreeEngine::new();
        a.put(key(1, "a"), 1);
        a.put(key(1, "b"), 2);
        a.put(key(1, "b"), 20);
        a.delete(&key(1, "a"));
        a.put(key(3, "z"), 9);

        let b = BTreeEngine::new();
        b.apply(vec![
            WriteOp::Put(key(3, "z"), 9),
            WriteOp::Put(key(2, "gone"), 5),
            WriteOp::Put(key(1, "b"), 20),
        ]);
        b.delete(&key(2, "gone"));

        assert_eq!(a.checkpoint(), b.checkpoint());
        let filtered = |e: &BTreeEngine<u64>| e.checkpoint_filtered(|k| k.pid == InodeId(1));
        assert_eq!(filtered(&a), filtered(&b));
        assert_ne!(filtered(&a), a.checkpoint());
    }

    #[test]
    fn restore_rejects_torn_images() {
        let e = BTreeEngine::new();
        e.put(key(1, "a"), 1);
        e.put(key(2, "b"), 2);
        let mut img = e.checkpoint();
        let restored = e.restore(&img).expect("intact image restores");
        assert_eq!(restored.len(), 2);
        let last = img.len() - 1;
        img[last] ^= 0xFF;
        assert!(e.restore(&img).is_none());
        assert_eq!(e.len(), 2, "torn restore must leave contents intact");
    }

    #[test]
    fn update_range_is_atomic_fold() {
        let e = BTreeEngine::new();
        e.put(key(5, "/_ATTR"), 100);
        e.put(RowKey::delta(InodeId(5), "/_ATTR", TxnId(1)), 1);
        e.put(RowKey::delta(InodeId(5), "/_ATTR", TxnId(2)), 2);
        e.put(key(5, "other"), 7);
        let mut seen = 0;
        update_versions(&e, InodeId(5), "/_ATTR", |rows| {
            seen = rows.len();
            let sum: u64 = rows.iter().map(|(_, v)| v).sum();
            let mut ops = vec![WriteOp::Put(key(5, "/_ATTR"), sum)];
            ops.extend(
                rows.iter()
                    .filter(|(k, _)| k.ts != TxnId::BASE)
                    .map(|(k, _)| WriteOp::Delete(k.clone())),
            );
            ops
        });
        assert_eq!(seen, 3);
        assert_eq!(e.get(&key(5, "/_ATTR")), Some(103));
        assert_eq!(scan_versions(&e, InodeId(5), "/_ATTR").len(), 1);
        assert_eq!(e.get(&key(5, "other")), Some(7));
    }
}
