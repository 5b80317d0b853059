//! The storage engine: a reader-writer lock around a B-tree.
//!
//! This is the historical TafDB shard structure, preserved exactly:
//! critical sections clone in and clone out, and a range scan holds the
//! shared lock for the whole scan — which is why writers stall behind
//! `readdir` of a large directory. The only addition is lock-wait
//! accounting on the slow path.
//!
//! Thread safety: every method is `&self` and atomic. Transaction-level
//! isolation (row locks, 2PC) lives above the engine, in the TafDB shard
//! runtime; scans return a consistent point-in-time view.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use mantle_store::RowKey;

use crate::{decode_image, encode_image, EngineValue, WriteOp};

/// Reader-writer-locked B-tree engine backing every TafDB shard.
pub struct BTreeEngine<V> {
    map: RwLock<BTreeMap<RowKey, V>>,
    /// Real nanoseconds threads spent blocked acquiring `map`.
    wait_nanos: AtomicU64,
    /// Number of blocked acquisitions behind `wait_nanos`.
    waits: AtomicU64,
}

impl<V> Default for BTreeEngine<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BTreeEngine<V> {
    /// Creates an empty engine.
    pub fn new() -> Self {
        BTreeEngine {
            map: RwLock::new(BTreeMap::new()),
            wait_nanos: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    fn record_wait(&self, start: Instant) {
        self.wait_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.waits.fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<RowKey, V>> {
        if let Some(g) = self.map.try_read() {
            return g;
        }
        let start = Instant::now();
        let g = self.map.read();
        self.record_wait(start);
        g
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<RowKey, V>> {
        if let Some(g) = self.map.try_write() {
            return g;
        }
        let start = Instant::now();
        let g = self.map.write();
        self.record_wait(start);
        g
    }

    /// Real nanoseconds threads spent blocked on the engine's latch
    /// (scan-vs-write contention; zero when uncontended).
    pub fn lock_wait_nanos(&self) -> u64 {
        self.wait_nanos.load(Ordering::Relaxed)
    }

    /// Number of blocked latch acquisitions behind the nanos above.
    pub fn lock_waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the engine holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: EngineValue> BTreeEngine<V> {
    /// Reads the row at `key`.
    pub fn get(&self, key: &RowKey) -> Option<V> {
        self.read().get(key).cloned()
    }

    /// Whether a row exists at `key`.
    pub fn contains(&self, key: &RowKey) -> bool {
        self.read().contains_key(key)
    }

    /// Inserts or replaces a row, returning the previous value.
    pub fn put(&self, key: RowKey, value: V) -> Option<V> {
        self.write().insert(key, value)
    }

    /// Inserts a row only if absent; returns `false` (without writing)
    /// when the key already exists.
    pub fn put_if_absent(&self, key: RowKey, value: V) -> bool {
        let mut map = self.write();
        if map.contains_key(&key) {
            return false;
        }
        map.insert(key, value);
        true
    }

    /// Removes a row; returns whether it existed.
    pub fn delete(&self, key: &RowKey) -> bool {
        self.write().remove(key).is_some()
    }

    /// Atomic read-modify-write of one row. `f` sees the current value and
    /// returns `(next value — None deletes, caller result)`; the caller
    /// result is returned.
    pub fn update(&self, key: &RowKey, f: impl FnOnce(Option<&V>) -> (Option<V>, bool)) -> bool {
        let mut map = self.write();
        let (next, out) = f(map.get(key));
        match next {
            Some(v) => {
                map.insert(key.clone(), v);
            }
            None => {
                map.remove(key);
            }
        }
        out
    }

    /// Applies puts and deletes as one atomic batch: a concurrent scan
    /// sees all of the batch or none of it.
    pub fn apply(&self, batch: Vec<WriteOp<V>>) {
        apply_ops(&mut self.write(), batch);
    }

    /// Up to `limit` rows with keys in the given bounds, in key order,
    /// from one consistent point-in-time view.
    pub fn scan_range(
        &self,
        lo: Bound<RowKey>,
        hi: Bound<RowKey>,
        limit: usize,
    ) -> Vec<(RowKey, V)> {
        self.read()
            .range((lo, hi))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Atomic range transform: `f` sees every row in the bounds (key
    /// order) and returns mutations applied atomically with the read —
    /// "fold these delta records into the base row invisibly to
    /// concurrent scans".
    pub fn update_range(
        &self,
        lo: Bound<RowKey>,
        hi: Bound<RowKey>,
        f: impl FnOnce(&[(RowKey, V)]) -> Vec<WriteOp<V>>,
    ) {
        let mut map = self.write();
        let rows: Vec<(RowKey, V)> = map
            .range((lo, hi))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        apply_ops(&mut map, f(&rows));
    }

    /// Every row in key order — one consistent snapshot.
    pub fn export_rows(&self) -> Vec<(RowKey, V)> {
        self.read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Serializes the rows selected by `keep` into a framed, checksummed
    /// checkpoint image — one consistent snapshot (DESIGN.md §4.11). The
    /// bytes depend only on the rows, never on the write history that
    /// produced them.
    pub fn checkpoint_filtered(&self, keep: impl Fn(&RowKey) -> bool) -> Vec<u8> {
        let rows: Vec<(RowKey, V)> = self
            .export_rows()
            .into_iter()
            .filter(|(k, _)| keep(k))
            .collect();
        encode_image(&rows)
    }

    /// Serializes every row into a framed checkpoint image.
    pub fn checkpoint(&self) -> Vec<u8> {
        encode_image(&self.export_rows())
    }

    /// Replaces the contents from a checkpoint image. Returns the restored
    /// rows, or `None` — leaving the engine untouched — when the image is
    /// torn (fails checksum validation).
    pub fn restore(&self, framed: &[u8]) -> Option<Vec<(RowKey, V)>> {
        let rows = decode_image::<V>(framed)?;
        let mut map = self.write();
        map.clear();
        map.extend(rows.iter().cloned());
        Some(rows)
    }
}

fn apply_ops<V>(map: &mut BTreeMap<RowKey, V>, ops: Vec<WriteOp<V>>) {
    for op in ops {
        match op {
            WriteOp::Put(k, v) => {
                map.insert(k, v);
            }
            WriteOp::Delete(k) => {
                map.remove(&k);
            }
        }
    }
}
