//! TafDB: the scalable, sharded metadata database (§4, §5.2.1).
//!
//! TafDB stores *all* metadata of every namespace as one logical table
//! keyed `(pid, name, ts)` and partitioned by `pid` across shards, each
//! shard living on its own simulated server. It provides:
//!
//! * **single-shard reads** — entry lookups, `dirstat` (merging delta
//!   records), `readdir` — each one proxy RPC to the owning shard;
//! * **distributed transactions** — two-phase commit with no-wait row
//!   locking; conflicting transactions abort and retry, which is the
//!   contention behaviour the paper measures (§3.2, Figure 4b);
//! * **delta records** (§5.2.1) — under sustained contention on a
//!   directory's attribute row, in-place updates are replaced by
//!   conflict-free appends keyed `(dir, "/_ATTR", ts_txn)`; a background
//!   compactor folds them into the base row under a shared latch;
//! * **blocking latched updates** — the serialized parent-attribute update
//!   used by the Tectonic and LocoFS baselines (§6.3: "modifications to the
//!   parent directory's attribute are serialized by a latch");
//! * **dynamic shard splitting** (§5.3) — an epoch-versioned, range-
//!   partitioned [`ShardMap`] replaces the fixed `pid` hash; a placement
//!   controller observes per-shard busy time, splits hot ranges (down to
//!   *within* a single hot directory), migrates them to cold shards under a
//!   short write quiescence, and merges cold neighbours back. Stale routing
//!   snapshots are rejected with `MetaError::StaleRoute` and retried after
//!   a map refresh;
//! * **one storage engine** (DESIGN.md §4.12) — each shard's rows live in
//!   a [`mantle_engine::BTreeEngine`], a reader-writer-locked B-tree that
//!   also produces the checkpoint images snapshots and migration ship.
//!
//! The implementation is layered accordingly: [`db`] (core + options),
//! `shard` (per-shard runtime), `router` (map routing + reads), `exec`
//! (transactions), and `migrate` (placement plane).

pub mod db;
mod exec;
mod metrics;
mod migrate;
mod router;
pub mod schema;
mod shard;
pub mod shardmap;
pub mod txn;

pub use db::{DbCounters, TafDb, TafDbOptions};
pub use mantle_engine::EngineKind;
pub use schema::{attr_key, entry_key, Row};
pub use shardmap::{dir_region, place_of, ShardMap};
pub use txn::{Prepared, TxnOp};
