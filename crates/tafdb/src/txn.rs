//! Transaction operations and prepared state for two-phase commit.

use mantle_store::RowKey;
use mantle_types::{AttrDelta, InodeId, TxnId};

use crate::schema::Row;

/// A logical operation inside a TafDB transaction.
///
/// Operations are validated (and their row locks acquired, no-wait) during
/// the prepare phase, in the order given; writes apply atomically at commit.
#[derive(Clone, Debug)]
pub enum TxnOp {
    /// Insert a row that must not already exist (entry/object creation).
    InsertUnique {
        /// Row key.
        key: RowKey,
        /// Row payload.
        row: Row,
    },
    /// Unconditional insert/replace.
    Put {
        /// Row key.
        key: RowKey,
        /// Row payload.
        row: Row,
    },
    /// Delete a row that must exist. Deleting a directory's attribute row
    /// also retires any remaining delta records of that directory.
    Delete {
        /// Row key.
        key: RowKey,
    },
    /// Assert a row exists (takes a shared lock so it cannot vanish before
    /// commit).
    ExpectExists {
        /// Row key.
        key: RowKey,
    },
    /// Assert directory `dir` has no live children (rmdir precondition);
    /// must be ordered *after* an exclusive-locking op on the directory's
    /// attribute row so concurrent creations are excluded.
    ExpectEmptyDir {
        /// Directory id.
        dir: InodeId,
    },
    /// Apply an attribute change to directory `dir`'s attribute row.
    ///
    /// Contention-adaptive (§5.2.1): on a cold directory this takes an
    /// exclusive lock and merges in place; on a hot directory it takes a
    /// *shared* lock and appends a conflict-free delta record instead.
    AttrUpdate {
        /// Directory whose attributes change.
        dir: InodeId,
        /// Signed attribute delta.
        delta: AttrDelta,
    },
}

/// A concrete write planned during prepare, applied at commit.
#[derive(Clone, Debug)]
pub(crate) enum WriteCmd {
    Put(RowKey, Row),
    /// Delete `key`; when it is an attribute row, also delete the
    /// directory's delta records (under the compaction latch).
    Delete(RowKey),
    /// Merge `delta` into the base attribute row (in-place mode; the row is
    /// exclusively locked from prepare through commit).
    MergeAttr(RowKey, AttrDelta),
    /// Append a delta record (hot-directory mode).
    AppendDelta(InodeId, TxnId, AttrDelta),
    /// Delete every delta record of `dir` stored on the executing shard —
    /// the rmdir companion op sent to region owners other than the one
    /// holding the base attribute row (the base owner's `Delete` retires
    /// its local deltas itself).
    PurgeDeltas(InodeId),
}

/// Per-shard prepared state.
#[derive(Debug)]
pub(crate) struct ShardPrepared {
    pub shard: usize,
    pub locks: Vec<RowKey>,
    /// Locks held on *other* shards' lock managers on this group's behalf:
    /// the hot-append fence on the base attribute row lives at the base
    /// owner even when the delta record routes elsewhere. Modeled as a
    /// colocated lock service, so acquiring one costs no extra RPC.
    pub remote_locks: Vec<(usize, RowKey)>,
    pub writes: Vec<WriteCmd>,
}

/// A successfully prepared transaction, ready to commit or abort.
///
/// Dropping a `Prepared` without committing leaks its row locks; always
/// pass it back to [`crate::TafDb::commit`] or [`crate::TafDb::abort`].
#[derive(Debug)]
pub struct Prepared {
    pub(crate) txn: TxnId,
    pub(crate) shards: Vec<ShardPrepared>,
}

impl Prepared {
    /// The transaction's timestamp.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Number of shards participating (2PC fan-out).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }
}
