//! Raft consensus for the IndexNode replication group (§4, §5.1.3, §5.2.3).
//!
//! Mantle replicates every IndexNode update through a Raft group so that the
//! single-node directory index stays available; this crate implements the
//! protocol pieces the paper's optimizations build on:
//!
//! * **Log batching** (§5.2.3): follower/leader durability goes through a
//!   group-commit WAL; concurrent proposals share one injected fsync, and
//!   an `AppendEntries` RPC carrying a batch of entries pays one flush.
//!   Disabling [`RaftOptions::log_batching`] reproduces the Figure 16
//!   `+raftlogbatch` ablation baseline.
//! * **Follower reads via ReadIndex** (§5.1.3): a follower asks the leader
//!   for the latest `commitIndex`, waits until its local `applyIndex`
//!   catches up, and then serves the read locally. Concurrent queries are
//!   batched ([`batcher::CommitIndexBatcher`]) "to minimize the overhead
//!   imposed on the leader". The reply is a [`CommitPoint`]
//!   `(index, term)`: a follower whose log holds that entry commits the
//!   index itself instead of waiting for the next AppendEntries, and a new
//!   leader answers only once its term-start barrier has applied
//!   (DESIGN.md §4.15).
//! * **Learner replicas** (§5.1.3): non-voting members that receive the log
//!   and serve ReadIndex reads, adding read capacity without growing the
//!   quorum.
//! * **Leader election and failover** (§5.3): replicas time out on missing
//!   heartbeats, campaign, and the group re-elects; killed replicas keep
//!   their (simulated-durable) log and can rejoin.
//! * **Snapshotting and log compaction** (DESIGN.md §4.11): the apply
//!   thread periodically captures a [`StateMachine::snapshot`] (by applied
//!   count and by log-bytes watermark), acknowledges it with a WAL
//!   checkpoint record, and truncates the log prefix. A follower whose next
//!   entry was compacted away receives the snapshot via `InstallSnapshot`
//!   (Raft §7), and `recover()` restores the latest known-good snapshot plus
//!   the log suffix — O(snapshot + suffix) instead of O(history). Crashes
//!   during snapshot write or install abort cleanly: the previous snapshot
//!   stays authoritative (same discard-on-abort discipline as TafDB shard
//!   migration).
//!
//! The "network" between replicas is direct method calls with injected
//! round-trip delays, and each replica's handlers execute inside its
//! [`mantle_rpc::SimNode`] capacity envelope — see DESIGN.md §1.

pub mod batcher;
pub mod group;
pub mod log;
pub mod replica;

pub use batcher::{CommitIndexBatcher, CommitPoint};
pub use group::RaftGroup;
pub use log::LogEntry;
pub use replica::{RaftError, RaftOptions, RaftReplica, Role, StateMachine};
