//! Simulated datacenter substrate.
//!
//! The paper evaluates on a 53-server cluster. This crate replaces that
//! hardware with in-process [`SimNode`]s (DESIGN.md §1):
//!
//! * an RPC to a node costs one injected network round trip
//!   ([`SimConfig::rtt_micros`]) — the quantity every lookup-latency figure
//!   in the paper is really measuring (Table 1 counts RTTs);
//! * each node owns a bounded permit pool (its "cores"); requests hold a
//!   permit for the injected service time plus their real compute, so a
//!   saturated node produces genuine queueing delay — the effect behind the
//!   single-node ceilings of Figures 12, 14 and 19b;
//! * every RPC is counted into the caller's [`mantle_types::OpStats`] so
//!   harnesses can report RPCs per operation.
//!
//! Durability (fsync) and storage-device delays are provided as free
//! functions used by the Raft log and the data service.

pub mod faults;
pub mod node;
pub mod retry;

pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultProfile, FaultSlot, RpcFault};
pub use node::{NodeSnapshot, SimNode};
pub use retry::{classify_failover, classify_rename, classify_txn, Pacing, RetryPolicy};

use std::time::Duration;

use mantle_types::clock::{self, TimeCategory};
use mantle_types::SimConfig;

/// Advances simulated time by `d` (categorized as
/// [`TimeCategory::Other`]), skipping the charge entirely for zero
/// durations (the unit-test configuration). Under the default virtual
/// clock this costs no wall time; with `MANTLE_WALL_CLOCK=1` it really
/// sleeps.
#[inline]
pub fn inject_delay(d: Duration) {
    if !d.is_zero() {
        clock::sleep(d);
    }
}

/// Like [`inject_delay`] but attributed to an explicit [`TimeCategory`]
/// so the per-thread ledger can reproduce Table 1's closed-form latency
/// decomposition. Zero durations are still *counted* (an RPC with a zero
/// RTT is still an RPC) but advance no time.
#[inline]
pub fn inject_delay_as(cat: TimeCategory, d: Duration) {
    clock::sleep_as(cat, d);
}

/// Injects one network round trip.
#[inline]
pub fn net_round_trip(config: &SimConfig) {
    inject_delay_as(TimeCategory::Rtt, config.rtt());
}

/// Injects one log/WAL fsync.
#[inline]
pub fn fsync(config: &SimConfig) {
    inject_delay_as(TimeCategory::Fsync, config.fsync());
}

/// Injects one storage-device (SSD) access.
#[inline]
pub fn device_access(config: &SimConfig) {
    inject_delay_as(TimeCategory::Device, config.device());
}

/// Injects one unit of per-request CPU service time on a node.
#[inline]
pub fn service_time(config: &SimConfig) {
    inject_delay_as(TimeCategory::Service, config.service());
}
