//! Timing constants of the simulated substrate.
//!
//! The paper evaluates on a 53-server cluster with a 25 Gbps network and
//! NVMe SSDs. This reproduction replaces the hardware with injected delays
//! (see DESIGN.md §1): every cross-node RPC costs one network round trip,
//! every durable Raft append costs one fsync, and every data-service access
//! costs one device access. Unit tests run with [`SimConfig::instant`] so
//! the suite stays fast; the figure harnesses use [`SimConfig::default`].

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Scaled-down TafDB shard count used across the workspace.
///
/// The paper deploys 18 TafDB servers; this reproduction scales the cluster
/// to 8 shards (DESIGN.md §1). `TafDbOptions::default`, the LocoFS and
/// InfiniFS baselines, and the bench harnesses all derive their shard count
/// from this constant so tests and figures cannot silently diverge.
pub const SCALED_DB_SHARDS: usize = 8;

/// Knobs of the TafDB placement controller (dynamic shard management).
///
/// With `dynamic_shards` off (the default) the shard map stays at its
/// initial uniform range partition and routing is bit-identical to the
/// historical fixed hash — every existing latency pin and RPC-count test
/// is unaffected. Turning it on starts a background controller thread that
/// splits hot ranges, migrates them to the least-loaded shard and merges
/// cold neighbours (DESIGN.md §5.6).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Run the background placement controller (split/merge/migrate).
    pub dynamic_shards: bool,
    /// Controller tick interval, in milliseconds (wall time: the controller
    /// is a control-plane loop, not part of the simulated data path).
    pub rebalance_interval_ms: u64,
    /// Max/mean shard busy-time ratio above which the controller acts on
    /// the hottest shard.
    pub imbalance_threshold: f64,
    /// Upper bound on shard-map ranges; beyond it the controller prefers
    /// merging cold neighbours over further splits.
    pub max_ranges: usize,
    /// Rows copied per WAL-logged migration batch.
    pub migration_batch: usize,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            dynamic_shards: false,
            rebalance_interval_ms: 10,
            imbalance_threshold: 1.5,
            max_ranges: 64,
            migration_batch: 256,
        }
    }
}

impl PlacementConfig {
    /// Placement with the background controller enabled.
    pub fn dynamic() -> Self {
        PlacementConfig {
            dynamic_shards: true,
            ..PlacementConfig::default()
        }
    }
}

/// Timing and capacity parameters of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// One network round trip between proxy and a metadata server, in
    /// microseconds. Default 200 µs (datacenter RPC incl. software stack).
    pub rtt_micros: u64,
    /// One fsync of the Raft log / DB WAL, in microseconds. Default 100 µs
    /// (NVMe flush).
    pub fsync_micros: u64,
    /// One data-service (SSD) access, in microseconds (§3: "a single RPC
    /// plus tens of microseconds for device access"). Default 50 µs.
    pub device_micros: u64,
    /// CPU service time a metadata server spends per request, in
    /// microseconds. Charged while holding a node capacity permit.
    pub service_micros: u64,
    /// Extra CPU time the IndexNode spends per path level resolved through
    /// the IndexTable, in microseconds. This is what makes deep uncached
    /// resolutions CPU-bound (§5.1: "the single-RPC lookup still breaks
    /// down into several local accesses") and what the TopDirPathCache
    /// saves (Figures 16 and 18).
    pub index_level_micros: u64,
    /// Request-execution permits per sharded-DB node (models a 32-core
    /// server, scaled down).
    pub db_node_permits: usize,
    /// Request-execution permits for single "big" nodes (IndexNode leader,
    /// LocoFS directory server, InfiniFS rename coordinator; the paper gives
    /// these 64-core machines).
    pub index_node_permits: usize,
    /// Admission-queue depth cap per simulated node. `0` (the default)
    /// means unbounded queueing — the pre-admission-control behaviour.
    /// When non-zero, a node sheds requests with `MetaError::Overloaded`
    /// once its modeled backlog reaches the cap (DESIGN.md §4.14).
    pub queue_cap: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rtt_micros: 200,
            fsync_micros: 100,
            device_micros: 50,
            service_micros: 5,
            index_level_micros: 2,
            db_node_permits: 16,
            index_node_permits: 8,
            queue_cap: 0,
        }
    }
}

impl SimConfig {
    /// A configuration with all injected delays set to zero and effectively
    /// unbounded node capacity — used by unit and property tests.
    pub fn instant() -> Self {
        SimConfig {
            rtt_micros: 0,
            fsync_micros: 0,
            device_micros: 0,
            service_micros: 0,
            index_level_micros: 0,
            db_node_permits: usize::MAX,
            index_node_permits: usize::MAX,
            queue_cap: 0,
        }
    }

    /// A configuration with small but non-zero delays, for integration
    /// tests that need timing-sensitive behaviour without full-scale cost.
    pub fn fast() -> Self {
        SimConfig {
            rtt_micros: 20,
            fsync_micros: 10,
            device_micros: 5,
            service_micros: 1,
            index_level_micros: 1,
            db_node_permits: 16,
            index_node_permits: 32,
            queue_cap: 0,
        }
    }

    /// The network round-trip delay.
    pub fn rtt(&self) -> Duration {
        Duration::from_micros(self.rtt_micros)
    }

    /// The fsync delay.
    pub fn fsync(&self) -> Duration {
        Duration::from_micros(self.fsync_micros)
    }

    /// The storage-device access delay.
    pub fn device(&self) -> Duration {
        Duration::from_micros(self.device_micros)
    }

    /// The per-request CPU service time.
    pub fn service(&self) -> Duration {
        Duration::from_micros(self.service_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_config_has_no_delays() {
        let c = SimConfig::instant();
        assert_eq!(c.rtt(), Duration::ZERO);
        assert_eq!(c.fsync(), Duration::ZERO);
        assert_eq!(c.device(), Duration::ZERO);
    }

    #[test]
    fn queue_cap_defaults_to_unbounded() {
        assert_eq!(SimConfig::default().queue_cap, 0);
        assert_eq!(SimConfig::instant().queue_cap, 0);
        assert_eq!(SimConfig::fast().queue_cap, 0);
    }

    #[test]
    fn default_matches_design_doc() {
        let c = SimConfig::default();
        assert_eq!(c.rtt_micros, 200);
        assert_eq!(c.fsync_micros, 100);
        assert_eq!(c.device_micros, 50);
        assert_eq!(c.index_node_permits, 8);
    }
}
