//! Common types shared by every crate in the Mantle reproduction.
//!
//! This crate defines the vocabulary of the system described in the paper
//! *Mantle: Efficient Hierarchical Metadata Management for Cloud Object
//! Storage Services* (SOSP '25):
//!
//! * [`id`] — identifiers for directories, objects, transactions and client
//!   requests.
//! * [`MetaPath`] — normalized hierarchical paths with the prefix and
//!   truncation operations the IndexNode needs (§5.1.1).
//! * [`perm::Permission`] — permission masks and the Lazy-Hybrid style
//!   aggregated path permission.
//! * [`record`] — the access/attribute metadata split of §4 (Figure 6).
//! * [`MetaError`] — the error surface of every metadata service.
//! * [`OpStats`] — per-operation phase accounting (lookup / loop detection /
//!   execution) used to regenerate the latency-breakdown figures.
//! * [`hist::Histogram`] — log-bucketed latency histogram for the CDF
//!   figures.
//! * [`SimConfig`] — timing constants of the simulated substrate.
//! * [`clock`] — the pluggable wall/virtual simulation clock every
//!   injected delay and timestamp flows through.
//! * [`service::MetadataService`] — the operation set every evaluated system
//!   (Mantle, Tectonic, InfiniFS, LocoFS) implements.

pub mod clock;
pub mod config;
pub mod ctx;
pub mod error;
pub mod hist;
pub mod id;
pub mod path;
pub mod perm;
pub mod record;
pub mod service;
pub mod snapshot;
pub mod stats;

pub use clock::{ClockMode, SimInstant, TimeCategory, TimeStats};
pub use config::{PlacementConfig, SimConfig, SCALED_DB_SHARDS};
pub use ctx::RequestCtx;
pub use error::{MetaError, Result};
pub use id::{ClientUuid, InodeId, TxnId, ROOT_ID, ROOT_PARENT_ID};
pub use path::MetaPath;
pub use perm::Permission;
pub use record::{
    AttrDelta,
    DirAccessMeta,
    DirAttrMeta,
    DirEntry,
    DirStat,
    EntryKind,
    LeasedPath,
    ObjectMeta,
    ResolvedPath, //
};
pub use service::{BulkLoad, MetadataService};
pub use stats::{OpStats, OpStatsAgg, Phase, RetryClass};
