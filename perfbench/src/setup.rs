//! Cluster construction from an explicit configuration, and the bulk load.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use mantle_core::{DataService, MantleCluster, MantleConfig, PathLeaseConfig};
use mantle_index::IndexOptions;
use mantle_raft::RaftOptions;
use mantle_tafdb::{EngineKind, TafDb, TafDbOptions};
use mantle_types::config::PlacementConfig;
use mantle_types::id::IdAllocator;
use mantle_types::{BulkLoad, InodeId, MetaPath, SimConfig, ROOT_ID};
use mantle_workloads::namespace::{NamespaceHandle, NamespaceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{job_out, job_tmp, Gen, Namespace, StatSampler, Workload, CLIENTS};
use crate::workload::{OPS_PER_TASK, TASKS_PER_JOB};

/// Entries in the bulk-loaded namespace (Figure 3 shape at laptop scale).
pub const NS_ENTRIES: usize = 200_000;
/// Depth of the directory the write workloads work under: the namespace's
/// mean, so their lookups walk a production-deep path, and fixed, so the
/// per-op path cost does not change with the seed.
const WORK_DIR_DEPTH: usize = 10;

/// The full cluster configuration, spelled out so no constructor consults
/// the environment.
pub fn config(workload: Workload) -> MantleConfig {
    MantleConfig {
        sim: SimConfig {
            rtt_micros: 200,
            fsync_micros: 100,
            device_micros: 50,
            service_micros: 5,
            index_level_micros: 2,
            db_node_permits: 16,
            index_node_permits: 8,
            queue_cap: 0,
        },
        index: IndexOptions {
            k: 3,
            path_cache: true,
            follower_reads: workload.follower_reads(),
            voters: 3,
            learners: 0,
            raft: RaftOptions {
                log_batching: true,
                heartbeat_interval: Duration::from_millis(20),
                election_timeout_min: Duration::from_millis(150),
                election_timeout_max: Duration::from_millis(300),
                max_batch: 16,
                snapshot_every: 1024,
                log_watermark_bytes: 4 << 20,
                snapshot_keep_entries: 64,
            },
            invalidator_poll: Duration::from_millis(1),
            root: ROOT_ID,
        },
        db: TafDbOptions {
            n_shards: 8,
            engine: EngineKind::Btree,
            delta_records: true,
            delta_abort_threshold: 3,
            hot_window: Duration::from_millis(100),
            hot_ttl: Duration::from_secs(2),
            compact_interval: Duration::from_millis(20),
            group_commit: true,
            max_txn_retries: 10_000,
            placement: PlacementConfig {
                dynamic_shards: false,
                rebalance_interval_ms: 10,
                imbalance_threshold: 1.5,
                max_ranges: 64,
                migration_batch: 256,
            },
        },
        data_nodes: 4,
        rename_retries: 10_000,
        unavailable_retries: 600,
        amcache: false,
        pcache: PathLeaseConfig {
            enabled: workload.path_cache(),
            capacity: 16_384,
            lease_ttl: Duration::from_millis(500),
            negative_ttl: Duration::from_millis(50),
        },
    }
}

/// A built, loaded cluster plus what the generators and checks need.
pub struct Bench {
    pub cluster: Arc<MantleCluster>,
    /// The cluster's inode allocator (the layer pass allocates from it).
    pub ids: Arc<IdAllocator>,
    pub ns: Arc<Namespace>,
    /// `ingest`: each client's parent directory.
    pub parents: Vec<MetaPath>,
    /// `spark-commit`: the directory holding the jobs.
    pub spark_root: MetaPath,
    /// `spark-commit`: jobs pre-created.
    pub jobs: u64,
}

/// Forwards the bulk load to the cluster and keeps each object's size.
struct SizeRecorder<'a> {
    cluster: &'a MantleCluster,
    sizes: RefCell<Vec<u64>>,
}

impl BulkLoad for SizeRecorder<'_> {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        self.cluster.bulk_dir(path)
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        self.sizes.borrow_mut().push(size);
        self.cluster.bulk_object(path, size);
    }
}

/// Builds a cluster for `workload`, bulk-loads the seed's namespace and
/// the workload's working directories, and waits for an IndexNode leader.
/// `max_ops_per_client` sizes the `spark-commit` job directories.
pub fn build(workload: Workload, seed: u64, max_ops_per_client: u64) -> Bench {
    let config = config(workload);
    let ids = Arc::new(IdAllocator::new());
    let cluster = MantleCluster::with_shared(
        config,
        TafDb::new(config.sim, config.db),
        Arc::new(DataService::new(config.sim, config.data_nodes)),
        Arc::clone(&ids),
        ROOT_ID,
    );
    let spec = NamespaceSpec {
        name: "bench",
        entries: NS_ENTRIES,
        object_fraction: 0.9,
        mean_depth: 10.6,
        depth_stddev: 3.0,
        max_depth: 95,
        small_object_fraction: 0.5,
        paper_entries: 0.0,
        seed,
    };
    let recorder = SizeRecorder {
        cluster: &cluster,
        sizes: RefCell::new(Vec::new()),
    };
    let handle = NamespaceHandle::populate(&recorder, spec);
    let sizes = recorder.sizes.into_inner();
    assert_eq!(sizes.len(), handle.objects.len());
    let ns = Arc::new(Namespace {
        objects: handle.objects.into_iter().zip(sizes).collect(),
        dirs: handle.dirs,
    });

    // Working directories hang under a seed-chosen directory.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a_0002);
    let deep: Vec<&MetaPath> = ns
        .dirs
        .iter()
        .filter(|d| d.depth() == WORK_DIR_DEPTH)
        .collect();
    let base = deep[rng.gen_range(0..deep.len())].clone();
    let mut parents = Vec::new();
    let spark_root = base.child("spark");
    let mut jobs = 0;
    match workload {
        Workload::StatZipf => {}
        Workload::Ingest => {
            for c in 0..CLIENTS {
                let p = base.child(&format!("ingest-c{c}"));
                cluster.bulk_dir(&p);
                parents.push(p);
            }
        }
        Workload::SparkCommit => {
            jobs = max_ops_per_client / OPS_PER_TASK / TASKS_PER_JOB + 1;
            for j in 0..jobs {
                for c in 0..CLIENTS {
                    cluster.bulk_dir(&job_tmp(&spark_root, j, c));
                }
                cluster.bulk_dir(&job_out(&spark_root, j));
            }
        }
    }
    cluster
        .index()
        .group()
        .await_leader(Duration::from_secs(10))
        .expect("IndexNode elects a leader");
    Bench {
        cluster,
        ids,
        ns,
        parents,
        spark_root,
        jobs,
    }
}

impl Bench {
    /// One generator per client; the same `(workload, seed)` always yields
    /// the same streams.
    pub fn generators(&self, workload: Workload, seed: u64) -> Vec<Gen> {
        let sampler = (workload == Workload::StatZipf)
            .then(|| Arc::new(StatSampler::new(self.ns.clone(), seed)));
        (0..CLIENTS)
            .map(|c| match workload {
                Workload::StatZipf => Gen::Stat {
                    sampler: Arc::clone(sampler.as_ref().expect("built above")),
                    rng: StdRng::seed_from_u64(seed.wrapping_mul(1_000_003) + c as u64),
                },
                Workload::Ingest => Gen::Ingest {
                    parent: self.parents[c].clone(),
                    seq: 0,
                    seed: seed ^ ((c as u64) << 56),
                },
                Workload::SparkCommit => Gen::Spark {
                    root: self.spark_root.clone(),
                    client: c,
                    seq: 0,
                    seed,
                },
            })
            .collect()
    }
}
