//! The three workloads and their seeded, per-client op generators.
//!
//! Every generator is a pure function of `(seed, client, sequence number)`
//! plus the namespace built from the same seed, so a pass can be replayed
//! op for op on a second, identically built cluster.

use std::sync::Arc;

use mantle_types::MetaPath;
use mantle_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Closed-loop clients (one OS thread each).
pub const CLIENTS: usize = 2;
/// Zipf exponent of `stat-zipf` (production metadata skew).
const ZIPF_S: f64 = 0.9;
/// `ingest`: one op in this many is a mkdir, the rest are creates.
const MKDIR_EVERY: u64 = 10;
/// `spark-commit`: part objects per task.
pub const PARTS: u64 = 4;
/// `spark-commit`: tasks each client runs per job (per output dir).
pub const TASKS_PER_JOB: u64 = 64;
/// `spark-commit`: ops per task (mkdir, parts, rename, part stats, readdir).
pub const OPS_PER_TASK: u64 = 2 * PARTS + 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only Zipf stats over the production-shaped namespace.
    StatZipf,
    /// Per-client creates with a mkdir every tenth op.
    Ingest,
    /// Spark commit-by-rename into shared output dirs, then reads.
    SparkCommit,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "stat-zipf" => Some(Workload::StatZipf),
            "ingest" => Some(Workload::Ingest),
            "spark-commit" => Some(Workload::SparkCommit),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StatZipf => "stat-zipf",
            Workload::Ingest => "ingest",
            Workload::SparkCommit => "spark-commit",
        }
    }

    /// Ops per real second this workload sustained when the benchmark was
    /// defined (2-core x86-64 container). Used only to size a pass so it
    /// lasts about `--seconds`; the pass itself is a fixed op count, so two
    /// commits always do the same work.
    pub fn nominal_ops_per_s(self) -> u64 {
        match self {
            Workload::StatZipf => 200_000,
            Workload::Ingest => 1_000,
            Workload::SparkCommit => 30_000,
        }
    }

    /// Whether IndexNode followers serve lookups (after a ReadIndex round).
    pub fn follower_reads(self) -> bool {
        self != Workload::SparkCommit
    }

    /// Whether the client-side path-lease cache is on.
    pub fn path_cache(self) -> bool {
        self == Workload::SparkCommit
    }
}

/// One metadata operation, with what a correct reply must contain.
#[derive(Clone, Debug)]
pub enum Op {
    /// Stat an object whose size is known.
    ObjStat { path: MetaPath, size: u64 },
    /// Stat a directory.
    DirStat(MetaPath),
    /// Resolve a directory path.
    Lookup(MetaPath),
    /// Create an object.
    Create { path: MetaPath, size: u64 },
    /// Create a directory.
    Mkdir(MetaPath),
    /// Rename a directory.
    Rename { src: MetaPath, dst: MetaPath },
    /// List a directory.
    Readdir(MetaPath),
}

/// Op type labels, indexed by [`Op::kind`].
pub const KINDS: [&str; 7] = [
    "objstat", "dirstat", "lookup", "create", "mkdir", "rename", "readdir",
];

impl Op {
    /// Index into [`KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Op::ObjStat { .. } => 0,
            Op::DirStat(_) => 1,
            Op::Lookup(_) => 2,
            Op::Create { .. } => 3,
            Op::Mkdir(_) => 4,
            Op::Rename { .. } => 5,
            Op::Readdir(_) => 6,
        }
    }

    /// Whether the op changes the namespace.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Create { .. } | Op::Mkdir(_) | Op::Rename { .. })
    }
}

/// Paths of the bulk-loaded namespace, shared read-only by the generators.
pub struct Namespace {
    /// Object paths with their bulk-loaded sizes.
    pub objects: Vec<(MetaPath, u64)>,
    /// Directory paths.
    pub dirs: Vec<MetaPath>,
}

/// Shared, seed-derived sampling state of `stat-zipf`.
pub struct StatSampler {
    ns: Arc<Namespace>,
    zobj: Zipf,
    zdir: Zipf,
    /// Zipf rank -> object index (a seeded permutation, so which objects
    /// are hot depends on the seed, not on creation order).
    obj_rank: Vec<u32>,
    dir_rank: Vec<u32>,
}

impl StatSampler {
    /// Builds the samplers over `ns`.
    pub fn new(ns: Arc<Namespace>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a_0001);
        let obj_rank = permutation(ns.objects.len(), &mut rng);
        let dir_rank = permutation(ns.dirs.len(), &mut rng);
        StatSampler {
            zobj: Zipf::new(ns.objects.len(), ZIPF_S),
            zdir: Zipf::new(ns.dirs.len(), ZIPF_S),
            ns,
            obj_rank,
            dir_rank,
        }
    }
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// splitmix64, for deterministic per-op values that need no RNG state.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Size of part `part` of `spark-commit` task `task` of `client`.
pub fn part_size(seed: u64, client: usize, task: u64, part: u64) -> u64 {
    (1 << 20) + mix(seed ^ mix(((client as u64) << 48) ^ (task << 8) ^ part)) % (1 << 16)
}

/// The output directory of `spark-commit` job `job`.
pub fn job_out(root: &MetaPath, job: u64) -> MetaPath {
    root.child(&format!("job{job}")).child("out")
}

/// The private temporary directory of `client` in `spark-commit` job
/// `job` (a Spark task-attempt dir): only renames into the job's output
/// dir share a parent.
pub fn job_tmp(root: &MetaPath, job: u64, client: usize) -> MetaPath {
    root.child(&format!("job{job}"))
        .child("_temporary")
        .child(&format!("c{client}"))
}

/// One client's op stream.
pub enum Gen {
    /// `stat-zipf`: 80% objstat, 10% dirstat, 10% lookup.
    Stat {
        sampler: Arc<StatSampler>,
        rng: StdRng,
    },
    /// `ingest`: creates in the client's own parent, a mkdir every tenth op.
    Ingest {
        parent: MetaPath,
        seq: u64,
        seed: u64,
    },
    /// `spark-commit`: tasks of mkdir a private tmp dir, create parts,
    /// rename into the job's shared output dir, stat the parts, list the
    /// output dir.
    Spark {
        root: MetaPath,
        client: usize,
        seq: u64,
        seed: u64,
    },
}

impl Gen {
    /// Whether every client must reach this point of its stream before any
    /// goes on: a `spark-commit` job is a stage, so both clients finish their
    /// tasks of one job before either starts the next, and the job's
    /// directories are always shared.
    pub fn at_barrier(&self) -> bool {
        match self {
            Gen::Spark { seq, .. } => *seq > 0 && *seq % (OPS_PER_TASK * TASKS_PER_JOB) == 0,
            _ => false,
        }
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> Op {
        match self {
            Gen::Stat { sampler, rng } => {
                let u: f64 = rng.gen();
                if u < 0.8 {
                    let i = sampler.obj_rank[sampler.zobj.sample(rng)] as usize;
                    let (path, size) = sampler.ns.objects[i].clone();
                    Op::ObjStat { path, size }
                } else {
                    let dir = sampler.ns.dirs[sampler.dir_rank[sampler.zdir.sample(rng)] as usize]
                        .clone();
                    if u < 0.9 {
                        Op::DirStat(dir)
                    } else {
                        Op::Lookup(dir)
                    }
                }
            }
            Gen::Ingest { parent, seq, seed } => {
                let k = *seq;
                *seq += 1;
                if k % MKDIR_EVERY == MKDIR_EVERY - 1 {
                    Op::Mkdir(parent.child(&format!("d{k}")))
                } else {
                    Op::Create {
                        path: parent.child(&format!("o{k}")),
                        size: 1 + mix(*seed ^ k) % (4 << 20),
                    }
                }
            }
            Gen::Spark {
                root,
                client,
                seq,
                seed,
            } => {
                let task = *seq / OPS_PER_TASK;
                let step = *seq % OPS_PER_TASK;
                *seq += 1;
                let job = task / TASKS_PER_JOB;
                let name = format!("t{client}-{task}");
                let tmp = job_tmp(root, job, *client).child(&name);
                let out = job_out(root, job).child(&name);
                let part = |dir: &MetaPath, i: u64| dir.child(&format!("part-{i}"));
                match step {
                    0 => Op::Mkdir(tmp),
                    s if s <= PARTS => Op::Create {
                        path: part(&tmp, s - 1),
                        size: part_size(*seed, *client, task, s - 1),
                    },
                    s if s == PARTS + 1 => Op::Rename { src: tmp, dst: out },
                    s if s <= 2 * PARTS + 1 => {
                        let i = s - PARTS - 2;
                        Op::ObjStat {
                            path: part(&out, i),
                            size: part_size(*seed, *client, task, i),
                        }
                    }
                    _ => Op::Readdir(job_out(root, job)),
                }
            }
        }
    }
}
