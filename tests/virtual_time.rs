//! Virtual-clock fidelity tests: determinism across runs, the exact
//! closed-form latency decomposition of Table 1, and op results that do
//! not depend on the clock mode.
//!
//! The latency tests only make sense under the (default) virtual clock,
//! where latency is a pure function of the RPC/fsync model; they no-op
//! under `MANTLE_WALL_CLOCK=1`. The cross-clock test runs under both.

use std::time::Duration;

use mantle::baselines::{
    infinifs::{InfiniFs, InfiniFsOptions},
    locofs::{LocoFs, LocoFsOptions},
    tectonic::{Tectonic, TectonicOptions},
};
use mantle::prelude::*;
use mantle::types::clock::{self, TimeCategory};
use mantle::types::BulkLoad;
use mantle::workloads::mdtest::{run, ConflictMode, MdOp, MdtestConfig};

/// Non-zero RTT and fsync, everything else zero and unbounded capacity, so
/// an operation's virtual latency is exactly its RPC/fsync/commit model.
fn closed_form_sim() -> SimConfig {
    SimConfig {
        rtt_micros: 200,
        fsync_micros: 100,
        device_micros: 0,
        service_micros: 0,
        index_level_micros: 0,
        db_node_permits: usize::MAX,
        index_node_permits: usize::MAX,
        queue_cap: 0,
    }
}

/// A deep pre-populated directory chain `/L0/L1/.../L{depth-1}`.
fn deep_dir<S: MetadataService + BulkLoad + ?Sized>(svc: &S, depth: usize) -> MetaPath {
    let mut path = MetaPath::root();
    for i in 0..depth {
        path = path.child(&format!("L{i}"));
        svc.bulk_dir(&path);
    }
    path
}

/// Measures one call with a clean per-thread clock: returns the op's
/// virtual latency, its `OpStats`, and the ledger delta.
fn measure<R>(
    f: impl FnOnce(&mut RequestCtx) -> Result<R>,
) -> (Duration, OpStats, mantle::types::TimeStats) {
    clock::reset_thread_clock();
    let mut stats = RequestCtx::new();
    let t0 = clock::now();
    f(&mut stats).expect("measured op must succeed");
    (t0.elapsed(), stats.stats, clock::thread_time_stats())
}

/// Asserts the Table-1 closed form for one operation: every nanosecond of
/// the measured latency is `round_trips × rtt + fsyncs × fsync +
/// commits × rtt`, with no queueing, backoff, fault, or unattributed time.
/// (Round trips come from the ledger: batched designs — InfiniFS
/// speculation, TafDB 2PC fan-out — cover several logical RPCs with one
/// paid round trip.)
fn assert_closed_form(
    system: &str,
    sim: &SimConfig,
    latency: Duration,
    ledger: &mantle::types::TimeStats,
) {
    let rtt = Duration::from_micros(sim.rtt_micros).as_nanos() as u64;
    let fsync = Duration::from_micros(sim.fsync_micros).as_nanos() as u64;
    assert_eq!(
        ledger.nanos(TimeCategory::Rtt),
        ledger.count(TimeCategory::Rtt) * rtt,
        "{system}: every paid round trip costs exactly one RTT"
    );
    assert_eq!(
        ledger.nanos(TimeCategory::Fsync),
        ledger.count(TimeCategory::Fsync) * fsync,
        "{system}: every fsync costs exactly the configured latency"
    );
    for (cat, name) in [
        (TimeCategory::Queue, "queue"),
        (TimeCategory::Backoff, "backoff"),
        (TimeCategory::Fault, "fault"),
        (TimeCategory::Other, "other"),
    ] {
        assert_eq!(ledger.nanos(cat), 0, "{system}: unexpected {name} time");
    }
    let expected = ledger.count(TimeCategory::Rtt) * rtt
        + ledger.count(TimeCategory::Fsync) * fsync
        + ledger.count(TimeCategory::Commit) * rtt;
    assert_eq!(
        latency.as_nanos() as u64,
        expected,
        "{system}: latency must equal the closed form exactly \
         (round_trips={} fsyncs={} commits={}, ledger={ledger:?})",
        ledger.count(TimeCategory::Rtt),
        ledger.count(TimeCategory::Fsync),
        ledger.count(TimeCategory::Commit),
    );
    assert_eq!(
        ledger.total_nanos(),
        latency.as_nanos() as u64,
        "{system}: ledger must account for the whole latency"
    );
}

/// Table-1 fidelity: a depth-`D` lookup costs exactly `rpc_count × rtt` on
/// every system, with the per-system RPC counts the paper claims — one for
/// Mantle (single IndexNode query) and LocoFS (central directory server),
/// `D` for Tectonic and InfiniFS (one query per level).
#[test]
fn table1_lookup_latency_matches_closed_form_exactly() {
    if !clock::is_virtual() {
        return; // Wall-clock latency includes real compute; no exact form.
    }
    let sim = closed_form_sim();
    const DEPTH: usize = 8;

    // (system, expected lookup RPCs)
    let mut config = MantleConfig::with_sim(sim, 4);
    config.index.follower_reads = false; // Leader path: 1 RPC, no read-index.
    let mantle = MantleCluster::with_config(config);
    let tectonic = Tectonic::new(sim, TectonicOptions::default());
    let infinifs = InfiniFs::new(sim, InfiniFsOptions::default());
    let locofs = LocoFs::new(sim, LocoFsOptions::default());
    let systems: [(&str, &dyn MetadataService, u32); 4] = [
        ("mantle", &*mantle, 1),
        ("tectonic", &*tectonic, DEPTH as u32),
        ("infinifs", &*infinifs, DEPTH as u32),
        ("locofs", &*locofs, 1),
    ];

    let paths = [
        deep_dir(&*mantle, DEPTH),
        deep_dir(&*tectonic, DEPTH),
        deep_dir(&*infinifs, DEPTH),
        deep_dir(&*locofs, DEPTH),
    ];

    for ((system, svc, expected_rpcs), path) in systems.iter().zip(&paths) {
        let (latency, stats, ledger) = measure(|stats| svc.lookup(path, stats).map(|_| ()));
        assert_eq!(
            stats.rpcs, *expected_rpcs,
            "{system}: depth-{DEPTH} lookup RPC count"
        );
        // Sequential designs pay one round trip per RPC; InfiniFS
        // speculation fires its per-level queries in parallel rounds.
        let round_trips = ledger.count(TimeCategory::Rtt);
        if *system == "infinifs" {
            assert!(
                (1..=DEPTH as u64).contains(&round_trips),
                "{system}: speculative rounds, got {round_trips}"
            );
        } else {
            assert_eq!(round_trips, *expected_rpcs as u64, "{system}: round trips");
        }
        assert_eq!(
            ledger.count(TimeCategory::Fsync),
            0,
            "{system}: lookups never fsync"
        );
        assert_closed_form(system, &sim, latency, &ledger);
    }
}

/// Table-1 fidelity for a write: object creation decomposes exactly into
/// RPC round trips, WAL fsyncs, and (for Mantle's replicated IndexNode)
/// folded commit RTTs — on all four systems.
#[test]
fn table1_create_latency_matches_closed_form_exactly() {
    if !clock::is_virtual() {
        return;
    }
    let sim = closed_form_sim();
    const DEPTH: usize = 6;

    let mut config = MantleConfig::with_sim(sim, 4);
    config.index.follower_reads = false;
    let mantle = MantleCluster::with_config(config);
    let tectonic = Tectonic::new(sim, TectonicOptions::default());
    let infinifs = InfiniFs::new(sim, InfiniFsOptions::default());
    let locofs = LocoFs::new(sim, LocoFsOptions::default());
    let systems: [(&str, &dyn MetadataService); 4] = [
        ("mantle", &*mantle),
        ("tectonic", &*tectonic),
        ("infinifs", &*infinifs),
        ("locofs", &*locofs),
    ];
    let parents = [
        deep_dir(&*mantle, DEPTH),
        deep_dir(&*tectonic, DEPTH),
        deep_dir(&*infinifs, DEPTH),
        deep_dir(&*locofs, DEPTH),
    ];

    for ((system, svc), parent) in systems.iter().zip(&parents) {
        let obj = parent.child("obj");
        let (latency, stats, ledger) = measure(|stats| svc.create(&obj, 4096, stats).map(|_| ()));
        assert!(stats.rpcs >= 1, "{system}: create issues RPCs");
        assert!(
            ledger.count(TimeCategory::Fsync) >= 1,
            "{system}: create must pay durability"
        );
        assert_closed_form(system, &sim, latency, &ledger);
    }
}

/// Determinism: the same seed, fault plan, and virtual clock produce
/// byte-identical latency histograms and fault event logs across runs.
#[test]
fn same_seed_and_faults_reproduce_identical_histograms_and_events() {
    if !clock::is_virtual() {
        return; // Wall-clock latencies absorb scheduler jitter.
    }
    // Client-driven fault classes only (2PC prepare/commit): background
    // raft/WAL activity never consumes their per-site roll state, so a
    // single-threaded client sees one deterministic decision sequence.
    // Mkdir spreads each transaction's rows (parent entry + new dir attr)
    // across shards, so the 2PC fault points are actually exercised.
    let profile = FaultProfile {
        txn_prepare_fail_prob: 0.05,
        txn_commit_hiccup_prob: 0.05,
        ..FaultProfile::zeroed()
    };

    let run_once = || {
        let cluster = MantleCluster::build(closed_form_sim(), 4);
        let plan = FaultPlan::new(42, profile.clone()).activate();
        cluster.install_faults(&plan);
        let report = run(
            &*cluster.service(),
            MdtestConfig {
                threads: 1,
                ops_per_thread: 120,
                depth: 6,
                op: MdOp::Mkdir,
                conflict: ConflictMode::Exclusive,
                working_set: 16,
                seed: 9,
                hotspot: None,
                open_loop: None,
            },
        );
        assert_eq!(report.failed, 0);
        let hist = serde_json::to_string(&report.latency).expect("histogram serializes");
        let events = format!("{:?}", plan.events());
        (hist, events)
    };

    let (hist_a, events_a) = run_once();
    let (hist_b, events_b) = run_once();
    assert!(
        events_a.contains("FaultEvent"),
        "the profile must actually fire: {events_a}"
    );
    assert_eq!(
        events_a, events_b,
        "fault event logs must be byte-identical"
    );
    assert_eq!(hist_a, hist_b, "latency histograms must be byte-identical");
}

/// Cross-mode invariant: op results and RPC counts are identical under
/// both clocks — the clock changes *when*, never *what*. Runs at the
/// default `SimConfig`, so the wall-clock leg really sleeps every modeled
/// delay the virtual leg charges instantly.
///
/// `Exclusive` working sets and leader-only reads keep every count a pure
/// function of the workload (no conflict retries, no timing-dependent
/// read-index batching); the path-lease cache is pinned off regardless of
/// `MANTLE_PATH_CACHE`. Mkdir runs single-threaded: each mkdir allocates
/// the new directory's inode from a global counter, and the allocation
/// order across racing threads decides which TafDB shard the attr row
/// routes to — and with it the 2PC fan-out's RPC count.
#[test]
fn op_results_and_rpc_counts_are_clock_independent() {
    // (op, threads, ops/thread, completed, failed, rpcs, txn retries)
    let suite = [
        (MdOp::Lookup, 4, 16, 64, 0, 64, 0),
        (MdOp::Create, 4, 16, 64, 0, 128, 0),
        (MdOp::Mkdir, 1, 64, 64, 0, 336, 0),
    ];
    for (op, threads, ops_per_thread, completed, failed, rpcs, txn_retries) in suite {
        let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
        config.index.follower_reads = false;
        config.pcache = mantle::core::PathLeaseConfig::default();
        let cluster = MantleCluster::with_config(config);
        let report = run(
            &*cluster.service(),
            MdtestConfig {
                threads,
                ops_per_thread,
                depth: 6,
                op,
                conflict: ConflictMode::Exclusive,
                working_set: 32,
                seed: 5,
                hotspot: None,
                open_loop: None,
            },
        );
        let got = (
            report.completed,
            report.failed,
            report.agg.rpcs,
            report.agg.txn_retries,
        );
        assert_eq!(
            got,
            (completed, failed, rpcs, txn_retries),
            "{op:?}: (completed, failed, rpcs, txn_retries)"
        );
    }
}
