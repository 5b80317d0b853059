//! Overload behaviour of the bounded admission queue (DESIGN.md §4.14).
//!
//! An open-loop mdtest offers Lookups at twice the index leader's modeled
//! service capacity against a `queue_cap`-bounded node. The contract:
//!
//! * the queue sheds (nonzero [`MetaError::Overloaded`] failures),
//! * *zero lost acks* — every offered op either completes or returns a
//!   clean shed/abort error, and the per-node shed counters account for
//!   every client-observed shed,
//! * goodput stays at or above 80% of offered load,
//! * admitted ops keep bounded latency: p99 under 5x the uncontended p99
//!   (that bound is what shedding buys — an unbounded queue would let
//!   latency grow with the backlog instead),
//! * the whole experiment is deterministic under the virtual clock.

use mantle::core::{MantleCluster, MantleConfig};
use mantle::prelude::*;
use mantle::workloads::mdtest::{run, ConflictMode, MdOp, MdtestConfig, MdtestReport, OpenLoop};

const CAP: usize = 64;
const OPS: usize = 200;

fn overload_config(queue_cap: usize) -> MantleConfig {
    let sim = SimConfig {
        queue_cap,
        ..SimConfig::default()
    };
    let mut config = MantleConfig::with_sim(sim, 4);
    // Leader-only reads keep the RPC schedule a pure function of the
    // workload (the perf-gate determinism idiom).
    config.index.follower_reads = false;
    // The path-lease cache is pinned off regardless of MANTLE_PATH_CACHE:
    // warm hits would answer lookups without reaching the capped node.
    config.pcache = mantle::core::PathLeaseConfig::default();
    config
}

/// Offers `OPS` lookups open-loop at twice the modeled capacity of the
/// single node serving them and returns the report plus the summed
/// per-node shed / deadline-abort counters.
fn drive(queue_cap: usize, open_loop: bool) -> (MdtestReport, u64, u64) {
    let config = overload_config(queue_cap);
    let interarrival = (config.sim.service().as_nanos() as u64 / 2).max(1);
    let cluster = MantleCluster::with_config(config);
    let report = run(
        &*cluster.service(),
        MdtestConfig {
            threads: 1,
            ops_per_thread: OPS,
            depth: 6,
            op: MdOp::Lookup,
            conflict: ConflictMode::Exclusive,
            working_set: 64,
            seed: 7,
            hotspot: None,
            open_loop: open_loop.then_some(OpenLoop {
                interarrival_nanos: interarrival,
                retry_budget: 0,
            }),
        },
    );
    let mut shed = 0;
    let mut aborts = 0;
    for r in cluster.index().group().replicas() {
        let s = r.node().snapshot();
        shed += s.shed;
        aborts += s.deadline_aborts;
    }
    for i in 0..cluster.db().n_shards() {
        let s = cluster.db().shard_node(i).snapshot();
        shed += s.shed;
        aborts += s.deadline_aborts;
    }
    (report, shed, aborts)
}

#[test]
fn bounded_queue_sheds_with_bounded_latency_and_high_goodput() {
    assert!(
        mantle::types::clock::is_virtual(),
        "overload determinism requires the virtual clock; unset MANTLE_WALL_CLOCK"
    );

    // Uncontended twin: same workload, closed loop, unbounded queue.
    let (uncontended, shed0, _) = drive(0, false);
    assert_eq!(uncontended.failed, 0);
    assert_eq!(shed0, 0, "cap=0 must never shed");
    let base_p99 = uncontended.latency.quantile(0.99);

    let (report, node_sheds, _) = drive(CAP, true);

    // Sheds happened, and nothing was lost: every failure is a clean
    // Overloaded/DeadlineExceeded error, every offered op is accounted,
    // and the server-side shed counters agree with the client view
    // (budget 0 means one shed RPC == one failed op).
    assert!(report.shed > 0, "2x load against cap={CAP} must shed");
    assert_eq!(
        report.failed,
        report.shed + report.deadline_aborted,
        "failures that were neither sheds nor deadline aborts"
    );
    assert_eq!(report.completed + report.failed, OPS as u64);
    assert_eq!(
        node_sheds, report.shed,
        "per-node counters must account every shed"
    );

    // Goodput: at least 80% of offered ops complete.
    let goodput = report.completed as f64 / OPS as f64;
    assert!(goodput >= 0.80, "goodput {goodput:.3} below 0.80");

    // Admitted ops keep bounded latency: the queue never holds more than
    // CAP service times of work, so p99 stays well under 5x uncontended.
    let p99 = report.latency.quantile(0.99);
    assert!(
        p99 < 5 * base_p99,
        "admitted p99 {p99}ns is not under 5x uncontended ({base_p99}ns)"
    );

    // Determinism: the modeled backlog is a pure function of the arrival
    // schedule, so a rerun reproduces the experiment exactly.
    let (again, again_sheds, _) = drive(CAP, true);
    assert_eq!(
        (
            report.completed,
            report.failed,
            report.shed,
            report.agg.rpcs
        ),
        (again.completed, again.failed, again.shed, again.agg.rpcs),
        "overload run is not deterministic"
    );
    assert_eq!(node_sheds, again_sheds);
    assert_eq!(report.latency.quantile(0.5), again.latency.quantile(0.5));
    assert_eq!(p99, again.latency.quantile(0.99));
}

#[test]
fn default_config_never_sheds() {
    // The legacy configuration (queue_cap = 0, no deadline) must be
    // untouched by the admission plane even under the same 2x open loop:
    // the fast path admits unconditionally.
    let (report, shed, aborts) = drive(0, true);
    assert_eq!(report.failed, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(shed, 0);
    assert_eq!(aborts, 0);
    assert_eq!(report.completed, OPS as u64);
}
