//! Raft group construction and lifecycle.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mantle_rpc::SimNode;
use mantle_types::SimConfig;

use crate::replica::{RaftError, RaftOptions, RaftReplica, RoleWatch, StateMachine};

/// A Raft group of `n_voters` voting replicas followed by learners.
///
/// Replica 0 is bootstrapped as the initial leader. Background threads
/// (appliers + election tickers, plus per-peer replicators while leading)
/// are owned by the group and joined on drop.
pub struct RaftGroup<SM: StateMachine> {
    replicas: Vec<Arc<RaftReplica<SM>>>,
    n_voters: usize,
    threads: Mutex<Vec<JoinHandle<()>>>,
    role_watch: Arc<RoleWatch>,
}

impl<SM: StateMachine> RaftGroup<SM> {
    /// Builds a group with one state machine per replica.
    ///
    /// `nodes` supplies the simulated server each replica runs on; its
    /// length defines the group size and must be at least `n_voters`.
    pub fn new(
        config: SimConfig,
        opts: RaftOptions,
        nodes: Vec<Arc<SimNode>>,
        n_voters: usize,
        mut sm_factory: impl FnMut(usize) -> SM,
    ) -> Self {
        assert!(n_voters >= 1 && nodes.len() >= n_voters);
        let group_size = nodes.len();
        let role_watch = Arc::new(RoleWatch::new());
        let replicas: Vec<Arc<RaftReplica<SM>>> = nodes
            .into_iter()
            .enumerate()
            .map(|(id, node)| {
                RaftReplica::new(
                    id,
                    n_voters,
                    group_size,
                    sm_factory(id),
                    node,
                    config,
                    opts,
                    Arc::clone(&role_watch),
                )
            })
            .collect();
        for r in &replicas {
            r.set_peers(replicas.iter().map(Arc::downgrade).collect());
        }

        let mut threads = Vec::new();
        for r in &replicas {
            let applier = Arc::clone(r);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("raft-apply-{}", r.id()))
                    .spawn(move || applier.apply_loop())
                    .expect("spawn applier"),
            );
            if !r.is_learner() {
                let ticker = Arc::clone(r);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("raft-tick-{}", r.id()))
                        .spawn(move || ticker.tick_loop())
                        .expect("spawn ticker"),
                );
            }
        }
        replicas[0].bootstrap_leader();
        // Reads wait for a leader's term-start barrier (DESIGN.md §4.15);
        // committing the bootstrap one here keeps that wait off the first
        // op. Every replica is up, so the quorum answers.
        replicas[0].wait_for_applied(1, Duration::from_secs(10));

        RaftGroup {
            replicas,
            n_voters,
            threads: Mutex::new(threads),
            role_watch,
        }
    }

    /// All replicas (voters first, then learners).
    pub fn replicas(&self) -> &[Arc<RaftReplica<SM>>] {
        &self.replicas
    }

    /// The replica with the given id.
    pub fn replica(&self, id: usize) -> &Arc<RaftReplica<SM>> {
        &self.replicas[id]
    }

    /// Number of voting members.
    pub fn n_voters(&self) -> usize {
        self.n_voters
    }

    /// The current leader, if any replica claims leadership.
    pub fn leader(&self) -> Option<Arc<RaftReplica<SM>>> {
        self.replicas.iter().find(|r| r.is_leader()).cloned()
    }

    /// Waits until some replica is leader.
    ///
    /// # Errors
    ///
    /// [`RaftError::Unavailable`] if no leader emerges within `timeout`.
    pub fn await_leader(&self, timeout: Duration) -> Result<Arc<RaftReplica<SM>>, RaftError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Read the watch version before inspecting roles so a role
            // change between the check and the wait is never lost.
            let seen = self.role_watch.version();
            if let Some(l) = self.leader() {
                return Ok(l);
            }
            let now = Instant::now();
            if now > deadline {
                return Err(RaftError::Unavailable);
            }
            self.role_watch.wait_past(seen, deadline - now);
        }
    }

    /// Installs (or clears) a fault plan on every replica, and registers
    /// each replica's crash/recover pair as node hooks so
    /// `FaultPlan::crash_node("<node name>")` reaches it.
    pub fn install_faults(&self, plan: Option<std::sync::Arc<mantle_rpc::FaultPlan>>) {
        for r in &self.replicas {
            r.install_faults(plan.clone());
            if let Some(plan) = &plan {
                let crash = Arc::downgrade(r);
                let recover = Arc::downgrade(r);
                plan.register_node_hooks(
                    r.node().name(),
                    move || {
                        if let Some(r) = crash.upgrade() {
                            r.crash();
                        }
                    },
                    move || {
                        if let Some(r) = recover.upgrade() {
                            r.recover();
                        }
                    },
                );
            }
        }
    }

    /// Crashes replica `id` (fails its RPCs, pauses its apply loop).
    pub fn crash(&self, id: usize) {
        self.replicas[id].crash();
    }

    /// Recovers replica `id` as a follower with its log intact.
    pub fn recover(&self, id: usize) {
        self.replicas[id].recover();
    }
}

impl<SM: StateMachine> Drop for RaftGroup<SM> {
    fn drop(&mut self) {
        for r in &self.replicas {
            r.begin_shutdown();
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogEntry;
    use mantle_types::RequestCtx;
    use parking_lot::Mutex as PlMutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A state machine that records applied commands.
    struct RecordingSm {
        applied: PlMutex<Vec<u64>>,
        count: AtomicU64,
    }

    impl RecordingSm {
        fn new() -> Self {
            RecordingSm {
                applied: PlMutex::new(Vec::new()),
                count: AtomicU64::new(0),
            }
        }
    }

    impl StateMachine for RecordingSm {
        type Command = u64;

        fn apply(&self, _index: u64, cmd: &u64) {
            if *cmd == u64::MAX {
                return; // Term-start barrier.
            }
            self.applied.lock().push(*cmd);
            self.count.fetch_add(1, Ordering::SeqCst);
        }

        fn barrier() -> u64 {
            u64::MAX
        }

        fn snapshot(&self) -> Vec<u8> {
            use mantle_types::snapshot::SnapshotWriter;
            let applied = self.applied.lock();
            let mut w = SnapshotWriter::new();
            w.u64(self.count.load(Ordering::SeqCst));
            w.u64(applied.len() as u64);
            for v in applied.iter() {
                w.u64(*v);
            }
            w.finish()
        }

        fn restore(&self, image: &[u8]) {
            use mantle_types::snapshot::SnapshotReader;
            let mut r = SnapshotReader::new(image);
            let count = r.u64();
            let n = r.u64() as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u64());
            }
            *self.applied.lock() = v;
            self.count.store(count, Ordering::SeqCst);
        }
    }

    fn test_group(n_voters: usize, n_learners: usize) -> RaftGroup<RecordingSm> {
        let config = SimConfig::instant();
        let nodes = (0..n_voters + n_learners)
            .map(|i| Arc::new(SimNode::new(format!("raft{i}"), usize::MAX, config)))
            .collect();
        let opts = RaftOptions {
            heartbeat_interval: Duration::from_millis(5),
            election_timeout_min: Duration::from_millis(50),
            election_timeout_max: Duration::from_millis(100),
            ..RaftOptions::default()
        };
        RaftGroup::new(config, opts, nodes, n_voters, |_| RecordingSm::new())
    }

    #[test]
    fn bootstrap_leader_proposes_and_applies() {
        let group = test_group(3, 0);
        let leader = group.leader().expect("bootstrap leader");
        assert_eq!(leader.id(), 0);
        for i in 0..20 {
            let idx = leader.propose(i).unwrap();
            // Index 1 is the term-start barrier.
            assert_eq!(idx, i + 2);
        }
        assert_eq!(
            *leader.state_machine().applied.lock(),
            (0..20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn followers_catch_up() {
        let group = test_group(3, 1);
        let leader = group.leader().unwrap();
        for i in 0..50 {
            leader.propose(i).unwrap();
        }
        // Replication is asynchronous for followers; wait on the apply
        // signal (index 1 is the term-start barrier, so 50 proposals end
        // at index 51).
        for r in group.replicas() {
            assert!(
                r.wait_for_applied(51, Duration::from_secs(5)),
                "replica {} did not catch up",
                r.id()
            );
        }
        for r in group.replicas() {
            assert_eq!(
                *r.state_machine().applied.lock(),
                (0..50).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn propose_on_follower_is_rejected() {
        let group = test_group(3, 0);
        group.await_leader(Duration::from_secs(1)).unwrap();
        let follower = group.replicas().iter().find(|r| !r.is_leader()).unwrap();
        match follower.propose(1) {
            Err(RaftError::NotLeader(_)) => {}
            other => panic!("expected NotLeader, got {other:?}"),
        }
    }

    #[test]
    fn read_index_on_follower_sees_committed_writes() {
        let group = test_group(3, 1);
        let leader = group.leader().unwrap();
        for i in 0..10 {
            leader.propose(i).unwrap();
        }
        let learner = group.replica(3);
        assert!(learner.is_learner());
        let mut stats = RequestCtx::new();
        let ci = learner.read_index(&mut stats).unwrap();
        assert!(ci >= 10);
        assert!(learner.last_applied() >= 10);
        assert_eq!(learner.state_machine().count.load(Ordering::SeqCst), 10);
        assert_eq!(stats.rpcs, 1, "batch leader pays one leader RPC");
    }

    /// A group whose leader only sends AppendEntries when it has entries:
    /// its heartbeat (and so its piggybacked commit index) is 10 s away,
    /// and elections never start within a test.
    const SLOW_HEARTBEAT: Duration = Duration::from_secs(10);

    fn slow_heartbeat_group(n_voters: usize, n_learners: usize) -> RaftGroup<RecordingSm> {
        let config = SimConfig::instant();
        let nodes = (0..n_voters + n_learners)
            .map(|i| Arc::new(SimNode::new(format!("raft{i}"), usize::MAX, config)))
            .collect();
        let opts = RaftOptions {
            heartbeat_interval: SLOW_HEARTBEAT,
            election_timeout_min: SLOW_HEARTBEAT * 6,
            election_timeout_max: SLOW_HEARTBEAT * 12,
            ..RaftOptions::default()
        };
        RaftGroup::new(config, opts, nodes, n_voters, |_| RecordingSm::new())
    }

    #[test]
    fn follower_read_after_write_needs_no_heartbeat() {
        let group = slow_heartbeat_group(3, 0);
        let leader = group.leader().unwrap();
        let follower = group.replica(1);
        for round in 0..3 {
            let index = leader.propose(round).unwrap();
            let start = Instant::now();
            let read = follower.read_index(&mut RequestCtx::new()).unwrap();
            let waited = start.elapsed();
            assert!(
                read >= index,
                "round {round}: read at {read} before write {index}"
            );
            assert!(
                waited < SLOW_HEARTBEAT / 5,
                "round {round}: follower read waited {waited:?} for a heartbeat"
            );
            assert_eq!(
                *follower.state_machine().applied.lock(),
                (0..=round).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn follower_read_is_woken_by_the_append_it_waits_for() {
        // One voter (commits alone) and a learner it cannot reach, so the
        // learner learns a commit point whose entry it does not hold.
        let group = slow_heartbeat_group(1, 1);
        let leader = group.leader().unwrap();
        let learner = Arc::clone(group.replica(1));
        let plan = mantle_rpc::FaultPlan::new(0, mantle_rpc::FaultProfile::zeroed());
        plan.partition("raft0", "raft1");
        group.install_faults(Some(plan));
        let index = leader.propose(7).unwrap();
        assert_eq!(index, 2, "barrier at 1, write at 2");

        let reader = {
            let learner = Arc::clone(&learner);
            std::thread::spawn(move || {
                let read = learner.read_index(&mut RequestCtx::new());
                (read, Instant::now())
            })
        };
        // The leader has answered the query; without the entry the reader
        // cannot finish.
        let asked = Instant::now();
        while leader.node().snapshot().served == 0 {
            assert!(
                asked.elapsed() < SLOW_HEARTBEAT / 5,
                "query never reached the leader"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!reader.is_finished(), "read finished without the entry");

        // Deliver the entries with a stale leader commit, as an
        // AppendEntries sent before the write committed would.
        let term = leader.term();
        let entries = vec![
            LogEntry {
                term,
                cmd: RecordingSm::barrier(),
            },
            LogEntry { term, cmd: 7 },
        ];
        let landed = Instant::now();
        learner.append_entries(term, 0, 0, 0, entries, 0);
        let (read, done) = reader.join().unwrap();
        assert_eq!(read, Ok(2));
        let waited = done - landed;
        assert!(
            waited < SLOW_HEARTBEAT / 5,
            "reader slept {waited:?} after its entry landed"
        );
        assert_eq!(*learner.state_machine().applied.lock(), vec![7]);
    }

    #[test]
    fn leader_failover_elects_new_leader_and_preserves_log() {
        let group = test_group(3, 0);
        let leader = group.leader().unwrap();
        for i in 0..10 {
            leader.propose(i).unwrap();
        }
        group.crash(leader.id());
        let new_leader = group.await_leader(Duration::from_secs(5)).unwrap();
        assert_ne!(new_leader.id(), leader.id());
        // The new leader must retain all committed entries and accept more.
        for i in 10..15 {
            new_leader.propose(i).unwrap();
        }
        assert_eq!(
            *new_leader.state_machine().applied.lock(),
            (0..15).collect::<Vec<_>>()
        );
        // Old leader recovers as follower and catches up.
        group.recover(leader.id());
        assert!(
            leader.wait_for_applied(new_leader.last_applied(), Duration::from_secs(5)),
            "recovered replica did not catch up"
        );
        assert_eq!(leader.state_machine().count.load(Ordering::SeqCst), 15);
        assert!(!leader.is_leader() || leader.term() > 1);
    }

    #[test]
    fn learners_do_not_vote() {
        let group = test_group(1, 2);
        let leader = group.leader().unwrap();
        assert_eq!(leader.id(), 0);
        // With a single voter, quorum is 1: proposals commit immediately.
        leader.propose(7).unwrap();
        assert_eq!(leader.state_machine().count.load(Ordering::SeqCst), 1);
        for r in group.replicas().iter().skip(1) {
            assert!(r.is_learner());
            assert!(!r.is_leader());
        }
    }

    #[test]
    fn log_batching_reduces_fsyncs() {
        // Compare fsync counts with and without batching under concurrency.
        let run = |batching: bool| -> (u64, u64) {
            let mut config = SimConfig::instant();
            config.fsync_micros = 500;
            let nodes = (0..3)
                .map(|i| Arc::new(SimNode::new(format!("raft{i}"), usize::MAX, config)))
                .collect();
            let opts = RaftOptions {
                log_batching: batching,
                heartbeat_interval: Duration::from_millis(5),
                ..RaftOptions::default()
            };
            let group = RaftGroup::new(config, opts, nodes, 3, |_| RecordingSm::new());
            let leader = group.leader().unwrap();
            std::thread::scope(|s| {
                for t in 0..8 {
                    let leader = &leader;
                    s.spawn(move || {
                        for i in 0..10 {
                            leader.propose(t * 100 + i).unwrap();
                        }
                    });
                }
            });
            (leader.wal_fsyncs(), 80)
        };
        let (batched, total) = run(true);
        let (unbatched, _) = run(false);
        assert_eq!(unbatched, total);
        if mantle_types::clock::is_virtual() {
            // Group commit amortizes fsyncs that overlap in *wall* time;
            // under the virtual clock injected fsyncs are instant, so
            // overlap (and thus the strict win) is not guaranteed. The
            // MANTLE_WALL_CLOCK=1 smoke run covers the strict assertion.
            assert!(
                batched <= unbatched,
                "batched={batched} must never exceed unbatched={unbatched}"
            );
        } else {
            assert!(
                batched < unbatched,
                "batched={batched} should be < unbatched={unbatched}"
            );
        }
    }
}
