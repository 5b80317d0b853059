//! The closed loop: each client thread issues its next op only
//! after the previous one returned.

use std::sync::Barrier;
use std::time::Instant;

use mantle_types::clock::{self, TimeStats};
use mantle_types::{Phase, RequestCtx, RetryClass};

use crate::exec::{Outcome, Tracer};
use crate::sys;
use crate::workload::{Gen, Op, KINDS};

/// A client's state that persists across phases.
pub struct Client {
    pub id: usize,
    pub gen: Gen,
    pub tracer: Tracer,
    /// Writes acknowledged so far (all phases), for the output checks.
    pub acked: Vec<Op>,
    /// Ops issued so far (all phases).
    pub seq: u64,
}

/// The slowest op of a phase, by modeled latency.
#[derive(Clone, Debug, Default)]
pub struct Worst {
    pub kind: &'static str,
    pub lat_ns: u64,
    pub retries: u64,
}

/// What one client saw during one phase.
#[derive(Default)]
pub struct ClientLog {
    /// Modeled (virtual-clock) latency of every op, in issue order.
    pub lat_ns: Vec<u64>,
    /// Real (wall-clock) time of every op's call, in issue order.
    pub real_ns: Vec<u64>,
    pub ops: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub kinds: [u64; KINDS.len()],
    pub retries: [u64; RetryClass::COUNT],
    pub max_retries: u64,
    pub worst: Worst,
    pub rpcs: u64,
    pub phase_ns: [u64; 3],
    /// Thread clock ledger over the phase.
    pub time: TimeStats,
}

/// One phase across all clients.
pub struct PhaseLog {
    pub clients: Vec<ClientLog>,
    /// Wall and process-CPU ns of each round.
    pub round_wall_ns: Vec<u64>,
    pub round_cpu_ns: Vec<u64>,
}

impl PhaseLog {
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Appends a later phase's rounds and ops, client by client.
    pub fn append(&mut self, other: PhaseLog) {
        self.round_wall_ns.extend(other.round_wall_ns);
        self.round_cpu_ns.extend(other.round_cpu_ns);
        for (a, b) in self.clients.iter_mut().zip(other.clients) {
            a.lat_ns.reserve_exact(b.lat_ns.len());
            a.lat_ns.extend(b.lat_ns);
            a.real_ns.reserve_exact(b.real_ns.len());
            a.real_ns.extend(b.real_ns);
            a.ops += b.ops;
            a.failed += b.failed;
            a.wrong.extend(b.wrong);
            for (x, y) in a.kinds.iter_mut().zip(b.kinds) {
                *x += y;
            }
            for (x, y) in a.retries.iter_mut().zip(b.retries) {
                *x += y;
            }
            a.max_retries = a.max_retries.max(b.max_retries);
            if b.worst.lat_ns > a.worst.lat_ns {
                a.worst = b.worst;
            }
            a.rpcs += b.rpcs;
            for (x, y) in a.phase_ns.iter_mut().zip(b.phase_ns) {
                *x += y;
            }
        }
    }
}

/// Runs `rounds` rounds of `per_round` ops on every client. Rounds are
/// separated by a barrier so each round's wall and CPU time can be read
/// by the coordinating thread.
pub fn run_phase<E>(clients: &mut [Client], rounds: usize, per_round: u64, exec: &E) -> PhaseLog
where
    E: Fn(&Op, &mut RequestCtx, &mut Tracer) -> Outcome + Sync,
{
    let barrier = Barrier::new(clients.len() + 1);
    let stage = Barrier::new(clients.len());
    let mut round_wall_ns = Vec::with_capacity(rounds);
    let mut round_cpu_ns = Vec::with_capacity(rounds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (barrier, stage) = (&barrier, &stage);
                s.spawn(move || {
                    let mut log = ClientLog {
                        lat_ns: Vec::with_capacity((rounds as u64 * per_round) as usize),
                        real_ns: Vec::with_capacity((rounds as u64 * per_round) as usize),
                        ..ClientLog::default()
                    };
                    let t0 = clock::thread_time_stats();
                    for _ in 0..rounds {
                        barrier.wait();
                        for _ in 0..per_round {
                            if c.gen.at_barrier() {
                                stage.wait();
                            }
                            one_op(c, exec, &mut log);
                        }
                        barrier.wait();
                    }
                    log.time = clock::thread_time_stats().delta_since(&t0);
                    log
                })
            })
            .collect();
        for _ in 0..rounds {
            barrier.wait();
            let (w0, c0) = (Instant::now(), sys::process_cpu_ns());
            barrier.wait();
            round_wall_ns.push(w0.elapsed().as_nanos() as u64);
            round_cpu_ns.push(sys::process_cpu_ns() - c0);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    PhaseLog {
        clients: logs,
        round_wall_ns,
        round_cpu_ns,
    }
}

fn one_op<E>(c: &mut Client, exec: &E, log: &mut ClientLog)
where
    E: Fn(&Op, &mut RequestCtx, &mut Tracer) -> Outcome,
{
    let op = c.gen.next_op();
    c.tracer.op = ((c.id as u64) << 48) | c.seq;
    c.seq += 1;
    let mut ctx = RequestCtx::new();
    let (v0, w0) = (clock::now(), Instant::now());
    let out = exec(&op, &mut ctx, &mut c.tracer);
    let real = w0.elapsed().as_nanos() as u64;
    let lat = clock::now().saturating_duration_since(v0).as_nanos() as u64;
    ctx.stats.end();

    log.ops += 1;
    log.lat_ns.push(lat);
    log.real_ns.push(real);
    log.kinds[op.kind()] += 1;
    let mut retries = 0;
    for (i, class) in RetryClass::ALL.iter().enumerate() {
        let n = ctx.retry_count(*class) as u64;
        log.retries[i] += n;
        retries += n;
    }
    log.max_retries = log.max_retries.max(retries);
    if lat > log.worst.lat_ns {
        log.worst = Worst {
            kind: KINDS[op.kind()],
            lat_ns: lat,
            retries,
        };
    }
    log.rpcs += ctx.rpcs as u64;
    for (i, p) in Phase::ALL.iter().enumerate() {
        log.phase_ns[i] += ctx.phase_nanos(*p);
    }
    match out {
        Outcome::Ok => {
            if op.is_write() {
                c.acked.push(op);
            }
        }
        Outcome::Failed(e) => {
            log.failed += 1;
            if log.failed <= 8 {
                eprintln!("failed {}: {e}", KINDS[op.kind()]);
            }
        }
        Outcome::Wrong(e) => log.wrong.push(e),
    }
}
