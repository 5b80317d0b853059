//! Pluggable simulation clock: wall time vs per-thread virtual time.
//!
//! Every latency claim in the paper is a claim about RPC counts times an
//! injected round trip (Table 1, Figures 12–17). The original harness paid
//! those injected delays with real `std::thread::sleep` and measured them
//! with `Instant::now()`, so a 200 µs simulated RTT cost 200 µs of wall
//! time and histograms absorbed scheduler jitter. This module decouples
//! *simulated* time from *wall* time:
//!
//! * [`ClockMode::Wall`] — exact status-quo behaviour: `sleep` really
//!   sleeps, `now` reads the OS monotonic clock. Selected with
//!   `MANTLE_WALL_CLOCK=1`; required for real-hardware runs.
//! * [`ClockMode::Virtual`] (default) — per-thread logical time. `sleep(d)`
//!   advances a thread-local offset instantly; `now()` returns that offset
//!   as a [`SimInstant`]. Modeled delays therefore cost zero wall time and
//!   latency reports become deterministic functions of the RPC/fsync
//!   model. Real compute that the model *should* see (e.g. measured
//!   permit-wait on a saturated `SimNode`) is folded in explicitly via
//!   [`fold_real`].
//!
//! Virtual time is deliberately **per-thread**: each simulated client
//! carries its own timeline, which is exactly the quantity the per-op
//! latency figures plot. Cross-thread coordination (raft heartbeats,
//! background compaction, condvar waits) stays on real time — those are
//! liveness mechanisms, not modeled latency — and any modeled cost a
//! client would have observed from another thread's work is folded into
//! the client's timeline at the wait site via [`fold_model`].
//!
//! Each thread additionally keeps a per-[`TimeCategory`] `(count, nanos)`
//! ledger so tests can assert the closed-form decomposition of an
//! operation's latency (`rpc_count × rtt + fsync_count × fsync`) exactly.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Which clock the process is running under. Chosen once from the
/// environment; every thread sees the same mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Real time: `sleep` blocks, `now` reads the OS monotonic clock.
    Wall,
    /// Per-thread logical time: `sleep` advances an offset instantly.
    Virtual,
}

fn wall_base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// The active [`ClockMode`], resolved once per process from
/// `MANTLE_WALL_CLOCK` (`1`/`true`/`yes` selects [`ClockMode::Wall`];
/// anything else — including unset — selects [`ClockMode::Virtual`]).
pub fn mode() -> ClockMode {
    static MODE: OnceLock<ClockMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MANTLE_WALL_CLOCK") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("yes") => {
            // Pin the wall base now so `SimInstant`s taken later in the
            // process stay small and saturating arithmetic behaves.
            let _ = wall_base();
            ClockMode::Wall
        }
        _ => ClockMode::Virtual,
    })
}

/// True when the process runs under the (default) virtual clock.
pub fn is_virtual() -> bool {
    mode() == ClockMode::Virtual
}

/// What a span of simulated time was spent on. Used for the per-thread
/// ledger that backs the Table-1 closed-form fidelity tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TimeCategory {
    /// Network round trip between proxy and a metadata/index node.
    Rtt,
    /// WAL fsync latency.
    Fsync,
    /// Storage device access (SSD read/write).
    Device,
    /// Per-request CPU service time on a `SimNode`.
    Service,
    /// Injected fault delay (deny-wait, latency spike).
    Fault,
    /// Contention backoff before a retry.
    Backoff,
    /// Measured real permit-wait on a saturated `SimNode`.
    Queue,
    /// Modeled replication/commit latency folded in at a cross-thread
    /// wait site (raft quorum commit).
    Commit,
    /// Everything else (test sleeps, misc waits).
    Other,
}

const N_CATEGORIES: usize = 9;

impl TimeCategory {
    /// Every category, in ledger order (the order breakdowns render in).
    pub const ALL: [TimeCategory; N_CATEGORIES] = [
        TimeCategory::Rtt,
        TimeCategory::Fsync,
        TimeCategory::Device,
        TimeCategory::Service,
        TimeCategory::Fault,
        TimeCategory::Backoff,
        TimeCategory::Queue,
        TimeCategory::Commit,
        TimeCategory::Other,
    ];

    /// Stable lower-case label used in attribution output and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::Rtt => "rtt",
            TimeCategory::Fsync => "fsync",
            TimeCategory::Device => "device",
            TimeCategory::Service => "service",
            TimeCategory::Fault => "fault",
            TimeCategory::Backoff => "backoff",
            TimeCategory::Queue => "queue",
            TimeCategory::Commit => "commit",
            TimeCategory::Other => "other",
        }
    }
}

/// Per-thread `(count, nanos)` ledger, indexed by [`TimeCategory`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStats {
    entries: [(u64, u64); N_CATEGORIES],
}

impl TimeStats {
    /// Number of charges recorded under `cat`.
    pub fn count(&self, cat: TimeCategory) -> u64 {
        self.entries[cat as usize].0
    }

    /// Total nanoseconds charged under `cat`.
    pub fn nanos(&self, cat: TimeCategory) -> u64 {
        self.entries[cat as usize].1
    }

    /// Total nanoseconds across all categories.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// Per-category `(count, nanos)` growth since `earlier` (saturating, so
    /// a ledger reset between the two snapshots yields zeros rather than
    /// wrapping). This is how per-operation attribution is extracted from
    /// the monotonically growing thread ledger.
    pub fn delta_since(&self, earlier: &TimeStats) -> TimeStats {
        let mut out = TimeStats::default();
        for (i, e) in out.entries.iter_mut().enumerate() {
            e.0 = self.entries[i].0.saturating_sub(earlier.entries[i].0);
            e.1 = self.entries[i].1.saturating_sub(earlier.entries[i].1);
        }
        out
    }

    /// Records one charge of `nanos` under `cat`.
    pub fn record(&mut self, cat: TimeCategory, nanos: u64) {
        let e = &mut self.entries[cat as usize];
        e.0 += 1;
        e.1 += nanos;
    }

    /// Folds `other` in, category by category.
    pub fn add(&mut self, other: &TimeStats) {
        for (e, o) in self.entries.iter_mut().zip(&other.entries) {
            e.0 += o.0;
            e.1 += o.1;
        }
    }
}

struct ThreadClock {
    /// Virtual nanoseconds advanced on this thread.
    offset_nanos: u64,
    stats: TimeStats,
}

thread_local! {
    static THREAD_CLOCK: RefCell<ThreadClock> = const {
        RefCell::new(ThreadClock { offset_nanos: 0, stats: TimeStats { entries: [(0, 0); N_CATEGORIES] } })
    };
}

/// A point on the simulated timeline. Under [`ClockMode::Wall`] this is
/// nanoseconds since a process-wide base `Instant`; under
/// [`ClockMode::Virtual`] it is the calling thread's logical offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The simulated-time origin (useful as an "unset" sentinel).
    pub const ZERO: SimInstant = SimInstant { nanos: 0 };

    /// Nanoseconds since the simulated-time origin.
    pub fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Simulated time elapsed since `self` on the calling thread.
    pub fn elapsed(self) -> Duration {
        now().saturating_duration_since(self)
    }

    /// `self - earlier`, clamped to zero (mirrors
    /// `Instant::saturating_duration_since`).
    pub fn saturating_duration_since(self, earlier: SimInstant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl std::ops::Add<Duration> for SimInstant {
    type Output = SimInstant;
    fn add(self, d: Duration) -> SimInstant {
        SimInstant {
            nanos: self.nanos.saturating_add(d.as_nanos() as u64),
        }
    }
}

impl std::ops::Sub<SimInstant> for SimInstant {
    type Output = Duration;
    fn sub(self, earlier: SimInstant) -> Duration {
        self.saturating_duration_since(earlier)
    }
}

/// The current point on the simulated timeline for the calling thread.
pub fn now() -> SimInstant {
    match mode() {
        ClockMode::Wall => SimInstant {
            nanos: wall_base().elapsed().as_nanos() as u64,
        },
        ClockMode::Virtual => SimInstant {
            nanos: THREAD_CLOCK.with(|c| c.borrow().offset_nanos),
        },
    }
}

fn charge(cat: TimeCategory, nanos: u64) {
    THREAD_CLOCK.with(|c| c.borrow_mut().stats.record(cat, nanos));
}

/// Advance simulated time by `d`, attributed to `cat`. Under the wall
/// clock this really sleeps; under the virtual clock it advances the
/// calling thread's offset instantly. Zero-duration sleeps are counted in
/// the ledger but cost nothing in either mode.
pub fn sleep_as(cat: TimeCategory, d: Duration) {
    let nanos = d.as_nanos() as u64;
    charge(cat, nanos);
    if nanos == 0 {
        return;
    }
    match mode() {
        ClockMode::Wall => std::thread::sleep(d),
        ClockMode::Virtual => {
            THREAD_CLOCK.with(|c| {
                let mut c = c.borrow_mut();
                c.offset_nanos = c.offset_nanos.saturating_add(nanos);
            });
        }
    }
}

/// [`sleep_as`] with [`TimeCategory::Other`].
pub fn sleep(d: Duration) {
    sleep_as(TimeCategory::Other, d);
}

/// Stopwatch over the *real* monotonic clock, for the few sites that
/// measure an actual cross-thread wait (e.g. `SimNode` permit acquisition)
/// and then fold it into the simulated timeline. Keeping the measurement
/// inside this module means no data-path crate touches
/// `std::time::Instant` directly, so wall and virtual mode cannot diverge
/// on how real waits are captured.
#[derive(Clone, Copy, Debug)]
pub struct RealStopwatch(Instant);

impl RealStopwatch {
    /// Real time elapsed since [`real_stopwatch`] was called.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Folds the elapsed real time into the simulated timeline under
    /// `cat` (see [`fold_real`]) and returns the measured duration.
    pub fn fold(self, cat: TimeCategory) -> Duration {
        let d = self.elapsed();
        fold_real(cat, d);
        d
    }
}

/// Starts a [`RealStopwatch`] at the current real time.
pub fn real_stopwatch() -> RealStopwatch {
    RealStopwatch(Instant::now())
}

/// Fold *measured real* time into the simulated timeline — e.g. the wall
/// time a request actually waited for a `SimNode` permit. Under the wall
/// clock the wait already happened, so only the ledger is updated; under
/// the virtual clock the thread's offset advances by the measured amount.
pub fn fold_real(cat: TimeCategory, d: Duration) {
    let nanos = d.as_nanos() as u64;
    charge(cat, nanos);
    if mode() == ClockMode::Virtual {
        THREAD_CLOCK.with(|c| {
            let mut c = c.borrow_mut();
            c.offset_nanos = c.offset_nanos.saturating_add(nanos);
        });
    }
}

/// Fold a *modeled* cost into the virtual timeline at a cross-thread wait
/// site (e.g. a raft client thread that blocked on a condvar while
/// replicator threads paid the quorum round trip on their own timelines).
/// Under the wall clock this is a no-op — the real wait already occurred.
pub fn fold_model(cat: TimeCategory, d: Duration) {
    if mode() == ClockMode::Wall {
        return;
    }
    fold_real(cat, d);
}

/// Snapshot of the calling thread's per-category ledger.
pub fn thread_time_stats() -> TimeStats {
    THREAD_CLOCK.with(|c| c.borrow().stats)
}

/// Reset the calling thread's ledger (and, under the virtual clock, its
/// offset). Tests use this to isolate the cost of a single operation.
pub fn reset_thread_clock() {
    THREAD_CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.stats = TimeStats::default();
        if mode() == ClockMode::Virtual {
            c.offset_nanos = 0;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_thread_timeline_exactly() {
        reset_thread_clock();
        let t0 = now();
        sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
        sleep_as(TimeCategory::Fsync, Duration::from_micros(100));
        let elapsed = t0.elapsed();
        if is_virtual() {
            assert_eq!(elapsed, Duration::from_micros(300));
        } else {
            assert!(elapsed >= Duration::from_micros(300));
        }
        let stats = thread_time_stats();
        assert_eq!(stats.count(TimeCategory::Rtt), 1);
        assert_eq!(stats.nanos(TimeCategory::Rtt), 200_000);
        assert_eq!(stats.count(TimeCategory::Fsync), 1);
        assert_eq!(stats.nanos(TimeCategory::Fsync), 100_000);
    }

    #[test]
    fn timelines_are_per_thread() {
        reset_thread_clock();
        sleep_as(TimeCategory::Other, Duration::from_millis(5));
        let here = now();
        let there = std::thread::spawn(|| {
            reset_thread_clock();
            now()
        })
        .join()
        .unwrap();
        if is_virtual() {
            assert!(here.as_nanos() >= 5_000_000);
            assert_eq!(there, SimInstant::ZERO);
        } else {
            // Wall mode shares one timeline; the spawned thread reads later.
            assert!(there >= here);
        }
    }

    #[test]
    fn fold_model_is_noop_under_wall() {
        reset_thread_clock();
        let t0 = now();
        fold_model(TimeCategory::Commit, Duration::from_millis(1));
        if is_virtual() {
            assert_eq!(t0.elapsed(), Duration::from_millis(1));
            assert_eq!(thread_time_stats().count(TimeCategory::Commit), 1);
        } else {
            assert_eq!(thread_time_stats().count(TimeCategory::Commit), 0);
        }
    }

    #[test]
    fn sim_instant_arithmetic_saturates() {
        let a = SimInstant { nanos: 100 };
        let b = SimInstant { nanos: 300 };
        assert_eq!(b - a, Duration::from_nanos(200));
        assert_eq!(a - b, Duration::ZERO);
        assert_eq!((a + Duration::from_nanos(50)).as_nanos(), 150);
    }
}
