//! Batched leader `commitIndex` queries for ReadIndex follower reads.
//!
//! §5.1.3: "To minimize the overhead imposed on the leader, queries for the
//! commitIndex are batched." Concurrent follower-side readers coalesce into
//! one leader round trip: the first reader becomes the batch leader and
//! performs the query; readers that arrive while it is in flight share the
//! result of the *next* query. Any commitIndex fetched *after* a reader
//! arrived is a valid linearization point for that reader, so sharing that
//! one is safe; the in-flight query may have read the leader's commitIndex
//! before the reader arrived, so sharing it is not.

use parking_lot::{Condvar, Mutex};

/// A leader's reply to a commit-index query: its commit index and the term
/// of the entry there. A follower whose log holds that exact entry holds
/// the whole committed prefix through it (Raft's Log Matching property), so
/// it may adopt the index as its own commit index (DESIGN.md §4.15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitPoint {
    /// The leader's commit index.
    pub index: u64,
    /// Term of the leader's entry at `index`.
    pub term: u64,
}

#[derive(Default)]
struct State {
    /// Generation counter of completed fetches.
    generation: u64,
    /// Result of the last completed fetch (`None`: no leader answered).
    last_value: Option<CommitPoint>,
    /// Whether a fetch is in flight.
    fetching: bool,
}

/// Coalesces concurrent commit-index queries into shared fetches.
#[derive(Default)]
pub struct CommitIndexBatcher {
    state: Mutex<State>,
    cv: Condvar,
}

impl CommitIndexBatcher {
    /// Creates an idle batcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a commit point fetched after the caller's arrival, using
    /// `fetch` to perform the actual leader query. `fetch` is called by
    /// this thread (batch leader) or skipped entirely (the caller shares
    /// the first fetch another thread *started* after its arrival).
    pub fn query(&self, fetch: impl FnOnce() -> Option<CommitPoint>) -> Option<CommitPoint> {
        let mut state = self.state.lock();
        // Generation of the first fetch to start after our arrival: a fetch
        // already in flight completes one generation earlier.
        let valid_gen = state.generation + 1 + u64::from(state.fetching);
        loop {
            if state.generation >= valid_gen {
                return state.last_value;
            }
            if !state.fetching {
                state.fetching = true;
                drop(state);
                let value = fetch();
                state = self.state.lock();
                state.fetching = false;
                state.generation += 1;
                state.last_value = value;
                self.cv.notify_all();
                return value;
            }
            self.cv.wait(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn at(index: u64) -> Option<CommitPoint> {
        Some(CommitPoint { index, term: 1 })
    }

    #[test]
    fn single_caller_fetches() {
        let b = CommitIndexBatcher::new();
        assert_eq!(b.query(|| at(42)), at(42));
        assert_eq!(b.query(|| None), None);
        assert_eq!(b.query(|| at(43)), at(43));
    }

    #[test]
    fn caller_arriving_mid_fetch_waits_for_a_fresh_one() {
        let b = Arc::new(CommitIndexBatcher::new());
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let first = {
            let b = b.clone();
            std::thread::spawn(move || {
                b.query(|| {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    at(1)
                })
            })
        };
        started_rx.recv().unwrap();
        // Arrives while the first fetch is in flight; that fetch may have
        // read the leader before this caller arrived, so it must not be
        // shared.
        let second = {
            let b = b.clone();
            std::thread::spawn(move || b.query(|| at(2)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        release_tx.send(()).unwrap();
        assert_eq!(first.join().unwrap(), at(1));
        assert_eq!(second.join().unwrap(), at(2));
    }

    #[test]
    fn concurrent_callers_share_fetches() {
        let b = Arc::new(CommitIndexBatcher::new());
        let fetches = Arc::new(AtomicU64::new(0));
        // Instead of a timing sleep, the in-flight fetch holds itself open
        // until every thread has started querying, so the others provably
        // pile up behind it and share its result.
        let arrived = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (b, fetches, arrived) = (b.clone(), fetches.clone(), arrived.clone());
                std::thread::spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..20 {
                        let v = b.query(|| {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            while arrived.load(Ordering::SeqCst) < 16 {
                                std::thread::yield_now();
                            }
                            at(7)
                        });
                        assert_eq!(v, at(7));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = fetches.load(Ordering::SeqCst);
        assert!(
            n < 320,
            "expected batching, got {n} fetches for 320 queries"
        );
        assert!(n >= 1);
    }
}
