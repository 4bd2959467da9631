//! Shared machinery for the parallel checker search.
//!
//! The order search of [`check`](crate::check), the one both
//! properties run, looks for the lexicographically first transaction
//! serialization order, among those consistent with a partial order,
//! under which an inner witness search succeeds. The parallel search
//! splits the orders by prefix on a **work-stealing frontier**, the
//! [`Frontier`] queue of this module, which only this pool uses:
//!
//! 1. The frontier is seeded with the empty serialization-order prefix.
//!    A worker that pops a prefix while other workers are starving
//!    **expands** it — pushes every valid one-transaction extension back
//!    onto the frontier — instead of searching it, so work splits
//!    adaptively exactly where the search is struggling. A worker that
//!    pops a prefix while everyone is busy **claims** it and finds the
//!    first success of its whole subtree (the search the serial checker
//!    runs, restricted to orders extending the prefix).
//! 2. Claimed prefixes form an antichain (a prefix is either expanded
//!    or claimed, never both), so comparing them lexicographically
//!    orders their subtrees exactly as the serial DFS visits them. The
//!    first success from the **lexicographically least** claimed prefix
//!    is the answer; a published success flips a per-worker cancel flag
//!    on every running subtree with a lex-greater prefix, whose result
//!    can no longer matter.
//!
//! **Determinism.** A subtree is only ever cancelled by a success from
//! a lex-smaller prefix, and the published best only ever decreases
//! lexicographically — so every prefix the serial search would have
//! reached before its first success runs to completion, and the final
//! best is exactly the serial result (verdict *and* witness),
//! independent of thread count and scheduling.
//!
//! Each worker keeps one memo of the inner witness search
//! ([`linearize`](crate::linearize)'s `LeafMemo`) across the prefixes
//! it claims: the dead-end frontiers, cleared at each claimed prefix.
//! Its hits are reported as `SearchStats::cache_hits`.
//!
//! The pool uses `std::thread::scope` — no external thread-pool crate —
//! so borrowing the search state from the caller's stack is safe and
//! the whole machinery is dependency-free.

use jungle_obs::trace::{self, EventKind};
use jungle_obs::SearchStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Tuning knobs for the parallel checker entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to use. `0` means "ask the OS"
    /// (`std::thread::available_parallelism`). With an effective count
    /// of 1 the serial path runs directly — no threads are spawned.
    pub threads: usize,
    /// Histories with fewer schedulable units than this take the serial
    /// path unconditionally, so litmus-sized inputs pay zero overhead.
    pub min_units: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 0,
            min_units: 12,
        }
    }
}

impl ParallelConfig {
    /// A config pinned to exactly `threads` workers (still subject to
    /// the `min_units` serial fallback).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..Self::default()
        }
    }

    /// The worker count after resolving `0` to the OS-reported
    /// parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Should a history with `units` schedulable units run serially?
    pub(crate) fn serial_for(&self, units: usize) -> bool {
        units < self.min_units || self.effective_threads() <= 1
    }
}

/// Cancellation token for one unit of pool work: set once the claimed
/// subtree's result can no longer matter (a lex-smaller prefix won).
pub(crate) struct Cancel<'a> {
    flag: Option<&'a AtomicBool>,
}

impl<'a> Cancel<'a> {
    /// A token that never fires (serial search).
    pub(crate) fn never() -> Self {
        Cancel { flag: None }
    }

    /// A token watching `flag`.
    pub(crate) fn flag(flag: &'a AtomicBool) -> Self {
        Cancel { flag: Some(flag) }
    }

    /// Has this work item become irrelevant?
    #[inline]
    pub(crate) fn hit(&self) -> bool {
        match self.flag {
            Some(f) => f.load(Ordering::Relaxed),
            None => false,
        }
    }
}

/// Worker id for the seed item: it matches no real worker, so the first
/// pop of a multi-worker run always counts as a steal.
const SEED_WORKER: usize = usize::MAX;

/// A shared work queue with idle-counting termination: a Mutex/Condvar
/// deque whose `pop` blocks while the queue is empty but some worker
/// may still push, and returns `None` to everyone once all `workers`
/// are waiting on an empty queue. Items carry the pushing worker's id,
/// so a pop by another worker counts as a *steal*.
///
/// Item order is racy by design; callers that need a deterministic
/// result keep the lexicographically least success themselves (see the
/// module docs).
pub struct Frontier<T> {
    state: Mutex<FrontierState<T>>,
    available: Condvar,
    workers: usize,
}

struct FrontierState<T> {
    items: VecDeque<(usize, T)>,
    idle: usize,
    done: bool,
    steals: u64,
}

impl<T> Frontier<T> {
    /// A frontier drained by `workers` workers.
    pub fn new(workers: usize) -> Self {
        Frontier {
            state: Mutex::new(FrontierState {
                items: VecDeque::new(),
                idle: 0,
                done: false,
                steals: 0,
            }),
            available: Condvar::new(),
            workers,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FrontierState<T>> {
        self.state.lock().expect("a frontier worker panicked")
    }

    /// Publish `item`; `from` is the pushing worker.
    pub fn push(&self, from: usize, item: T) {
        self.lock().items.push_back((from, item));
        self.available.notify_one();
    }

    /// Take the oldest item for worker `me` together with the id of the
    /// worker that pushed it, blocking while the queue is empty but
    /// other workers are still active. Returns `None` once every worker
    /// is idle (the search is over).
    pub fn pop(&self, me: usize) -> Option<(usize, T)> {
        let mut s = self.lock();
        loop {
            if let Some((from, item)) = s.items.pop_front() {
                s.steals += u64::from(from != me);
                return Some((from, item));
            }
            if s.done {
                return None;
            }
            s.idle += 1;
            if s.idle == self.workers {
                s.done = true;
                s.idle -= 1;
                self.available.notify_all();
                return None;
            }
            s = self.available.wait(s).expect("a frontier worker panicked");
            s.idle -= 1;
        }
    }

    /// Is anyone starving? Splitting work is only worth the queue
    /// traffic when the frontier has run dry or a sibling is already
    /// waiting on it.
    fn hungry(&self) -> bool {
        let s = self.lock();
        !s.done && (s.items.is_empty() || s.idle > 0)
    }

    /// Items popped by a worker other than their pusher.
    pub fn steals(&self) -> u64 {
        self.lock().steals
    }
}

/// Best-so-far publication: the lexicographically least claimed prefix
/// that produced a result, plus what every worker is currently running
/// (so a new best can cancel exactly the now-irrelevant subtrees).
struct BestState<R> {
    best: Option<(Vec<usize>, R)>,
    running: Vec<Option<Vec<usize>>>,
}

/// Run the serialization-order search over `threads` scoped workers
/// feeding from a work-stealing frontier, returning the result of the
/// lexicographically least successful prefix — exactly what a serial
/// left-to-right scan would produce.
///
/// `expand(prefix)` lists the transactions that may validly extend
/// `prefix`, in ascending index order (the serial candidate order);
/// `n_txn` bounds prefix growth. `init` builds one mutable worker-local
/// state (e.g. a memo) per worker; `work(prefix, cancel, state, stats)`
/// exhausts the prefix's subtree in serial DFS order, stopping early
/// once `cancel.hit()` — its result is discarded in that case anyway.
/// Per-worker [`SearchStats`] are merged into `stats` (claimed prefixes
/// count as `stolen_prefixes`; the caller sets `workers`).
pub(crate) fn run_order_pool<R, S, X, I, F>(
    threads: usize,
    n_txn: usize,
    expand: X,
    init: I,
    work: F,
    stats: &mut SearchStats,
) -> Option<R>
where
    R: Send,
    S: Send,
    X: Fn(&[usize]) -> Vec<usize> + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&[usize], &Cancel<'_>, &mut S, &mut SearchStats) -> Option<R> + Sync,
{
    let frontier: Frontier<Vec<usize>> = Frontier::new(threads);
    frontier.push(SEED_WORKER, Vec::new());
    let shared: Mutex<BestState<R>> = Mutex::new(BestState {
        best: None,
        running: (0..threads).map(|_| None).collect(),
    });
    let flags: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let frontier = &frontier;
                let shared = &shared;
                let flags = &flags;
                let expand = &expand;
                let init = &init;
                let work = &work;
                s.spawn(move || {
                    let mut local = SearchStats::default();
                    let mut state = init();
                    while let Some((_, prefix)) = frontier.pop(w) {
                        // Drop without searching if a lex-smaller
                        // subtree has already won: the serial scan
                        // would have stopped before reaching this one.
                        {
                            let b = shared.lock().unwrap();
                            if matches!(&b.best, Some((bp, _)) if *bp < prefix) {
                                trace::emit(EventKind::PrefixCancel, prefix.len() as u64, 0);
                                continue;
                            }
                        }
                        if prefix.len() < n_txn && frontier.hungry() {
                            for t in expand(&prefix) {
                                let mut child = prefix.clone();
                                child.push(t);
                                frontier.push(w, child);
                            }
                            continue;
                        }
                        // Claim: register the running prefix so a later
                        // best can cancel it, re-checking the best under
                        // the same lock (publication is also locked, so
                        // no cancel can be missed).
                        {
                            let mut b = shared.lock().unwrap();
                            if matches!(&b.best, Some((bp, _)) if *bp < prefix) {
                                trace::emit(EventKind::PrefixCancel, prefix.len() as u64, 0);
                                continue;
                            }
                            b.running[w] = Some(prefix.clone());
                            flags[w].store(false, Ordering::Relaxed);
                        }
                        local.stolen_prefixes += 1;
                        let cancel = Cancel::flag(&flags[w]);
                        let result = work(&prefix, &cancel, &mut state, &mut local);
                        let mut b = shared.lock().unwrap();
                        b.running[w] = None;
                        if let Some(r) = result {
                            let better = match &b.best {
                                None => true,
                                Some((bp, _)) => prefix < *bp,
                            };
                            if better {
                                b.best = Some((prefix, r));
                                let bp = &b.best.as_ref().unwrap().0;
                                for (i, run) in b.running.iter().enumerate() {
                                    if matches!(run, Some(rp) if rp > bp) {
                                        flags[i].store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            let local = h.join().expect("checker worker panicked");
            stats.absorb(&local);
        }
    });

    shared.into_inner().unwrap().best.map(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_auto() {
        let cfg = ParallelConfig::default();
        assert_eq!(cfg.threads, 0);
        assert!(cfg.effective_threads() >= 1);
        assert!(cfg.serial_for(0));
        assert!(cfg.serial_for(cfg.min_units - 1));
    }

    #[test]
    fn pinned_config_overrides_auto() {
        let cfg = ParallelConfig::with_threads(4);
        assert_eq!(cfg.effective_threads(), 4);
        assert!(ParallelConfig::with_threads(1).serial_for(usize::MAX));
    }

    /// The candidate order space for the pool tests: permutations of
    /// `0..n` with no placement constraints.
    fn free_expand(n: usize) -> impl Fn(&[usize]) -> Vec<usize> {
        move |prefix: &[usize]| (0..n).filter(|t| !prefix.contains(t)).collect()
    }

    /// Exhaust `prefix`'s subtree in serial DFS order, returning the
    /// first completion that `hits` accepts.
    fn subtree_first(
        n: usize,
        prefix: &[usize],
        hits: &dyn Fn(&[usize]) -> bool,
    ) -> Option<Vec<usize>> {
        fn rec(
            n: usize,
            order: &mut Vec<usize>,
            hits: &dyn Fn(&[usize]) -> bool,
        ) -> Option<Vec<usize>> {
            if order.len() == n {
                return hits(order).then(|| order.clone());
            }
            for t in 0..n {
                if order.contains(&t) {
                    continue;
                }
                order.push(t);
                if let Some(found) = rec(n, order, hits) {
                    return Some(found);
                }
                order.pop();
            }
            None
        }
        rec(n, &mut prefix.to_vec(), hits)
    }

    #[test]
    fn pool_returns_serial_first_success() {
        // Accepted orders picked so the serial-first one ([1,0,2,3]) is
        // neither the lex-least accepted by chance nor the easiest to
        // find in parallel.
        let n = 4;
        let accepted: Vec<Vec<usize>> = vec![vec![3, 2, 1, 0], vec![1, 0, 2, 3], vec![2, 0, 1, 3]];
        let hits = |o: &[usize]| accepted.iter().any(|a| a == o);
        let serial = subtree_first(n, &[], &hits).unwrap();
        assert_eq!(serial, vec![1, 0, 2, 3]);
        for threads in [1, 2, 4] {
            let mut stats = SearchStats::default();
            let got = run_order_pool(
                threads,
                n,
                free_expand(n),
                || (),
                |prefix, cancel, _s, _l| {
                    if cancel.hit() {
                        return None;
                    }
                    subtree_first(n, prefix, &hits)
                },
                &mut stats,
            );
            assert_eq!(got.as_deref(), Some(serial.as_slice()), "threads={threads}");
        }
    }

    #[test]
    fn pool_reports_no_result_when_all_fail() {
        let mut stats = SearchStats::default();
        let got: Option<Vec<usize>> = run_order_pool(
            2,
            3,
            free_expand(3),
            || (),
            |_, _, _: &mut (), _| None,
            &mut stats,
        );
        assert_eq!(got, None);
        // Every subtree was claimed and exhausted by some worker.
        assert!(stats.stolen_prefixes > 0);
    }

    #[test]
    fn pool_handles_empty_order_space() {
        // Zero transactions: the seed prefix is already complete.
        let mut stats = SearchStats::default();
        let got = run_order_pool(
            2,
            0,
            |_: &[usize]| Vec::new(),
            || (),
            |prefix, _, _: &mut (), _| Some(prefix.to_vec()),
            &mut stats,
        );
        assert_eq!(got, Some(Vec::new()));
        assert_eq!(stats.stolen_prefixes, 1);
    }

    #[test]
    fn frontier_single_worker_drains_and_terminates() {
        let f = Frontier::new(1);
        f.push(SEED_WORKER, 7);
        assert_eq!(f.pop(0), Some((SEED_WORKER, 7)));
        assert_eq!(f.steals(), 1, "seed pop is a steal");
        assert!(f.pop(0).is_none(), "idle count reaches worker count");
        assert!(f.pop(0).is_none(), "done latches");
        assert!(!f.hungry(), "finished frontier wants nothing");
    }

    #[test]
    fn frontier_own_items_are_not_steals() {
        let f = Frontier::new(1);
        f.push(3, 1);
        assert!(f.pop(3).is_some());
        assert_eq!(f.steals(), 0);
    }

    #[test]
    fn frontier_blocked_worker_wakes_on_push() {
        let f = Frontier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| f.pop(0));
            // Worker 1 produces one item, then drains to termination.
            f.push(1, 2);
            assert_eq!(waiter.join().unwrap(), Some((1, 2)), "woken with the item");
            assert_eq!(f.steals(), 1);
            // Both workers now idle out.
            let a = scope.spawn(|| f.pop(0));
            assert!(f.pop(1).is_none());
            assert!(a.join().unwrap().is_none());
        });
    }

    #[test]
    fn frontier_hungry_when_empty_or_idle() {
        let f = Frontier::new(2);
        assert!(f.hungry(), "empty queue is hungry");
        f.push(0, ());
        assert!(!f.hungry(), "stocked queue with no idlers is fed");
    }

    #[test]
    fn cancel_token_semantics() {
        let flag = AtomicBool::new(false);
        let c = Cancel::flag(&flag);
        assert!(!c.hit());
        flag.store(true, Ordering::Relaxed);
        assert!(c.hit());
        assert!(!Cancel::never().hit());
    }
}
