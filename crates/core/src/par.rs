//! The prefix list behind
//! [`check_opacity_par`](crate::opacity::check_opacity_par), the one
//! caller of this module's search.
//!
//! The DFS backend of [`check`](crate::check) returns the
//! lexicographically first admissible transaction serialization order
//! whose witness search succeeds. `check_opacity_par` splits that
//! search by prefix:
//!
//! 1. **The list.** Starting from the one empty prefix, every prefix is
//!    replaced, in place, by its admissible one-transaction extensions
//!    in ascending order, level by level, until the list holds
//!    `PREFIXES_PER_WORKER` prefixes per worker or no prefix can grow.
//!    The list stays a lexicographically sorted antichain that covers
//!    every admissible order, so its index order is the order in which
//!    the serial search visits the subtrees.
//! 2. **The workers.** Scoped threads take the next index with
//!    `fetch_add` and search that prefix's subtree for its first success
//!    (the serial walk, restricted to orders extending the prefix), each
//!    with its own `LeafMemo`, cleared at each prefix. A success lowers
//!    the shared best index with `fetch_min`. A worker stops once the
//!    index it took is above the best, and a running subtree is
//!    cancelled as soon as the best falls below its index.
//!
//! **Determinism.** The best index only decreases, and only a success
//! at a lower index drops or cancels a prefix, so every prefix below
//! the final best is searched to completion and fails. The lowest-index
//! success is therefore the serial search's answer — verdict *and*
//! witness — at any thread count and under any schedule.
//!
//! The workers are `std::thread::scope` threads, so they borrow the
//! search from the caller's stack and no thread-pool crate is needed.

use crate::check::{can_place, first_success, used_by, Found, Search};
use crate::linearize::{LeafMemo, Legality, DEAD_END_CAP};
use jungle_obs::trace::{self, EventKind};
use jungle_obs::SearchStats;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Prefixes the list holds per worker before the workers start, so a
/// worker that drew a quick subtree finds another to take.
const PREFIXES_PER_WORKER: usize = 4;

/// Cancellation token for one subtree search: it fires once the
/// subtree's result can no longer matter (a lower-indexed prefix won).
pub(crate) struct Cancel<'a> {
    below: Option<(&'a AtomicUsize, usize)>,
}

impl<'a> Cancel<'a> {
    /// A token that never fires (serial search).
    pub(crate) fn never() -> Self {
        Cancel { below: None }
    }

    /// The token of the prefix at index `mine`: it fires once `best`,
    /// the lowest index that succeeded, falls below `mine`.
    fn at(best: &'a AtomicUsize, mine: usize) -> Self {
        Cancel {
            below: Some((best, mine)),
        }
    }

    /// Has this work item become irrelevant?
    #[inline]
    pub(crate) fn hit(&self) -> bool {
        match self.below {
            Some((best, mine)) => best.load(Ordering::Relaxed) < mine,
            None => false,
        }
    }
}

/// The DFS backend's answer for `s` — the serial search's order and
/// witness — found by `threads` workers over a prefix list.
pub(crate) fn search_orders_par<L: Legality>(
    s: &Search<'_, L>,
    threads: usize,
    stats: &mut SearchStats,
) -> Option<Found> {
    let n = s.n_txns();
    let list = prefix_list(n, PREFIXES_PER_WORKER * threads, |prefix| {
        let used = used_by(n, prefix);
        (0..n).filter(|&t| can_place(s, t, &used)).collect()
    });
    first_in_list(&list, threads, stats, |prefix, cancel, memo, stats| {
        first_success(s, prefix, stats, cancel, memo)
    })
}

/// Grow the list `[[]]` level by level until it holds `target`
/// prefixes or every prefix has all `n` transactions. `extend(prefix)`
/// lists the transactions that may come next, in ascending order.
fn prefix_list(
    n: usize,
    target: usize,
    extend: impl Fn(&[usize]) -> Vec<usize>,
) -> Vec<Vec<usize>> {
    let mut list = vec![Vec::new()];
    while list.len() < target && list.iter().any(|p| p.len() < n) {
        list = list
            .into_iter()
            .flat_map(|prefix| match prefix.len() == n {
                true => vec![prefix],
                false => extend(&prefix)
                    .into_iter()
                    .map(|t| [prefix.as_slice(), &[t]].concat())
                    .collect(),
            })
            .collect();
    }
    list
}

/// The result of the lowest-indexed prefix of `list` on which `work`
/// succeeds, searched by `threads` scoped workers. Each worker's
/// counters are merged into `stats`.
fn first_in_list<R: Send>(
    list: &[Vec<usize>],
    threads: usize,
    stats: &mut SearchStats,
    work: impl Fn(&[usize], &Cancel<'_>, &mut LeafMemo, &mut SearchStats) -> Option<R> + Sync,
) -> Option<R> {
    let (next, best, work) = (&AtomicUsize::new(0), &AtomicUsize::new(usize::MAX), &work);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let (mut local, mut memo) =
                        (SearchStats::default(), LeafMemo::new(DEAD_END_CAP));
                    let mut mine = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(prefix) = list.get(i) else { break };
                        if best.load(Ordering::Relaxed) < i {
                            // The serial search stops before this prefix.
                            trace::emit(EventKind::PrefixCancel, prefix.len() as u64, 0);
                            break;
                        }
                        if let Some(r) = work(prefix, &Cancel::at(best, i), &mut memo, &mut local) {
                            best.fetch_min(i, Ordering::Relaxed);
                            mine = Some((i, r));
                            break;
                        }
                    }
                    (local, mine)
                })
            })
            .collect();
        let found = workers.into_iter().filter_map(|w| {
            let (local, mine) = w.join().expect("checker worker panicked");
            stats.absorb(&local);
            mine
        });
        found.min_by_key(|&(i, _)| i).map(|(_, r)| r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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

    /// Orders of `0..n` with no placement constraints.
    fn free(n: usize) -> impl Fn(&[usize]) -> Vec<usize> {
        move |prefix: &[usize]| (0..n).filter(|t| !prefix.contains(t)).collect()
    }

    #[test]
    fn the_serial_first_success_wins_even_when_a_later_prefix_finishes_first() {
        let list = prefix_list(3, 3, free(3));
        assert_eq!(list, [[0], [1], [2]]);
        let searched = Mutex::new(Vec::new());
        let got = first_in_list(
            &list,
            2,
            &mut SearchStats::default(),
            |prefix, cancel, _, _| {
                searched.lock().unwrap().push(prefix[0]);
                if prefix[0] == 0 {
                    // Hold the first prefix until the second has published
                    // its success.
                    let (best, _) = cancel.below.expect("a listed prefix's token");
                    while best.load(Ordering::Relaxed) != 1 {
                        std::thread::yield_now();
                    }
                    assert!(!cancel.hit(), "a lower index is never cancelled");
                }
                Some(prefix.to_vec())
            },
        );
        assert_eq!(got, Some(vec![0]));
        let mut searched = searched.into_inner().unwrap();
        searched.sort();
        assert_eq!(searched, [0, 1], "nothing past the best is searched");
    }

    #[test]
    fn every_prefix_fails() {
        let list = prefix_list(4, 8, free(4));
        assert_eq!(list.len(), 12, "one level past the target's");
        assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted");
        for threads in [1, 2, 4] {
            let searched = AtomicUsize::new(0);
            let mut stats = SearchStats::default();
            let got: Option<()> = first_in_list(&list, threads, &mut stats, |_, _, _, stats| {
                searched.fetch_add(1, Ordering::Relaxed);
                stats.nodes += 1;
                None
            });
            assert_eq!(got, None);
            assert_eq!(searched.into_inner(), list.len(), "threads={threads}");
            assert_eq!(
                stats.nodes,
                list.len() as u64,
                "every worker's counters merge"
            );
        }
    }

    #[test]
    fn the_order_space_is_empty() {
        let list = prefix_list(0, 8, |_| unreachable!("nothing to extend"));
        assert_eq!(list, [Vec::<usize>::new()]);
        let got = first_in_list(&list, 2, &mut SearchStats::default(), |prefix, _, _, _| {
            Some(prefix.to_vec())
        });
        assert_eq!(got, Some(Vec::new()));
    }

    #[test]
    fn the_list_has_a_single_prefix() {
        // A chain: only the least unplaced transaction may come next.
        let chain = |prefix: &[usize]| vec![prefix.len()];
        let list = prefix_list(3, 8, chain);
        assert_eq!(list, [[0, 1, 2]], "grown until no prefix can");
        for threads in [1, 4] {
            let got = first_in_list(&list, threads, &mut SearchStats::default(), |p, _, _, _| {
                Some(p.to_vec())
            });
            assert_eq!(got, Some(vec![0, 1, 2]), "threads={threads}");
        }
    }

    #[test]
    fn cancel_fires_once_a_lower_index_wins() {
        let best = AtomicUsize::new(usize::MAX);
        let c = Cancel::at(&best, 3);
        assert!(!c.hit());
        best.store(3, Ordering::Relaxed);
        assert!(!c.hit(), "its own success");
        best.store(2, Ordering::Relaxed);
        assert!(c.hit());
        assert!(!Cancel::never().hit());
    }
}
