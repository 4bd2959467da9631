//! Dynamic partial-order reduction over the memsim schedule tree.
//!
//! The brute-force sweeps ([`explore`](jungle_memsim::explore) plus
//! trace-key dedup) execute every schedule and discard the equivalent
//! ones after the fact — hundreds of thousands of runs to surface a few
//! thousand distinct histories. This module replaces *enumerate then
//! dedup* with *never enumerate the duplicate*:
//!
//! * [`cursor`] — a sleep-set DFS cursor ([`DporCursor`]): after a
//!   branch completes it goes to sleep with its observed
//!   [`Footprint`](jungle_memsim::Footprint); sleeping actions are
//!   skipped while every subsequent decision is independent of them, so
//!   each Mazurkiewicz class of complete runs executes exactly once.
//! * [`deps`] — vector clocks over the footprint sequence flagging the
//!   racing transition pairs ([`count_races`]) that make the classes
//!   branch.
//! * [`frontier`] — the donated-subtree [`WorkItem`] that
//!   [`explore_dpor_par`] shares over `jungle-core`'s work-stealing
//!   [`Frontier`], replacing the fixed
//!   `threads × 8` seed split of the old parallel sweep.
//!
//! Both entry points preserve brute-force verdicts **and witnesses**:
//! the serial DFS meets leaves in lexicographic decision order (so its
//! first violation is the one enumeration reports first), and the
//! parallel explorer keeps the lexicographically least violating
//! decision path while pruning work beyond it, converging to that same
//! leaf at any worker count.

pub mod cursor;
pub mod deps;
pub mod frontier;

pub use cursor::{DporCursor, SleepEntry};
pub use deps::{count_races, count_races_into, footprint_kind};
pub use frontier::WorkItem;

use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use jungle_core::par::{Frontier, SEED_WORKER};
use jungle_memsim::{Machine, RunResult};
use jungle_obs::sim::{DporStats, MachineStats, WorkerLane};
use jungle_obs::trace::{self as flight, EventKind};

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Totals from one DPOR exploration.
#[derive(Debug, Default, Clone)]
pub struct DporOutcome {
    /// Machine runs executed (including sleep-blocked stubs).
    pub executed: usize,
    /// Complete runs — one per Mazurkiewicz equivalence class reached
    /// within the step bound.
    pub classes: usize,
    /// Runs cut off by the step bound before completing.
    pub truncated: usize,
    /// Runs aborted at a node whose every enabled action was asleep.
    pub blocked: usize,
    /// Enabled actions skipped because they were asleep.
    pub sleep_skips: u64,
    /// Racing transition pairs flagged across all complete runs.
    pub races: u64,
    /// Frontier items popped by a worker other than their pusher
    /// (always 0 for the serial explorer).
    pub frontier_steals: u64,
    /// The visitor stopped the exploration (serial) or reported at
    /// least one violation (parallel).
    pub stopped_early: bool,
    /// Machine-level totals across every executed run.
    pub stats: MachineStats,
    /// Waste attribution: blocked-probe depths, race-pair heat,
    /// per-worker wall-clock and run-latency histogram.
    /// `waste.blocked` always equals `blocked`.
    pub waste: DporStats,
}

impl DporOutcome {
    fn absorb(&mut self, other: &DporOutcome) {
        self.executed += other.executed;
        self.classes += other.classes;
        self.truncated += other.truncated;
        self.blocked += other.blocked;
        self.sleep_skips += other.sleep_skips;
        self.races += other.races;
        self.frontier_steals += other.frontier_steals;
        self.stopped_early |= other.stopped_early;
        self.stats.absorb(&other.stats);
        self.waste.absorb(&other.waste);
    }
}

/// Serial sleep-set DPOR sweep. Builds a fresh machine per run via
/// `factory`, visits every non-aborted run in lexicographic decision
/// order, and stops early when `visit` returns `true` (first violation
/// — identical to the run brute enumeration would flag first).
pub fn explore_dpor(
    mut factory: impl FnMut() -> Machine,
    max_steps: usize,
    mut visit: impl FnMut(&RunResult) -> bool,
) -> DporOutcome {
    let mut cursor = DporCursor::new();
    let mut out = DporOutcome::default();
    let busy = Instant::now();
    loop {
        cursor.rewind();
        let run_start = Instant::now();
        let result = factory().run(&mut cursor, max_steps);
        out.waste.run_ns.record(elapsed_ns(run_start));
        out.executed += 1;
        out.stats.absorb(&result.stats);
        if result.aborted {
            out.blocked += 1;
            // Attribute before advance() pops the blocked node.
            out.waste
                .note_blocked(cursor.blocked_depth().unwrap_or_default());
        } else {
            if result.completed {
                out.classes += 1;
                out.races += count_races_into(&result.footprints, &mut out.waste);
            } else {
                out.truncated += 1;
            }
            if visit(&result) {
                out.stopped_early = true;
                break;
            }
        }
        if !cursor.advance() {
            break;
        }
    }
    out.sleep_skips = cursor.sleep_skips;
    out.waste.workers.push(WorkerLane {
        busy_ns: elapsed_ns(busy),
        runs: out.executed as u64,
        ..WorkerLane::default()
    });
    out
}

/// Is `path` lexicographically beyond (strictly after) `best`? A prefix
/// of `best` is *not* beyond — its subtree may still contain smaller
/// leaves.
fn beyond(path: &[usize], best: &Option<Vec<usize>>) -> bool {
    let Some(best) = best else { return false };
    for (p, b) in path.iter().zip(best.iter()) {
        if p != b {
            return p > b;
        }
    }
    false
}

/// Parallel sleep-set DPOR sweep over a work-stealing frontier.
///
/// `visit` is called for every non-aborted run (concurrently, from
/// `threads` workers) with the run and its absolute decision path;
/// returning `true` marks the run violating. The explorer keeps the
/// lexicographically least violating path and prunes subtrees beyond
/// it, so the surviving violation — the one whose path `visit` saw last
/// confirmed as minimal — is the same leaf the serial explorer stops
/// at, independent of worker count and scheduling. Callers needing the
/// winning run should record `(path, data)` per violation and keep the
/// lex-least, mirroring the explorer's rule.
pub fn explore_dpor_par<F, V>(
    factory: &F,
    max_steps: usize,
    threads: usize,
    visit: &V,
) -> DporOutcome
where
    F: Fn() -> Machine + Sync,
    V: Fn(&RunResult, &[usize]) -> bool + Sync,
{
    let frontier: Frontier<WorkItem> = Frontier::new(threads.max(1));
    let donate = |from: usize, item: WorkItem| {
        flight::emit(
            EventKind::RevisitEnqueued,
            item.prefix.len() as u64,
            item.next as u64,
        );
        frontier.push(from, item);
    };
    donate(
        SEED_WORKER,
        WorkItem {
            prefix: Vec::new(),
            sleep: Vec::new(),
            next: 0,
        },
    );
    let best: Mutex<Option<Vec<usize>>> = Mutex::new(None);
    let merged: Mutex<DporOutcome> = Mutex::new(DporOutcome::default());
    thread::scope(|scope| {
        for me in 0..threads.max(1) {
            let (frontier, donate) = (&frontier, &donate);
            let best = &best;
            let merged = &merged;
            scope.spawn(move || {
                let mut local = DporOutcome::default();
                let mut lane = WorkerLane::default();
                loop {
                    let wait = Instant::now();
                    let Some((from, item)) = frontier.pop(me) else {
                        lane.idle_ns += elapsed_ns(wait);
                        break;
                    };
                    if from != me {
                        flight::emit(
                            EventKind::FrontierSteal,
                            item.prefix.len() as u64,
                            from as u64,
                        );
                        lane.steal_ns += elapsed_ns(wait);
                        lane.steals += 1;
                    } else {
                        lane.idle_ns += elapsed_ns(wait);
                    }
                    let busy = Instant::now();
                    if beyond(&item.prefix, &best.lock().unwrap()) {
                        lane.busy_ns += elapsed_ns(busy);
                        continue; // a smaller violation rules this subtree out
                    }
                    let mut cursor = DporCursor::with_base(item.prefix, item.sleep, item.next);
                    loop {
                        if beyond(&cursor.path(), &best.lock().unwrap()) {
                            break; // cursor runs are lex-increasing: all later ones beyond too
                        }
                        cursor.rewind();
                        let run_start = Instant::now();
                        let result = factory().run(&mut cursor, max_steps);
                        local.waste.run_ns.record(elapsed_ns(run_start));
                        local.executed += 1;
                        lane.runs += 1;
                        local.stats.absorb(&result.stats);
                        if result.aborted {
                            local.blocked += 1;
                            local
                                .waste
                                .note_blocked(cursor.blocked_depth().unwrap_or_default());
                        } else {
                            if result.completed {
                                local.classes += 1;
                                local.races +=
                                    count_races_into(&result.footprints, &mut local.waste);
                            } else {
                                local.truncated += 1;
                            }
                            if visit(&result, &cursor.path()) {
                                local.stopped_early = true;
                                let path = cursor.path();
                                let mut b = best.lock().unwrap();
                                if !beyond(&path, &b) || b.is_none() {
                                    *b = Some(path);
                                }
                            }
                        }
                        if !cursor.advance() {
                            break;
                        }
                        if frontier.hungry() {
                            if let Some((prefix, sleep, next)) = cursor.split_shallowest() {
                                donate(
                                    me,
                                    WorkItem {
                                        prefix,
                                        sleep,
                                        next,
                                    },
                                );
                            }
                        }
                    }
                    local.sleep_skips += cursor.sleep_skips;
                    lane.busy_ns += elapsed_ns(busy);
                }
                // Publish this worker's lane at its own index so the
                // by-index merge in `absorb` keeps lanes distinct.
                local.waste.workers.resize(me + 1, WorkerLane::default());
                local.waste.workers[me] = lane;
                merged.lock().unwrap().absorb(&local);
            });
        }
    });
    let mut out = merged.into_inner().unwrap();
    out.frontier_steals = frontier.steals();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::{Var, X, Y};
    use jungle_core::op::{Command, Op};
    use jungle_memsim::process::FnProcess;
    use jungle_memsim::{HwModel, PInstr, Process, Step};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Two CPUs, each storing then loading (SB-shaped litmus); under
    /// TSO this has store-buffer interleavings, giving a real schedule
    /// tree with independent cross-CPU transitions to reduce.
    fn sb_machine() -> Machine {
        fn proc(wa: u32, ra: u32, wv: Var, rv: Var) -> Box<dyn Process> {
            let wr = Op::Cmd(Command::Write { var: wv, val: 1 });
            let mut st = 0;
            Box::new(FnProcess::new(move |last| {
                st += 1;
                match st {
                    1 => Step::Inv(wr.clone()),
                    2 => Step::Instr(PInstr::Store(wa, 1)),
                    3 => Step::Resp(wr.clone()),
                    4 => Step::Inv(Op::Cmd(Command::Read { var: rv, val: 0 })),
                    5 => Step::Instr(PInstr::Load(ra)),
                    6 => Step::Resp(Op::Cmd(Command::Read {
                        var: rv,
                        val: last.unwrap(),
                    })),
                    _ => Step::Done,
                }
            }))
        }
        Machine::new(HwModel::Tso, vec![proc(0, 1, X, Y), proc(1, 0, Y, X)])
    }

    fn brute_keys(max_steps: usize) -> (BTreeSet<u64>, usize) {
        let mut keys = BTreeSet::new();
        let out = jungle_memsim::explore(sb_machine, max_steps, |r| {
            if r.completed {
                keys.insert(r.trace.cache_key());
            }
            false
        });
        (keys, out.runs)
    }

    #[test]
    fn serial_dpor_covers_every_class_with_fewer_runs() {
        let (brute, brute_runs) = brute_keys(64);
        let mut dpor = BTreeSet::new();
        let out = explore_dpor(sb_machine, 64, |r| {
            if r.completed {
                dpor.insert(r.trace.cache_key());
            }
            false
        });
        assert_eq!(dpor, brute, "DPOR must visit the same history classes");
        assert!(out.executed <= brute_runs, "reduction never inflates");
        assert!(out.sleep_skips > 0, "SB litmus has independent transitions");
        assert_eq!(out.classes, out.executed - out.blocked - out.truncated);
        // Waste attribution is exhaustive and consistent.
        assert_eq!(out.waste.blocked, out.blocked as u64);
        assert_eq!(
            out.waste.blocked_by_depth.iter().sum::<u64>(),
            out.blocked as u64,
            "every blocked probe is attributed to a depth"
        );
        assert_eq!(out.waste.race_total(), out.races);
        assert_eq!(out.waste.run_ns.count, out.executed as u64);
        assert_eq!(out.waste.workers.len(), 1, "serial run is one lane");
        assert_eq!(out.waste.workers[0].runs, out.executed as u64);
        assert_eq!(out.waste.workers[0].idle_ns, 0);
    }

    #[test]
    fn parallel_dpor_matches_serial_classes_at_any_width() {
        let (brute, _) = brute_keys(64);
        for threads in [1, 2, 4] {
            let keys: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
            let out = explore_dpor_par(
                &sb_machine,
                64,
                threads,
                &|r: &RunResult, _path: &[usize]| {
                    if r.completed {
                        keys.lock().unwrap().insert(r.trace.cache_key());
                    }
                    false
                },
            );
            assert_eq!(
                keys.into_inner().unwrap(),
                brute,
                "{threads} workers must cover the same classes"
            );
            if threads > 1 {
                assert!(out.frontier_steals >= 1, "seed pop counts as a steal");
            }
            assert_eq!(out.waste.blocked, out.blocked as u64);
            assert_eq!(
                out.waste.blocked_by_depth.iter().sum::<u64>(),
                out.blocked as u64
            );
            assert_eq!(out.waste.race_total(), out.races);
            assert!(out.waste.workers.len() <= threads);
            assert_eq!(
                out.waste.workers.iter().map(|w| w.runs).sum::<u64>(),
                out.executed as u64,
                "every run belongs to exactly one lane"
            );
            assert_eq!(
                out.waste.workers.iter().map(|w| w.steals).sum::<u64>(),
                out.frontier_steals
            );
        }
    }

    #[test]
    fn early_stop_reports_first_class() {
        let count = AtomicUsize::new(0);
        let out = explore_dpor(sb_machine, 64, |r| {
            r.completed && count.fetch_add(1, Ordering::Relaxed) == 0
        });
        assert!(out.stopped_early);
        assert_eq!(out.classes, 1);
    }
}
