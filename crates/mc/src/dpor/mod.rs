//! Dynamic partial-order reduction over the memsim schedule tree.
//!
//! Brute-force enumeration ([`explore`](jungle_memsim::explore) plus
//! trace-key dedup) executes every schedule and discards the equivalent
//! ones after the fact — hundreds of thousands of runs to surface a few
//! thousand distinct histories. This module replaces *enumerate then
//! dedup* with *never enumerate the duplicate*, and *never start a run
//! that will be cut*: [`cursor`] holds the one explorer
//! (`DporCursor`) — source sets decide which sibling branches a
//! choice point opens (one happens-before pass over each run's
//! [`Footprint`](jungle_memsim::Footprint)s finds the races that demand
//! them), sleep sets keep a class from completing twice — and
//! [`explore_dpor`] drives it.
//!
//! The exploration is one serial depth-first search. A subtree handed
//! to another worker could not receive the backtrack points that runs
//! elsewhere discover for it without state shared between workers, and
//! there is nothing left to share out: the largest exhaustive sweep in
//! the repository takes tens of milliseconds.
//!
//! **Verdicts and witnesses.** Every Mazurkiewicz class of complete
//! runs is visited exactly once, so a sweep's verdict is the one
//! brute-force enumeration gives. The explorer does not meet the
//! classes in the lexicographic order of the full tree, so the
//! violation it stops at is the first violating class in *its own*
//! depth-first order — deterministic, hence equal on repeated runs, but
//! not in general the one enumeration meets first.

pub mod cursor;

pub(crate) use cursor::DporCursor;

use jungle_memsim::{Machine, RunResult};
use jungle_obs::sim::{DporStats, MachineStats};

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
    /// Racing transition pairs flagged, each once (by the run that
    /// first executed its later decision).
    pub races: u64,
    /// The visitor stopped the exploration.
    pub stopped_early: bool,
    /// Machine-level totals across every executed run.
    pub stats: MachineStats,
    /// Races by footprint-kind pair; `waste.race_total()` always equals
    /// `races`.
    pub waste: DporStats,
}

/// Source-set DPOR sweep. Builds the machine once via `factory` and
/// runs a copy of it per schedule ([`Machine::run_from`]), visits every
/// non-aborted run in the explorer's depth-first order, and stops early
/// when `visit` returns `true` (the first violating class in that
/// order).
pub fn explore_dpor(
    factory: impl FnOnce() -> Machine,
    max_steps: usize,
    mut visit: impl FnMut(&RunResult) -> bool,
) -> DporOutcome {
    let root = factory();
    let mut machine = root.clone();
    let mut cursor = DporCursor::new();
    let mut out = DporOutcome::default();
    loop {
        cursor.rewind();
        let result = machine.run_from(&root, &mut cursor, max_steps);
        out.executed += 1;
        out.stats.absorb(&result.stats);
        if result.aborted {
            out.blocked += 1;
        } else {
            if result.completed {
                out.classes += 1;
            } else {
                out.truncated += 1;
            }
            if visit(result) {
                out.stopped_early = true;
                break;
            }
        }
        if !cursor.advance() {
            break;
        }
    }
    out.sleep_skips = cursor.sleep_skips;
    out.waste = cursor.waste;
    out.races = out.waste.race_total();
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
        Machine::new(HwModel::TSO_FWD, vec![proc(0, 1, X, Y), proc(1, 0, Y, X)])
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
        assert_eq!(out.classes, out.executed - out.blocked - out.truncated);
        assert_eq!(out.blocked, 0, "no run of this tree is started in vain");
        // The heat table accounts for every race flagged.
        assert!(out.races > 0, "the two CPUs' conflicting accesses race");
        assert_eq!(out.waste.race_total(), out.races);
    }

    #[test]
    fn early_stop_reports_first_class() {
        let out = explore_dpor(sb_machine, 64, |r| r.completed);
        assert!(out.stopped_early);
        assert_eq!(out.classes, 1);
    }
}
