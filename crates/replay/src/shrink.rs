//! Delta-debugging minimization of violating schedule logs.
//!
//! The shrinker repeatedly proposes simpler decision sequences —
//! removing chunks (ddmin-style, with halving chunk sizes) and
//! flipping single decisions toward choice 0 — and keeps a candidate
//! only if replaying it still produces a **complete run that violates
//! the property**. Every accepted candidate is *normalized*: the kept
//! decision list is the one the replayed run logged itself, so its
//! option counts and action encodings are exactly what the machine
//! offers (a later replay of the shrunk log is divergence-free), and
//! the longest all-zero suffix is trimmed (replay defaults to choice 0
//! past the script's end, so the suffix is redundant).
//!
//! Progress is measured lexicographically by `(decision count, sum of
//! chosen indices)`; a candidate is accepted only if it strictly
//! decreases the measure, so the loop terminates and the minimized log
//! is never longer than the original.

use crate::log::ScheduleLog;
use crate::run::replay;
use jungle_mc::explain::explain_trace;
use jungle_mc::theorems::Experiment;
use jungle_mc::{machine_for, trace_satisfies};
use jungle_memsim::{ChoicePoint, ReplayScheduler};

/// Counters from one shrink run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Full passes over the candidate space.
    pub rounds: u64,
    /// Candidate decision sequences replayed.
    pub candidates: u64,
    /// Decision count of the (normalized) starting log.
    pub initial_decisions: usize,
    /// Decision count of the minimized log.
    pub final_decisions: usize,
}

/// Replay `decisions` on `exp`; on a complete run, return the
/// decisions the run logged (zero-suffix trimmed), whether it violates
/// the property, and its fingerprint.
fn normalize(
    decisions: &[ChoicePoint],
    exp: &Experiment,
    max_steps: usize,
) -> Option<(Vec<ChoicePoint>, bool, u64)> {
    let r = machine_for(&exp.program, exp.algo, exp.entry.exec)
        .run(&mut ReplayScheduler::new(decisions), max_steps);
    if !r.completed {
        return None;
    }
    let mut log = r.decisions;
    while log.last().is_some_and(|cp| cp.chosen == 0) {
        log.pop();
    }
    let violating = !trace_satisfies(&r.trace, exp.entry.model, exp.kind);
    Some((log, violating, r.trace.cache_key()))
}

fn measure(decisions: &[ChoicePoint]) -> (usize, usize) {
    (
        decisions.len(),
        decisions.iter().map(|cp| cp.chosen).sum::<usize>(),
    )
}

/// Minimize `log` against `exp`: the returned log replays to a
/// complete run that still violates the property, with a decision
/// sequence no longer than the original's, its own replayed
/// fingerprint, and the Theorem 1 class re-derived from the minimized
/// trace (so callers can check it against the original's).
pub fn shrink(log: &ScheduleLog, exp: &Experiment) -> (ScheduleLog, ShrinkStats) {
    let mut stats = ShrinkStats::default();
    // Normalize the starting point; a log that no longer replays to a
    // violating run cannot be shrunk, so it is returned unchanged.
    let Some((mut cur, violating, mut fingerprint)) = normalize(&log.decisions, exp, log.max_steps)
    else {
        stats.initial_decisions = log.decisions.len();
        stats.final_decisions = log.decisions.len();
        return (log.clone(), stats);
    };
    if !violating || measure(&cur) > measure(&log.decisions) {
        // Defensive: normalization must not lose the violation or grow
        // the log; fall back to the original decisions if it would.
        cur = log.decisions.clone();
        fingerprint = log.fingerprint;
    }
    stats.initial_decisions = cur.len();

    // Accept `candidate` if it replays to a completed violating run
    // whose normalized form strictly decreases the measure.
    let try_accept = |cur: &mut Vec<ChoicePoint>,
                      fingerprint: &mut u64,
                      candidate: Vec<ChoicePoint>,
                      stats: &mut ShrinkStats|
     -> bool {
        stats.candidates += 1;
        match normalize(&candidate, exp, log.max_steps) {
            Some((norm, true, fp)) if measure(&norm) < measure(cur) => {
                *cur = norm;
                *fingerprint = fp;
                true
            }
            _ => false,
        }
    };

    loop {
        stats.rounds += 1;
        let mut improved = false;

        // Chunk removal, ddmin-style: halving chunk sizes, restarting
        // at the same size after a successful removal.
        let mut k = (cur.len() / 2).max(1);
        while k >= 1 {
            let mut i = 0;
            while i < cur.len() {
                let mut candidate = cur.clone();
                candidate.drain(i..(i + k).min(candidate.len()));
                if try_accept(&mut cur, &mut fingerprint, candidate, &mut stats) {
                    improved = true;
                    // Re-scan from the start at this chunk size.
                    i = 0;
                } else {
                    i += k;
                }
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }

        // Single-decision flips toward 0: a lower choice index is a
        // simpler schedule (choice 0 is the deterministic default).
        for i in 0..cur.len() {
            if cur[i].chosen == 0 {
                continue;
            }
            let mut candidate = cur.clone();
            candidate[i].chosen = 0;
            if try_accept(&mut cur, &mut fingerprint, candidate, &mut stats) {
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }

    stats.final_decisions = cur.len();
    let mut out = ScheduleLog {
        decisions: cur,
        fingerprint,
        ..log.clone()
    };
    // Re-derive the class from the minimized trace so the caller can
    // verify it matches the original recording's.
    if let Some(trace) = replay(&out, exp).trace {
        out.class = explain_trace(&trace, exp.entry.model, exp.kind)
            .ok()
            .and_then(|ex| ex.class)
            .map(|c| c.name().to_string());
    }
    (out, stats)
}
