//! Recording sweeps and replaying logs.
//!
//! A machine run logs its own scheduler decisions
//! ([`RunResult::decisions`](jungle_memsim::RunResult::decisions)), and
//! a failing [`Sweep`](jungle_mc::Sweep) keeps them with its violating
//! trace as a [`Counterexample`]. [`log_of`] turns such a counterexample
//! into a [`ScheduleLog`]; [`record_experiment`] runs an experiment's
//! randomized sweep and does exactly that with what it finds.
//!
//! [`replay`] re-executes a log through a
//! [`ReplayScheduler`] on any
//! program/algorithm/[`ModelEntry`] triple and reports whether the run
//! completed, whether it still violates the property, whether its
//! trace fingerprint equals the recorded one, and — if not — the
//! first diverging choose point ([`Divergence::find`]).

use crate::log::{ScheduleLog, FORMAT_VERSION};
use jungle_core::registry::ModelEntry;
use jungle_isa::trace::Trace;
use jungle_mc::algos::TmAlgo;
use jungle_mc::explain::{explain_trace, TheoremClass};
use jungle_mc::theorems::Experiment;
use jungle_mc::Program;
use jungle_mc::{machine_for, trace_satisfies, CheckKind, Counterexample, Schedules, SweepSeeds};
use jungle_memsim::{Divergence, ReplayScheduler};
use jungle_obs::trace::{self as flight, EventKind};

/// A successful recording: the log plus the violating trace it
/// captured.
pub struct Recording {
    /// The portable schedule log.
    pub log: ScheduleLog,
    /// The recorded violating trace.
    pub trace: Trace,
}

/// The schedule log of `cx`, a violating run of `exp`'s sweep under
/// step bound `max_steps`, with the Theorem 1 `class` its explanation
/// assigned.
pub fn log_of(
    exp: &Experiment,
    cx: &Counterexample,
    max_steps: usize,
    class: Option<TheoremClass>,
) -> ScheduleLog {
    ScheduleLog {
        version: FORMAT_VERSION,
        experiment: Some(exp.id.clone()),
        model: exp.entry.key.to_string(),
        kind: exp.kind,
        seed: cx.seed,
        max_steps,
        fingerprint: cx.trace.cache_key(),
        violating: true,
        class: class.map(|c| c.name().to_string()),
        decisions: cx.decisions.clone(),
    }
}

/// Run the serial randomized sweep of `exp` over `seeds` and return the
/// log of its counterexample, the run of the lowest violating seed.
/// `None` when no seed in the range violates (either the experiment is
/// a positive result, or the range is too small).
pub fn record_experiment(
    exp: &Experiment,
    seeds: SweepSeeds,
    max_steps: usize,
) -> Option<Recording> {
    let cx = exp
        .sweep(Schedules::Random(seeds), max_steps)
        .run()
        .violation?;
    let class = explain_trace(&cx.trace, exp.entry.model, exp.kind)
        .ok()
        .and_then(|ex| ex.class);
    Some(Recording {
        log: log_of(exp, &cx, max_steps, class),
        trace: cx.trace,
    })
}

/// What a replayed run did.
pub struct ReplayOutcome {
    /// Did the machine run to completion within the log's step bound?
    pub completed: bool,
    /// `Trace::cache_key` of the replayed run (0 when incomplete).
    pub fingerprint: u64,
    /// `completed` && no divergence && fingerprint equals the recorded
    /// one — the replay reproduced the recorded history exactly.
    pub matches: bool,
    /// First choose point where the replay stopped matching the
    /// recording, if any.
    pub divergence: Option<Divergence>,
    /// Does the replayed trace violate the log's property?
    pub violating: bool,
    /// Machine steps executed.
    pub steps: usize,
    /// The replayed trace (complete runs only).
    pub trace: Option<Trace>,
}

/// Replay `log` on an explicit program/algorithm/model triple. The
/// entry need not be the one the log was recorded under — replaying a
/// schedule under a different registry [`ModelEntry`] answers "would
/// this exact interleaving also violate / still execute the same way
/// over there?" (a divergence means the schedule is not portable to
/// that entry's execution semantics).
pub fn replay_on(
    log: &ScheduleLog,
    program: &Program,
    algo: &dyn TmAlgo,
    entry: &ModelEntry,
    kind: CheckKind,
) -> ReplayOutcome {
    flight::emit(
        EventKind::ReplayBegin,
        log.decisions.len() as u64,
        log.fingerprint,
    );
    let r = machine_for(program, algo, entry.exec)
        .run(&mut ReplayScheduler::new(&log.decisions), log.max_steps);
    let divergence = Divergence::find(&log.decisions, &r.decisions);
    let fingerprint = if r.completed { r.trace.cache_key() } else { 0 };
    let violating = r.completed && !trace_satisfies(&r.trace, entry.model, kind);
    ReplayOutcome {
        completed: r.completed,
        fingerprint,
        matches: r.completed && divergence.is_none() && fingerprint == log.fingerprint,
        divergence,
        violating,
        steps: r.steps,
        trace: r.completed.then_some(r.trace),
    }
}

/// Replay `log` on the experiment it was recorded against (program,
/// algorithm, entry, and property all taken from `exp`).
pub fn replay(log: &ScheduleLog, exp: &Experiment) -> ReplayOutcome {
    replay_on(log, &exp.program, exp.algo, &exp.entry, exp.kind)
}
