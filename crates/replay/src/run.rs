//! Recording sweeps and replaying logs.
//!
//! [`record_experiment`] mirrors the serial randomized
//! [`Sweep`](jungle_mc::Sweep) (`Schedules::Random(seeds)`, no
//! `parallel`) *exactly* — same seed order, same
//! even-uniform/odd-bursty scheduler rule via
//! [`scheduler_for_seed`](jungle_mc::scheduler_for_seed), same
//! machine construction via [`machine_for`](jungle_mc::machine_for),
//! same per-trace verdict via
//! [`trace_satisfies`] —
//! but wraps each scheduler in a
//! [`RecordingScheduler`](jungle_memsim::RecordingScheduler), so the
//! first violating seed's decision sequence becomes a [`ScheduleLog`].
//!
//! [`replay`] re-executes a log through a
//! [`ReplayScheduler`](jungle_memsim::ReplayScheduler) on any
//! program/algorithm/[`ModelEntry`] triple and reports whether the run
//! completed, whether it still violates the property, whether its
//! trace fingerprint equals the recorded one, and — if not — the
//! first diverging choose point.

use crate::log::{ScheduleLog, FORMAT_VERSION};
use jungle_core::registry::ModelEntry;
use jungle_isa::trace::Trace;
use jungle_mc::algos::TmAlgo;
use jungle_mc::explain::explain_trace;
use jungle_mc::theorems::Experiment;
use jungle_mc::Program;
use jungle_mc::{machine_for, scheduler_for_seed, trace_satisfies, CheckKind, SweepSeeds};
use jungle_memsim::{Divergence, RecordingScheduler, ReplayScheduler};
use jungle_obs::trace::{self as flight, EventKind};

/// A successful recording: the log plus the violating trace it
/// captured.
pub struct Recording {
    /// The portable schedule log.
    pub log: ScheduleLog,
    /// The recorded violating trace.
    pub trace: Trace,
}

/// Re-run the randomized sweep of `exp` with recording schedulers and
/// return the log of the **first completed violating run** in seed
/// order — the same run the serial sweep reports. `None` when no seed
/// in the range violates (either the experiment is a positive result,
/// or the range is too small).
pub fn record_experiment(
    exp: &Experiment,
    seeds: SweepSeeds,
    max_steps: usize,
) -> Option<Recording> {
    for seed in seeds.iter() {
        let mut base = scheduler_for_seed(seed);
        let mut rec = RecordingScheduler::new(base.as_mut());
        let r = machine_for(&exp.program, exp.algo, exp.entry.exec).run(&mut rec, max_steps);
        if !r.completed {
            continue;
        }
        if trace_satisfies(&r.trace, exp.entry.model, exp.kind) {
            continue;
        }
        let class = explain_trace(&r.trace, exp.entry.model, exp.kind)
            .ok()
            .and_then(|ex| ex.class)
            .map(|c| c.name().to_string());
        let log = ScheduleLog {
            version: FORMAT_VERSION,
            experiment: Some(exp.id.clone()),
            model: exp.entry.key.to_string(),
            kind: exp.kind,
            seed: Some(seed),
            max_steps,
            fingerprint: r.trace.cache_key(),
            violating: true,
            class,
            decisions: rec.into_log(),
        };
        return Some(Recording {
            log,
            trace: r.trace,
        });
    }
    None
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
    let mut sched = ReplayScheduler::new(log.decisions.clone());
    let r = machine_for(program, algo, entry.exec).run(&mut sched, log.max_steps);
    let fingerprint = if r.completed { r.trace.cache_key() } else { 0 };
    let violating = r.completed && !trace_satisfies(&r.trace, entry.model, kind);
    ReplayOutcome {
        completed: r.completed,
        fingerprint,
        matches: r.completed && sched.divergence().is_none() && fingerprint == log.fingerprint,
        divergence: sched.divergence(),
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
