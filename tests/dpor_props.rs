//! DPOR equivalence and determinism properties.
//!
//! The partial-order-reduced explorer (`jungle::mc::dpor`) must be
//! *observationally identical* to plain schedule enumeration:
//!
//! * **Class-set oracle** — over a small corpus of programs and every
//!   registry model, [`class_sweep_dpor`] visits exactly the
//!   `Trace::cache_key` set that [`class_sweep_enumerative`] visits, in
//!   strictly fewer machine runs — and, on the three exhaustive
//!   experiments the report runs, in at least
//!   [`DPOR_REDUCTION_FLOOR`] times fewer, one complete run per class.
//! * **Verdict oracle** — [`check_all_traces`] (DPOR-backed) and
//!   [`first_violation_enumerative`] (the retired brute-force sweep)
//!   agree on the verdict and on the witness fingerprint, for both
//!   check kinds and for passing *and* violating algorithms.
//! * **Worker determinism** — the work-stealing frontier returns the
//!   same verdict and the same (lexicographically least) witness at 1,
//!   2 and 4 workers.
//!
//! The enumerative reference lives here, not in `jungle-mc`: it is
//! built from [`explore`], [`explore_dpor`], [`machine_for`],
//! [`trace_satisfies`] and `Trace::cache_key` alone, so it shares no
//! judging code with the sweep it checks. The `report` binary prints
//! what its DPOR sweeps did and leaves proving them right to this file.

use jungle::core::ids::{X, Y};
use jungle::core::par::ParallelConfig;
use jungle::core::registry::{entry, registry, ModelEntry};
use jungle::mc::algos::TmAlgo;
use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
use jungle::mc::theorems::all_fixed_experiments;
use jungle::mc::{
    check_all_traces, explore_dpor, machine_for, trace_satisfies, CheckKind, Experiment,
    GlobalLockTm, SharedVerdictMemo, SkipWriteTm, Sweep,
};
use jungle::memsim::{explore, RunResult};
use std::collections::HashSet;

const MAX_STEPS: usize = 4_000;

/// The step bound `report` runs the fixed experiments under.
const FIXED_MAX_STEPS: usize = 8_000;

/// Enumeration must execute at least this many times the runs DPOR
/// does on each fixed exhaustive experiment (observed: 170,544 against
/// 1,820, 93×).
const DPOR_REDUCTION_FLOOR: u64 = 10;

/// The structural history classes an exploration visits, with the run
/// count it took to visit them.
#[derive(Default)]
struct ClassSweep {
    /// `Trace::cache_key` of every completed run.
    keys: HashSet<u64>,
    /// Machine runs executed (for DPOR this includes blocked sleep-set
    /// probes that abort partway; `completed` is the useful subset).
    executed: u64,
    /// Runs that ran to completion and yielded a class key.
    completed: u64,
    /// Runs cut off by the step bound.
    truncated: u64,
}

impl ClassSweep {
    fn note(&mut self, r: &RunResult) -> bool {
        if r.completed {
            self.completed += 1;
            self.keys.insert(r.trace.cache_key());
        }
        false
    }
}

/// Enumerate every schedule and collect the completed-trace class keys.
fn class_sweep_enumerative(
    p: &Program,
    algo: &dyn TmAlgo,
    e: &ModelEntry,
    max_steps: usize,
) -> ClassSweep {
    let mut sweep = ClassSweep::default();
    let out = explore(
        || machine_for(p, algo, e.exec),
        max_steps,
        |r| sweep.note(r),
    );
    sweep.executed = out.runs as u64;
    sweep.truncated = out.truncated as u64;
    sweep
}

/// Collect the completed-trace class keys the DPOR explorer visits.
fn class_sweep_dpor(
    p: &Program,
    algo: &dyn TmAlgo,
    e: &ModelEntry,
    max_steps: usize,
) -> ClassSweep {
    let mut sweep = ClassSweep::default();
    let out = explore_dpor(
        || machine_for(p, algo, e.exec),
        max_steps,
        |r| sweep.note(r),
    );
    sweep.executed = out.executed as u64;
    sweep.truncated = out.truncated as u64;
    sweep
}

/// The pre-DPOR sweep: execute every schedule, check each completed
/// trace once per class key, stop at the first violation in enumeration
/// order and return its key (`None`: every trace satisfies `kind`).
fn first_violation_enumerative(
    p: &Program,
    algo: &dyn TmAlgo,
    e: &ModelEntry,
    kind: CheckKind,
    max_steps: usize,
) -> Option<u64> {
    let mut seen = HashSet::new();
    let mut violation = None;
    explore(
        || machine_for(p, algo, e.exec),
        max_steps,
        |r| {
            if !r.completed
                || !seen.insert(r.trace.cache_key())
                || trace_satisfies(&r.trace, e.model, kind)
            {
                return false;
            }
            violation = Some(r.trace.cache_key());
            true
        },
    );
    violation
}

/// The experiments `report` sweeps exhaustively: `thm3-litmus`,
/// `thm7-litmus/SC`, `thm7-litmus/Relaxed`.
fn fixed_exhaustive() -> Vec<Experiment> {
    let fixed: Vec<Experiment> = all_fixed_experiments()
        .into_iter()
        .filter(|e| e.exhaustive)
        .collect();
    assert_eq!(fixed.len(), 3, "the report's DPOR table has three rows");
    fixed
}

/// Figure-1-flavoured litmus: a committing transactional write racing
/// uninstrumented reads (the paper's instrumentation battleground).
fn litmus() -> Program {
    Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)])]),
        ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(X)]),
    ])
}

/// Non-transactional stress: cross-thread store/load mix that exposes
/// store-buffer reordering under the relaxed execution disciplines.
fn stress() -> Program {
    Program(vec![
        ThreadProg(vec![Stmt::NtWrite(X, 1), Stmt::NtRead(Y)]),
        ThreadProg(vec![Stmt::NtWrite(Y, 1)]),
    ])
}

/// Lemma 1's violating shape: a TM that never publishes transactional
/// writes, caught by the very next uninstrumented read.
fn skipped_write() -> Program {
    Program(vec![ThreadProg(vec![
        Stmt::txn(vec![TxOp::Write(X, 5)]),
        Stmt::NtRead(X),
    ])])
}

#[test]
fn dpor_visits_exactly_the_enumerated_class_set() {
    // Returns the (enumerated, DPOR) sweeps for the extra assertions
    // the fixed experiments carry.
    let oracle = |name: &str, p: &Program, algo: &dyn TmAlgo, e: &ModelEntry, max_steps| {
        let brute = class_sweep_enumerative(p, algo, e, max_steps);
        let dpor = class_sweep_dpor(p, algo, e, max_steps);
        assert_eq!(
            dpor.keys, brute.keys,
            "{name}/{}: DPOR class-key set diverges from enumeration",
            e.key
        );
        assert_eq!(dpor.truncated, brute.truncated, "{name}/{}", e.key);
        assert!(
            dpor.executed < brute.executed,
            "{name}/{}: no reduction ({} vs {})",
            e.key,
            dpor.executed,
            brute.executed
        );
        // Sleep sets guarantee no Mazurkiewicz class is completed
        // twice, so completed runs can never undercut the key count.
        assert!(
            dpor.completed >= dpor.keys.len() as u64,
            "{name}/{}: fewer complete runs than distinct keys",
            e.key
        );
        (brute, dpor)
    };
    for (name, p) in [("litmus", litmus()), ("stress", stress())] {
        for e in registry() {
            oracle(name, &p, &GlobalLockTm, e, MAX_STEPS);
        }
    }
    for x in fixed_exhaustive() {
        let (brute, dpor) = oracle(&x.id, &x.program, x.algo, &x.entry, FIXED_MAX_STEPS);
        assert!(
            brute.executed >= DPOR_REDUCTION_FLOOR * dpor.executed,
            "{}: reduction below {DPOR_REDUCTION_FLOOR}x ({} brute / {} dpor)",
            x.id,
            brute.executed,
            dpor.executed
        );
        assert_eq!(
            dpor.completed,
            dpor.keys.len() as u64,
            "{}: more than one complete run per class",
            x.id
        );
        assert_eq!(dpor.truncated, 0, "{}", x.id);
    }
}

#[test]
fn dpor_checker_agrees_with_enumerative_checker() {
    // (program, algo, expected-ok-under-GlobalLock-semantics)
    let corpus: [(&str, Program, &dyn TmAlgo); 3] = [
        ("litmus/global-lock", litmus(), &GlobalLockTm),
        ("stress/global-lock", stress(), &GlobalLockTm),
        ("lemma1/skip-write", skipped_write(), &SkipWriteTm),
    ];
    // SC keeps the enumerative side tractable; the class-set oracle
    // above already covers every registry model.
    let e = entry("SC").unwrap();
    for (name, p, algo) in corpus {
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            let fast = check_all_traces(&p, algo, e, kind, MAX_STEPS);
            let slow = first_violation_enumerative(&p, algo, e, kind, MAX_STEPS);
            assert_eq!(
                fast.ok,
                slow.is_none(),
                "{name}/{kind:?}: DPOR verdict diverges from enumeration"
            );
            assert_eq!(
                fast.violation.as_ref().map(|t| t.cache_key()),
                slow,
                "{name}/{kind:?}: witness fingerprint diverges"
            );
        }
    }
    // Polarity sanity: the corpus exercises both outcomes.
    assert!(check_all_traces(&litmus(), &GlobalLockTm, e, CheckKind::Opacity, MAX_STEPS).ok);
    assert!(
        !check_all_traces(
            &skipped_write(),
            &SkipWriteTm,
            e,
            CheckKind::Opacity,
            MAX_STEPS
        )
        .ok
    );
}

#[test]
fn worker_count_preserves_verdict_and_witness() {
    let memo = SharedVerdictMemo::new();
    let stable = |name: &str, p: &Program, algo: &dyn TmAlgo, e: &ModelEntry, kind, max_steps| {
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 4] {
            let v = Sweep {
                parallel: Some(ParallelConfig::with_threads(threads)),
                memo: Some(&memo),
                ..Sweep::new(p, algo, e, kind, max_steps)
            }
            .run();
            outcomes.push((
                threads,
                v.ok,
                v.violation.as_ref().map(|t| t.cache_key()),
                v.stats.dpor_classes,
            ));
        }
        for w in outcomes.windows(2) {
            assert_eq!(
                (w[0].1, w[0].2),
                (w[1].1, w[1].2),
                "{name}: verdict/witness changed between {} and {} workers",
                w[0].0,
                w[1].0
            );
        }
        // A passing sweep explores everything, so the class count must
        // also be stable across widths.
        if outcomes[0].1 {
            assert!(
                outcomes.windows(2).all(|w| w[0].3 == w[1].3),
                "{name}: class count varies with worker count: {outcomes:?}"
            );
        }
    };
    let cases: [(&str, Program, &dyn TmAlgo, &str); 3] = [
        ("pass", litmus(), &GlobalLockTm, "Relaxed"),
        ("violate", skipped_write(), &SkipWriteTm, "SC"),
        ("violate-relaxed", skipped_write(), &SkipWriteTm, "Relaxed"),
    ];
    for (name, p, algo, key) in cases {
        let e = entry(key).unwrap();
        stable(name, &p, algo, e, CheckKind::Opacity, MAX_STEPS);
    }
    for x in fixed_exhaustive() {
        stable(&x.id, &x.program, x.algo, &x.entry, x.kind, FIXED_MAX_STEPS);
    }
}
