//! Replay determinism, the sweep's counterexample as the one recording,
//! and shrinker correctness.
//!
//! The core contract: replaying the decisions any machine run logged,
//! on the same program/model, must reproduce the *identical* trace —
//! same structural fingerprint, no divergence — for every entry in the
//! model registry and any process count, and for the counterexample of
//! either sweep driver. A random sweep's counterexample, at any worker
//! count, is the run a serial loop over the seeds meets first; the
//! Theorem 1 logs are pinned as they were when a separate recording
//! loop produced them. The shrinker's contract: the minimized log still
//! replays to a violating run, is never longer than the original, and
//! classifies under the same Theorem 1 class.

use jungle_core::ids::{X, Y};
use jungle_core::par::ParallelConfig;
use jungle_mc::algos::{GlobalLockTm, SkipWriteTm};
use jungle_mc::explain::explain_trace;
use jungle_mc::theorems::{all_fixed_experiments, lemma1, thm1_case1, thm1_case3, thm1_suite};
use jungle_mc::{
    check_all_traces, entry, machine_for, registry, trace_satisfies, CheckKind, Counterexample,
    Program, Schedules, SeedScheduler, SharedVerdictMemo, Stmt, Sweep, SweepSeeds, ThreadProg,
    TxOp,
};
use jungle_memsim::RandomScheduler;
use jungle_replay::{
    log_of, record_experiment, replay, replay_on, shrink, ScheduleLog, FORMAT_VERSION,
};
use proptest::prelude::*;

const MAX_STEPS: usize = 20_000;

/// A small program with `procs` simulated processes mixing
/// transactional and plain accesses.
fn program(procs: usize) -> Program {
    let threads = (0..procs)
        .map(|i| match i % 4 {
            0 => ThreadProg(vec![
                Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)]),
                Stmt::NtRead(X),
            ]),
            1 => ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
            2 => ThreadProg(vec![Stmt::NtWrite(Y, 7), Stmt::NtRead(Y)]),
            _ => ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X)])]),
        })
        .collect();
    Program(threads)
}

/// Run `program` once on a registry entry under seed `seed` and wrap
/// the decisions the run logged into a log.
fn record_run(p: &Program, entry: &jungle_mc::ModelEntry, seed: u64) -> Option<ScheduleLog> {
    let r =
        machine_for(p, &GlobalLockTm, entry.exec).run(&mut RandomScheduler::new(seed), MAX_STEPS);
    if !r.completed {
        return None;
    }
    Some(ScheduleLog {
        version: FORMAT_VERSION,
        experiment: None,
        model: entry.key.to_string(),
        kind: CheckKind::Opacity,
        seed: Some(seed),
        max_steps: MAX_STEPS,
        fingerprint: r.trace.cache_key(),
        violating: false,
        class: None,
        decisions: r.decisions,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Record → replay reproduces the identical history fingerprint for
    /// all 8 registry entries at 1, 2 and 4 simulated procs.
    #[test]
    fn record_replay_fingerprints_agree(seed in 0u64..1_000) {
        prop_assert_eq!(registry().len(), 8, "registry grew; extend this sweep");
        for entry in registry() {
            for procs in [1usize, 2, 4] {
                let p = program(procs);
                let Some(log) = record_run(&p, entry, seed) else { continue };
                let out = replay_on(&log, &p, &GlobalLockTm, entry, CheckKind::Opacity);
                prop_assert!(
                    out.completed,
                    "replay truncated under {} at {} procs", entry.key, procs
                );
                prop_assert!(
                    out.divergence.is_none(),
                    "replay diverged under {} at {} procs: {:?}",
                    entry.key, procs, out.divergence
                );
                prop_assert_eq!(
                    out.fingerprint, log.fingerprint,
                    "fingerprint changed under {} at {} procs", entry.key, procs
                );
                prop_assert!(out.matches);
            }
        }
    }
}

#[test]
fn tampered_log_reports_divergence() {
    let e = registry().iter().find(|e| e.key == "SC").unwrap();
    let p = program(2);
    let log = record_run(&p, e, 3).expect("SC runs complete");
    assert!(log.decisions.len() > 4, "need a mid-run decision to tamper");
    let mut tampered = log.clone();
    let mid = tampered.decisions.len() / 2;
    tampered.decisions[mid].action ^= 0xffff_0000_0000; // impossible encoding
    let out = replay_on(&tampered, &p, &GlobalLockTm, e, CheckKind::Opacity);
    let d = out.divergence.expect("tampered action must be flagged");
    assert_eq!(d.step, mid);
    assert!(!out.matches);
    // The untampered log still matches.
    assert!(replay_on(&log, &p, &GlobalLockTm, e, CheckKind::Opacity).matches);
}

#[test]
fn recorded_violation_replays_and_shrinks() {
    // Lemma 1 violates on nearly every schedule, so recording is cheap.
    let exp = lemma1();
    let rec = record_experiment(&exp, SweepSeeds::new(0, 50), 4_000)
        .expect("lemma1 must violate within 50 seeds");
    assert!(rec.log.violating);
    assert_eq!(rec.log.fingerprint, rec.trace.cache_key());
    assert_eq!(rec.log.experiment.as_deref(), Some("lemma1"));

    // Replaying the raw log reproduces the identical violating history.
    let out = replay(&rec.log, &exp);
    assert!(out.matches, "divergence: {:?}", out.divergence);
    assert!(out.violating);

    // The minimized log still violates and is no longer than the
    // original.
    let (min, stats) = shrink(&rec.log, &exp);
    assert!(min.decisions.len() <= rec.log.decisions.len());
    assert_eq!(stats.final_decisions, min.decisions.len());
    assert!(stats.rounds >= 1);
    let min_out = replay(&min, &exp);
    assert!(min_out.completed);
    assert!(min_out.violating, "shrunk log must still violate");
    assert!(
        min_out.divergence.is_none(),
        "normalized shrunk logs replay divergence-free: {:?}",
        min_out.divergence
    );
    assert_eq!(min_out.fingerprint, min.fingerprint);
}

#[test]
fn shrunk_thm1_log_keeps_its_class() {
    // The Mrr construction under SC (Figure 5(b)).
    let exp = thm1_case1(&jungle_core::model::Sc);
    let rec = record_experiment(&exp, SweepSeeds::new(0, 2_000), 8_000)
        .expect("thm1-case1/SC must violate within the sweep");
    assert_eq!(rec.log.class.as_deref(), Some("Mrr"));
    let (min, _) = shrink(&rec.log, &exp);
    assert_eq!(
        min.class.as_deref(),
        Some("Mrr"),
        "minimization must not change the Theorem 1 class"
    );
    assert!(replay(&min, &exp).violating);
}

#[test]
fn shrunk_mrw_log_keeps_its_class() {
    // The Mrw construction under PSO (Figure 5(d)) — the EXPERIMENTS.md
    // walkthrough case.
    let exp = thm1_case3(&jungle_core::model::Pso);
    let rec = record_experiment(&exp, SweepSeeds::new(0, 2_000), 8_000)
        .expect("thm1-case3/PSO must violate within the sweep");
    assert_eq!(rec.log.class.as_deref(), Some("Mrw"));
    let (min, stats) = shrink(&rec.log, &exp);
    assert!(stats.final_decisions <= stats.initial_decisions);
    assert_eq!(min.class.as_deref(), Some("Mrw"));
    let out = replay(&min, &exp);
    assert!(out.violating && out.divergence.is_none());
}

/// The seeds and step bound `report` sweeps the fixed experiments with.
const REPORT_SEEDS: SweepSeeds = SweepSeeds {
    base: 0,
    runs: 2_000,
};
const REPORT_STEPS: usize = 8_000;

/// The first violating run of a serial loop over [`REPORT_SEEDS`], each
/// run on a freshly built machine: the loop `record_experiment` ran
/// before sweeps kept their counterexamples.
fn first_violating_seed(exp: &jungle_mc::Experiment) -> Option<Counterexample> {
    REPORT_SEEDS.iter().find_map(|seed| {
        let r = machine_for(&exp.program, exp.algo, exp.entry.exec)
            .run(&mut SeedScheduler::new(seed), REPORT_STEPS);
        (r.completed && !trace_satisfies(&r.trace, exp.entry.model, exp.kind)).then_some(
            Counterexample {
                trace: r.trace,
                decisions: r.decisions,
                seed: Some(seed),
            },
        )
    })
}

#[test]
fn every_worker_count_finds_the_first_violating_seed() {
    let memo = SharedVerdictMemo::new();
    let mut checked = 0;
    for exp in all_fixed_experiments()
        .iter()
        .filter(|e| e.expects_violation())
    {
        let want =
            first_violating_seed(exp).unwrap_or_else(|| panic!("{}: no seed violates", exp.id));
        for threads in [1, 2, 4] {
            let got = Sweep {
                parallel: Some(ParallelConfig::with_threads(threads)),
                memo: Some(&memo),
                ..exp.sweep(Schedules::Random(REPORT_SEEDS), REPORT_STEPS)
            }
            .run()
            .violation
            .unwrap_or_else(|| panic!("{} at {threads} workers: no violation", exp.id));
            assert_eq!(got.seed, want.seed, "{} at {threads} workers", exp.id);
            assert_eq!(
                got.decisions, want.decisions,
                "{} at {threads} workers",
                exp.id
            );
            assert_eq!(
                got.trace.instrs(),
                want.trace.instrs(),
                "{} at {threads} workers",
                exp.id
            );
        }
        checked += 1;
    }
    assert!(checked >= thm1_suite().len());
}

#[test]
fn theorem1_logs_are_the_ones_recorded_before() {
    // (seed, decisions, class, fingerprint) of each raw log, and
    // (decisions, fingerprint) of its shrunk one, as `report --record`
    // wrote them when a separate seed loop recorded them.
    #[rustfmt::skip]
    let pinned: [(u64, usize, &str, u64, usize, u64); 4] = [
        (267, 22, "Mrr", 0x2931_3b10_815b_0650, 16, 0x2931_3b10_815b_0650),
        (0, 21, "Mwr", 0x6087_6966_f0f1_f017, 10, 0x2f00_63e2_f3ed_0591),
        (267, 37, "Mrw", 0xc707_c9e4_2ea3_f0c7, 19, 0xc707_c9e4_2ea3_f0c7),
        (0, 41, "Mww", 0xd1cd_9709_84d1_0f03, 10, 0x04a4_afd4_8c8f_6453),
    ];
    let memo = SharedVerdictMemo::new();
    for (exp, pin) in thm1_suite().iter().zip(pinned) {
        let cx = exp
            .run_shared(
                REPORT_SEEDS,
                REPORT_STEPS,
                &ParallelConfig::default(),
                &memo,
            )
            .violation
            .unwrap_or_else(|| panic!("{}: no violation", exp.id));
        let class = explain_trace(&cx.trace, exp.entry.model, exp.kind)
            .unwrap()
            .class;
        let log = log_of(exp, &cx, REPORT_STEPS, class);
        assert_eq!(
            record_experiment(exp, REPORT_SEEDS, REPORT_STEPS).map(|r| r.log),
            Some(log.clone())
        );
        let (min, _) = shrink(&log, exp);
        assert_eq!(
            (
                log.seed.unwrap(),
                log.decisions.len(),
                log.class.as_deref().unwrap(),
                log.fingerprint,
                min.decisions.len(),
                min.fingerprint
            ),
            pin,
            "{}",
            exp.id
        );
        assert_eq!(min.class, log.class, "{}", exp.id);
    }
}

#[test]
fn an_exhaustive_counterexample_replays() {
    // Lemma 1's two-thread shape: the DPOR explorer's violating run.
    let p = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
        ThreadProg(vec![Stmt::NtRead(X)]),
    ]);
    let e = entry("TSO").unwrap();
    let v = check_all_traces(&p, &SkipWriteTm, e, CheckKind::Opacity, 4_000);
    let cx = v.violation.expect("SkipWriteTm violates Lemma 1");
    assert_eq!(cx.seed, None);
    let log = ScheduleLog {
        version: FORMAT_VERSION,
        experiment: None,
        model: e.key.to_string(),
        kind: CheckKind::Opacity,
        seed: None,
        max_steps: 4_000,
        fingerprint: cx.trace.cache_key(),
        violating: true,
        class: None,
        decisions: cx.decisions,
    };
    let out = replay_on(&log, &p, &SkipWriteTm, e, CheckKind::Opacity);
    assert_eq!(out.divergence, None);
    assert_eq!(out.fingerprint, cx.trace.cache_key());
    assert!(out.matches && out.violating);
}
