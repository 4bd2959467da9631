//! DPOR equivalence and determinism properties.
//!
//! The partial-order-reduced explorer (`jungle::mc::dpor`) must be
//! *observationally identical* to plain schedule enumeration:
//!
//! * **Class-set oracle** — over a corpus of programs (transactional
//!   litmus shapes and the plain store-buffer shapes SB, MP, 2+2W and
//!   two co-enabled drains) and every registry model,
//!   [`class_sweep_dpor`] visits exactly the `Trace::cache_key` set —
//!   and the same final memories — that [`class_sweep_enumerative`]
//!   visits, in strictly fewer machine runs — and, on the three
//!   exhaustive experiments the report runs, in at least
//!   [`DPOR_REDUCTION_FLOOR`] times fewer: one run per class, all of
//!   them complete, none started in vain.
//! * **Verdict oracle** — [`check_all_traces`] (DPOR-backed) and
//!   [`violations_enumerative`] (the retired brute-force sweep) agree on
//!   the verdict, and the witness is one of the violating classes
//!   enumeration finds, for both check kinds and for passing *and*
//!   violating algorithms.
//! * **Determinism** — a sweep returns the same verdict and the same
//!   witness whatever `Sweep::parallel` says (an exhaustive sweep is
//!   one serial search and ignores it).
//! * **Accounting** — [`EXPLORER_DIGEST`] folds what the explorer did
//!   (runs executed, classes, blocked probes, sleep skips, races by
//!   footprint-kind pair, histories checked, dedup hits, machine steps)
//!   on the three exhaustive experiments and a seeded set of generated
//!   3-process programs, so a change to the explorer's bookkeeping that
//!   moves any of them is caught even where the class set holds.
//!
//! The enumerative reference lives here, not in `jungle-mc`: it is
//! built from [`explore`], [`explore_dpor`], [`machine_for`],
//! [`trace_satisfies`] and `Trace::cache_key` alone, so it shares no
//! judging code with the sweep it checks. The `report` binary prints
//! what its DPOR sweeps did and leaves proving them right to this file.

use jungle::core::fingerprint::{fold_op, Fnv1a};
use jungle::core::ids::{Val, X, Y};
use jungle::core::op::{Command, Op};
use jungle::core::par::ParallelConfig;
use jungle::core::registry::{entry, registry, ModelEntry, StoreDiscipline};
use jungle::isa::instr::{Addr, Instr, InstrInstance};
use jungle::mc::algos::TmAlgo;
use jungle::mc::program::{generate, GenConfig, Program, Stmt, ThreadProg, TxOp};
use jungle::mc::theorems::{all_fixed_experiments, privatization_program};
use jungle::mc::{
    check_all_traces, cost, explore_dpor, machine_for, scheduler_for_seed, trace_satisfies,
    CheckKind, Experiment, GlobalLockTm, LazyTl2Tm, NaiveStoreTm, SharedVerdictMemo, SkipWriteTm,
    StrongTm, Sweep, VersionedTm, WriteTxnTm,
};
use jungle::memsim::process::ScriptProcess;
use jungle::memsim::{explore, HwModel, Machine, PInstr, Process, RunResult, Step};
use std::collections::HashSet;

const MAX_STEPS: usize = 4_000;

/// The step bound `report` runs the fixed experiments under.
const FIXED_MAX_STEPS: usize = 8_000;

/// Enumeration must execute at least this many times the runs DPOR
/// does on each fixed exhaustive experiment (observed: 170,544 against
/// 299, 570×).
const DPOR_REDUCTION_FLOOR: u64 = 100;

/// Classes, and therefore runs, of each fixed exhaustive experiment.
const FIXED_CLASSES: u64 = 299;

/// What the explorer did on [`accounting_corpus`], captured at `fa1ac56`
/// (before the `Copy` footprint and the latest-per-CPU race scan): an
/// exploration is byte-identical iff this does not move. The test prints
/// `explorer digest=0xfdeca0dd5472d65c executed=55429 races=160526
/// steps=1137824` there.
const EXPLORER_DIGEST: u64 = 0xfdec_a0dd_5472_d65c;

/// What all eight model TMs issue on [`algo_corpus`], captured at
/// `86701d4` (three phase machines, before the one driver): a TM's
/// instruction stream is byte-identical iff this does not move. There,
/// `cargo test --release --test dpor_props algo_streams` prints
/// `algo digest=0xfa58dc6bb08dd5d3 runs=17920 completed=17920
/// instrs=619739 steps=716705`.
const ALGO_DIGEST: u64 = 0xfa58_dc6b_b08d_d5d3;

/// The generated programs of the accounting corpus: the benchmark's
/// 3-process rung shape, one statement per thread.
const ACCOUNTING_GEN: GenConfig = GenConfig {
    threads: 3,
    vars: 2,
    max_stmts: 1,
    max_txn_ops: 2,
    txn_pct: 30,
    abort_pct: 15,
};

/// Seeds of the generated programs in the accounting corpus (those with
/// at most one transaction are kept).
const ACCOUNTING_SEEDS: std::ops::Range<u64> = 0..64;

/// What tells the classes of plain accesses apart when their operations
/// overlap alike: the final memory and each process's loaded values (in
/// program order).
#[derive(PartialEq, Eq, Hash, Debug)]
struct Outcome {
    key: u64,
    memory: Vec<(Addr, Val)>,
    loads: Vec<(u32, Val)>,
}

/// The structural history classes an exploration visits, with the run
/// count it took to visit them.
#[derive(Default)]
struct ClassSweep {
    /// `Trace::cache_key` of every completed run.
    keys: HashSet<u64>,
    /// The key of every completed run with what it left and loaded.
    outcomes: HashSet<Outcome>,
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
            let key = r.trace.cache_key();
            self.keys.insert(key);
            let mut loads: Vec<(u32, Val)> = r
                .trace
                .instrs()
                .iter()
                .filter_map(|i| match i.instr {
                    Instr::Load { val, .. } => Some((i.proc.0, val)),
                    _ => None,
                })
                .collect();
            loads.sort_by_key(|l| l.0);
            self.outcomes.insert(Outcome {
                key,
                memory: r.final_mem(),
                loads,
            });
        }
        false
    }
}

/// Enumerate every schedule and collect the completed-trace class keys.
fn class_sweep_enumerative(machine: &dyn Fn() -> Machine, max_steps: usize) -> ClassSweep {
    let mut sweep = ClassSweep::default();
    let out = explore(machine, max_steps, |r| sweep.note(r));
    sweep.executed = out.runs as u64;
    sweep.truncated = out.truncated as u64;
    sweep
}

/// Collect the completed-trace class keys the DPOR explorer visits.
fn class_sweep_dpor(machine: &dyn Fn() -> Machine, max_steps: usize) -> ClassSweep {
    let mut sweep = ClassSweep::default();
    let out = explore_dpor(machine, max_steps, |r| sweep.note(r));
    sweep.executed = out.executed as u64;
    sweep.truncated = out.truncated as u64;
    assert_eq!(
        out.executed,
        out.classes + out.blocked + out.truncated,
        "every run is complete, blocked or truncated"
    );
    sweep
}

/// The pre-DPOR sweep: execute every schedule and check each completed
/// trace once per class key. Returns the keys of the violating classes
/// in the order enumeration meets them (empty: every trace satisfies
/// `kind`).
fn violations_enumerative(
    p: &Program,
    algo: &dyn TmAlgo,
    e: &ModelEntry,
    kind: CheckKind,
    max_steps: usize,
) -> Vec<u64> {
    let mut seen = HashSet::new();
    let mut violations = Vec::new();
    explore(
        || machine_for(p, algo, e.exec),
        max_steps,
        |r| {
            if r.completed
                && seen.insert(r.trace.cache_key())
                && !trace_satisfies(&r.trace, e.model, kind)
            {
                violations.push(r.trace.cache_key());
            }
            false
        },
    );
    violations
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

/// The store-buffer shapes, as plain accesses: the programs on which a
/// CPU's next instruction and its drainable stores are enabled
/// together, which the transactional corpus (every store behind a CAS
/// that drains it) barely exercises. Each thread is one operation
/// around its instructions — as one operation per access, enumerating
/// SB takes a million schedules per relaxed entry and 2+2W twenty — so
/// the classes differ in loaded values and final memory, not in keys.
fn store_buffer_shapes() -> Vec<(&'static str, [Vec<PInstr>; 2])> {
    use PInstr::{Load, Store};
    vec![
        (
            "SB",
            [vec![Store(0, 1), Load(1)], vec![Store(1, 1), Load(0)]],
        ),
        (
            "MP",
            [vec![Store(0, 1), Store(1, 1)], vec![Load(1), Load(0)]],
        ),
        (
            "2+2W",
            [
                vec![Store(0, 1), Store(1, 2)],
                vec![Store(1, 1), Store(0, 2)],
            ],
        ),
    ]
}

/// The machine running `threads`, each as a single operation.
fn plain_machine(hw: HwModel, threads: &[Vec<PInstr>]) -> Machine {
    let procs = threads
        .iter()
        .zip([X, Y])
        .map(|(instrs, var)| {
            let op = Op::Cmd(Command::Write { var, val: 0 });
            let mut steps = vec![Step::Inv(op.clone())];
            steps.extend(instrs.iter().map(|i| Step::Instr(*i)));
            steps.push(Step::Resp(op));
            Box::new(ScriptProcess::new(steps)) as Box<dyn Process>
        })
        .collect();
    Machine::new(hw, procs)
}

/// Two stores to different addresses in one CPU's buffer, as one
/// operation each: under the per-address disciplines (PSO, RMO, Alpha,
/// Relaxed) two drains of one CPU are co-enabled and renumber each
/// other, between operation boundaries that order them against the
/// other CPU's.
fn two_drains() -> Program {
    Program(vec![
        ThreadProg(vec![
            Stmt::NtWrite(X, 1),
            Stmt::NtWrite(Y, 1),
            Stmt::NtRead(X),
        ]),
        ThreadProg(vec![Stmt::NtRead(Y)]),
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
    // some cases carry.
    let oracle = |name: &str, cpus, machine: &dyn Fn() -> Machine, e: &ModelEntry, max_steps| {
        let brute = class_sweep_enumerative(machine, max_steps);
        let dpor = class_sweep_dpor(machine, max_steps);
        assert_eq!(
            dpor.keys, brute.keys,
            "{name}/{}: DPOR class-key set diverges from enumeration",
            e.key
        );
        assert_eq!(
            dpor.outcomes, brute.outcomes,
            "{name}/{}: DPOR memories or loaded values diverge from enumeration",
            e.key
        );
        assert_eq!(dpor.truncated, brute.truncated, "{name}/{}", e.key);
        // One CPU's decisions are all dependent, each schedule its own
        // class; with two CPUs something must commute.
        assert!(
            dpor.executed < brute.executed || (cpus == 1 && dpor.executed == brute.executed),
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
    let corpus = [
        ("litmus", litmus()),
        ("stress", stress()),
        ("two-drains", two_drains()),
    ];
    for e in registry() {
        for (name, p) in &corpus {
            let machine = || machine_for(p, &GlobalLockTm, e.exec);
            let (_, dpor) = oracle(name, p.0.len(), &machine, e, MAX_STEPS);
            // No transaction spins here: the trees are finite.
            assert_eq!(dpor.truncated, 0, "{name}/{}", e.key);
        }
        for (name, threads) in store_buffer_shapes() {
            let machine = || plain_machine(e.exec, &threads);
            let (_, dpor) = oracle(name, 2, &machine, e, MAX_STEPS);
            // What each shape is known for, as a check that the
            // outcomes compared above are the interesting ones.
            let seen = |f: &dyn Fn(&Outcome) -> bool| dpor.outcomes.iter().any(f);
            let buffered = e.exec.stores != StoreDiscipline::Immediate;
            let reorders_writes = e.exec.stores == StoreDiscipline::PerAddress;
            let (relaxed, needs) = match name {
                "SB" => (seen(&|o| o.loads == [(0, 0), (1, 0)]), buffered),
                "MP" => (seen(&|o| o.loads == [(1, 1), (1, 0)]), reorders_writes),
                _ => (seen(&|o| o.memory == [(0, 1), (1, 1)]), reorders_writes),
            };
            assert_eq!(relaxed, needs, "{name}/{}", e.key);
        }
        let p = skipped_write();
        let machine = || machine_for(&p, &SkipWriteTm, e.exec);
        oracle("lemma1", p.0.len(), &machine, e, MAX_STEPS);
    }
    for x in fixed_exhaustive() {
        let machine = || machine_for(&x.program, x.algo, x.entry.exec);
        let (brute, dpor) = oracle(
            &x.id,
            x.program.0.len(),
            &machine,
            &x.entry,
            FIXED_MAX_STEPS,
        );
        assert!(
            brute.executed >= DPOR_REDUCTION_FLOOR * dpor.executed,
            "{}: reduction below {DPOR_REDUCTION_FLOOR}x ({} brute / {} dpor)",
            x.id,
            brute.executed,
            dpor.executed
        );
        // One run per class: none blocked, none truncated, no class
        // completed twice.
        assert_eq!(dpor.executed, FIXED_CLASSES, "{}", x.id);
        assert_eq!(dpor.completed, FIXED_CLASSES, "{}", x.id);
        assert_eq!(dpor.keys.len() as u64, FIXED_CLASSES, "{}", x.id);
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
            let slow = violations_enumerative(&p, algo, e, kind, MAX_STEPS);
            assert_eq!(
                fast.ok,
                slow.is_empty(),
                "{name}/{kind:?}: DPOR verdict diverges from enumeration"
            );
            let witness = fast.violation.as_ref().map(|c| c.trace.cache_key());
            assert!(
                witness.is_none_or(|k| slow.contains(&k)),
                "{name}/{kind:?}: witness is not a violating class of the enumeration"
            );
            // Stronger, and not guaranteed: the explorer's depth-first
            // order is not the full tree's lexicographic order, so the
            // first violating class of one need not be the other's. It
            // is on this corpus.
            assert_eq!(
                witness,
                slow.first().copied(),
                "{name}/{kind:?}: witness is no longer enumeration's first"
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
                v.violation.as_ref().map(|c| c.trace.cache_key()),
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
        // also be stable across settings.
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

/// The three exhaustive experiments, then the generated programs under
/// the global-lock TM, SGLA on SC (Theorem 7: every one holds).
fn accounting_corpus() -> Vec<(String, Program, &'static dyn TmAlgo, ModelEntry, CheckKind)> {
    let sc = entry("SC").expect("SC is registered");
    let mut corpus: Vec<_> = fixed_exhaustive()
        .into_iter()
        .map(|x| (x.id, x.program, x.algo, x.entry, x.kind))
        .collect();
    for seed in ACCOUNTING_SEEDS {
        let p = generate(&ACCOUNTING_GEN, seed);
        // A second transaction takes the exploration from milliseconds
        // to minutes.
        let txns =
            p.0.iter()
                .filter(|t| matches!(t.0[0], Stmt::Txn { .. }))
                .count();
        if txns > 1 {
            continue;
        }
        corpus.push((
            format!("gen/{seed}"),
            p,
            &GlobalLockTm as &dyn TmAlgo,
            *sc,
            CheckKind::Sgla,
        ));
    }
    corpus
}

#[test]
fn explorer_accounting_reproduces_the_parent_digest() {
    let mut digest = Fnv1a::new();
    let (mut executed, mut races, mut steps) = (0u64, 0u64, 0u64);
    for (id, p, algo, e, kind) in accounting_corpus() {
        let v = check_all_traces(&p, algo, &e, kind, FIXED_MAX_STEPS);
        assert!(v.ok && v.truncated == 0, "{id}: Theorems 3 and 7 hold");
        let st = &v.stats;
        for w in [
            st.dpor_executed,
            st.dpor_classes,
            st.dpor_blocked,
            st.sleep_skips,
            st.races,
        ] {
            digest.word(w);
        }
        for n in v.waste.race_heat.iter().flatten() {
            digest.word(*n);
        }
        for w in [st.histories_checked, st.dedup_hits, st.machine.steps] {
            digest.word(w);
        }
        executed += st.dpor_executed;
        races += st.races;
        steps += st.machine.steps;
    }
    println!(
        "explorer digest={:#018x} executed={executed} races={races} steps={steps}",
        digest.finish()
    );
    assert_eq!(
        digest.finish(),
        EXPLORER_DIGEST,
        "the explorer's accounting diverged from the parent's"
    );
}

/// The programs [`ALGO_DIGEST`] runs every model TM on: the zoo's
/// Figure 1 program, the privatization idiom (the one guarded
/// transaction), the cost table's single-threaded mix, and generated
/// two- and three-thread programs with aborting transactions.
fn algo_corpus() -> Vec<Program> {
    let mut corpus = vec![
        Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        privatization_program(),
        Program(vec![cost::standard_program()]),
    ];
    for threads in [2, 3] {
        let cfg = GenConfig {
            threads,
            abort_pct: 30,
            ..GenConfig::default()
        };
        corpus.extend((0..16).map(|seed| generate(&cfg, seed)));
    }
    corpus
}

/// Fold one instruction (with its process and operation) into `f`.
fn fold_instr(f: &mut Fnv1a, i: &InstrInstance) {
    let mut words = |ws: &[u64]| ws.iter().for_each(|&w| f.word(w));
    words(&[u64::from(i.proc.0), u64::from(i.op.0)]);
    match &i.instr {
        Instr::Load { addr, val } => words(&[1, u64::from(*addr), *val]),
        Instr::Store { addr, val } => words(&[2, u64::from(*addr), *val]),
        Instr::Cas {
            addr,
            expect,
            new,
            ok,
        } => words(&[3, u64::from(*addr), *expect, *new, u64::from(*ok)]),
        Instr::Inv(op) => {
            words(&[4]);
            fold_op(f, op);
        }
        Instr::Resp(op) => {
            words(&[5]);
            fold_op(f, op);
        }
    }
}

#[test]
fn algo_streams_reproduce_the_parent_digest() {
    static STRONG: StrongTm = StrongTm::new();
    static STRONG_OPT: StrongTm = StrongTm::optimized();
    let algos: [&dyn TmAlgo; 8] = [
        &GlobalLockTm,
        &WriteTxnTm,
        &VersionedTm,
        &NaiveStoreTm,
        &SkipWriteTm,
        &STRONG,
        &STRONG_OPT,
        &LazyTl2Tm,
    ];
    let mut digest = Fnv1a::new();
    let (mut runs, mut completed, mut instrs, mut steps) = (0u64, 0u64, 0u64, 0u64);
    for algo in algos {
        for p in algo_corpus() {
            for e in registry() {
                for seed in 0..8 {
                    let r = machine_for(&p, algo, e.exec)
                        .run(&mut *scheduler_for_seed(seed), MAX_STEPS);
                    digest.word(u64::from(r.completed));
                    for i in r.trace.instrs() {
                        fold_instr(&mut digest, i);
                    }
                    digest.word(r.trace.cache_key());
                    digest.word(r.stats.steps);
                    runs += 1;
                    completed += u64::from(r.completed);
                    instrs += r.trace.instrs().len() as u64;
                    steps += r.stats.steps;
                }
            }
        }
    }
    println!(
        "algo digest={:#018x} runs={runs} completed={completed} instrs={instrs} steps={steps}",
        digest.finish()
    );
    assert_eq!(
        digest.finish(),
        ALGO_DIGEST,
        "a model TM's instruction stream diverged from the parent's"
    );
}
