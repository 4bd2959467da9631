//! The paper's results (§5, §6.2) packaged as checkable experiments.
//!
//! Each function returns an [`Experiment`] bundling the program, the TM
//! algorithm, the memory model, and the *expected* outcome; `run` checks
//! it on the simulator. The workspace-level `tests/theorems.rs` runs
//! every experiment; the `jungle-bench` crate measures their cost.
//!
//! Negative results (Lemma 1, Theorems 1 and 2) are demonstrated by
//! *finding a violating trace* — a schedule under which no corresponding
//! history satisfies the property. Positive results (Theorems 3, 4, 5
//! and 7) are demonstrated by exhaustive exploration of litmus-sized
//! programs plus randomized sweeps over generated programs.

use crate::algos::{
    GlobalLockTm, LazyTl2Tm, NaiveStoreTm, SkipWriteTm, StrongTm, TmAlgo, VersionedTm, WriteTxnTm,
};
use crate::program::{generate, GenConfig, Program, Stmt, ThreadProg, TxOp};
use crate::verify::{CheckKind, Counterexample, Schedules, SharedVerdictMemo, Sweep, SweepSeeds};
use jungle_core::ids::{X, Y};
use jungle_core::model::{Alpha, MemoryModel, Pso, Relaxed, Sc, Tso};
use jungle_core::par::ParallelConfig;
use jungle_core::registry::{registry, ModelEntry};
use jungle_obs::{DporStats, McStats};

/// How an experiment establishes its claim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Expectation {
    /// A violating trace must exist (impossibility construction).
    ViolationExists,
    /// Every explored trace must satisfy the property.
    AllTracesSatisfy,
}

/// One checkable experiment derived from a paper result.
pub struct Experiment {
    /// Identifier, e.g. `"thm1-case1/SC"`.
    pub id: String,
    /// The paper artifact it reproduces.
    pub paper_ref: &'static str,
    /// The multiprocess program.
    pub program: Program,
    /// The TM algorithm under test.
    pub algo: &'static dyn TmAlgo,
    /// The registry entry pairing the memory model that parametrizes
    /// the property with the execution semantics the machine runs
    /// under. The paper's fixed constructions use
    /// [`ModelEntry::checker_game`] — SC execution, varying checker —
    /// which is exactly the paper's setting (the constructions place
    /// instructions by hand; the *model* decides which placements need
    /// explaining).
    pub entry: ModelEntry,
    /// Opacity or SGLA.
    pub kind: CheckKind,
    /// Expected outcome.
    pub(crate) expect: Expectation,
    /// Use exhaustive schedule exploration (otherwise random seeds).
    pub exhaustive: bool,
}

/// Result of running an experiment.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Did the observed outcome match the expectation?
    pub passed: bool,
    /// Human-readable detail.
    pub detail: String,
    /// Exploration counters from the underlying verification.
    pub stats: McStats,
    /// The DPOR race-pair heat table from the underlying verification
    /// (empty for randomized sweeps; its total is `stats.races`).
    pub waste: DporStats,
    /// The sweep's violating run, if it found one: what `report`
    /// explains, records and replays, without sweeping again.
    pub violation: Option<Counterexample>,
}

impl Experiment {
    /// Does the experiment claim that a violating trace exists?
    pub fn expects_violation(&self) -> bool {
        self.expect == Expectation::ViolationExists
    }

    /// Run the experiment with the default parallel configuration (auto
    /// thread count for a random sweep's seed stripes; an exhaustive
    /// sweep is one serial search) and a private verdict memo.
    pub fn run(&self, seeds: SweepSeeds, max_steps: usize) -> ExperimentResult {
        self.run_shared(
            seeds,
            max_steps,
            &ParallelConfig::default(),
            &SharedVerdictMemo::new(),
        )
    }

    /// The serial private-memo [`Sweep`] of this experiment's program,
    /// algorithm, entry and property along `schedules`.
    pub fn sweep(&self, schedules: Schedules, max_steps: usize) -> Sweep<'_> {
        Sweep {
            schedules,
            ..Sweep::new(&self.program, self.algo, &self.entry, self.kind, max_steps)
        }
    }

    /// [`Experiment::run`] with an explicit parallel configuration and a
    /// caller-owned [`SharedVerdictMemo`] shared across experiments:
    /// many of the paper's constructions reuse the same litmus programs
    /// under the same models, so a report run over the whole suite
    /// answers repeated per-history verdicts from the memo. The verdict
    /// is deterministic — identical for every thread count and fully
    /// determined by the explicit `seeds` on the randomized paths.
    ///
    /// An `Expectation::AllTracesSatisfy` experiment passes only when
    /// no run hit `max_steps`: a truncated run was never checked, so
    /// "all satisfied" would be a claim about traces nobody saw. (A
    /// found violation is conclusive either way.)
    pub fn run_shared(
        &self,
        seeds: SweepSeeds,
        max_steps: usize,
        cfg: &ParallelConfig,
        memo: &SharedVerdictMemo,
    ) -> ExperimentResult {
        let exhaustive = self.expect == Expectation::AllTracesSatisfy && self.exhaustive;
        let schedules = if exhaustive {
            Schedules::Exhaustive
        } else {
            Schedules::Random(seeds)
        };
        let v = Sweep {
            parallel: Some(*cfg),
            memo: Some(memo),
            ..self.sweep(schedules, max_steps)
        }
        .run();
        let (passed, detail) = match (self.expect, &v.violation) {
            (Expectation::ViolationExists, Some(_)) => {
                (true, "violating trace found as expected".into())
            }
            (Expectation::ViolationExists, None) => (
                false,
                format!("no violating trace in {} random schedules", seeds.runs),
            ),
            (Expectation::AllTracesSatisfy, Some(cx)) => {
                (false, format!("violation found:\n{:?}", Some(&cx.trace)))
            }
            (Expectation::AllTracesSatisfy, None) if v.truncated > 0 => (
                false,
                format!(
                    "inconclusive: {} of {} runs hit the step bound",
                    v.truncated, v.runs
                ),
            ),
            (Expectation::AllTracesSatisfy, None) => {
                (true, format!("{} runs all satisfied", v.runs))
            }
        };
        ExperimentResult {
            passed,
            detail: format!("{}: {detail}", self.id),
            stats: v.stats,
            waste: v.waste,
            violation: v.violation,
        }
    }
}

/// Lemma 1: a committed writing transaction must issue an update
/// instruction — [`SkipWriteTm`] (which issues none) has a violating
/// trace even single-threaded, for *every* memory model.
pub fn lemma1() -> Experiment {
    Experiment {
        id: "lemma1".into(),
        paper_ref: "Lemma 1 / Figure 5(a)",
        program: Program(vec![ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 5)]),
            Stmt::NtRead(X),
        ])]),
        algo: &SkipWriteTm,
        entry: ModelEntry::checker_game(&Relaxed),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 1, case 1 (`M ∈ Mrr`): the Figure 5(b) construction. The
/// transaction commits `x` and `y` with two separate updates; the other
/// process's uninstrumented reads can land between them, and read-read
/// restrictive models forbid explaining the result.
pub fn thm1_case1(model: &'static dyn MemoryModel) -> Experiment {
    Experiment {
        id: format!("thm1-case1/{}", model.name()),
        paper_ref: "Theorem 1 case 1 / Figure 5(b)",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(model),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 1, case 2 (`M ∈ Mwr`): the Figure 5(c) construction. The
/// other process writes `x` then reads `y`; both land between the
/// transaction's read of `x` and its update of `y`.
pub(crate) fn thm1_case2(model: &'static dyn MemoryModel) -> Experiment {
    Experiment {
        id: format!("thm1-case2/{}", model.name()),
        paper_ref: "Theorem 1 case 2 / Figure 5(c)",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtWrite(X, 3), Stmt::NtRead(Y)]),
        ]),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(model),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 1, case 3 (`M ∈ Mrw`): the Figure 5(d) construction. The
/// other process reads `x`, then writes and restores `y`, all between
/// the transaction's two updates; afterwards it re-reads both.
pub fn thm1_case3(model: &'static dyn MemoryModel) -> Experiment {
    Experiment {
        id: format!("thm1-case3/{}", model.name()),
        paper_ref: "Theorem 1 case 3 / Figure 5(d)",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![
                Stmt::NtRead(X),
                Stmt::NtWrite(Y, 4),
                Stmt::NtWrite(Y, 0),
                Stmt::txn(vec![]),
                Stmt::NtRead(X),
                Stmt::NtRead(Y),
            ]),
        ]),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(model),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 1, case 4 (`M ∈ Mww`): the Figure 5(e)-adjacent construction
/// with two writes by the other process.
pub(crate) fn thm1_case4(model: &'static dyn MemoryModel) -> Experiment {
    Experiment {
        id: format!("thm1-case4/{}", model.name()),
        paper_ref: "Theorem 1 case 4",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![
                TxOp::Read(X),
                TxOp::Read(Y),
                TxOp::Write(X, 3),
                TxOp::Write(Y, 4),
            ])]),
            ThreadProg(vec![
                Stmt::NtWrite(X, 5),
                Stmt::NtWrite(Y, 6),
                Stmt::NtWrite(Y, 0),
                Stmt::txn(vec![]),
                Stmt::NtRead(X),
                Stmt::NtRead(Y),
            ]),
        ]),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(model),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 2: updating a read-and-written variable with a plain store
/// instead of CAS ([`NaiveStoreTm`]) admits a violating trace for every
/// memory model — Figure 5(e).
fn thm2() -> Experiment {
    Experiment {
        id: "thm2".into(),
        paper_ref: "Theorem 2 / Figure 5(e)",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(X, 7)])]),
            ThreadProg(vec![
                Stmt::NtWrite(X, 3),
                Stmt::NtRead(X),
                Stmt::txn(vec![]),
                Stmt::NtRead(X),
            ]),
        ]),
        algo: &NaiveStoreTm,
        entry: ModelEntry::checker_game(&Relaxed),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 3 (litmus form): the global-lock TM of Figure 6 guarantees
/// opacity parametrized by the fully relaxed model; exhaustively
/// checked on a fixed two-thread program.
pub fn thm3_litmus() -> Experiment {
    Experiment {
        id: "thm3-litmus".into(),
        paper_ref: "Theorem 3 / Figure 6",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(&Relaxed),
        kind: CheckKind::Opacity,
        expect: Expectation::AllTracesSatisfy,
        exhaustive: true,
    }
}

/// Theorem 4 (litmus form): writes-as-transactions, reads plain; opaque
/// for `M ∉ Mrr` (checked against Alpha).
fn thm4_litmus() -> Experiment {
    Experiment {
        id: "thm4-litmus".into(),
        paper_ref: "Theorem 4",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtWrite(X, 3), Stmt::NtRead(Y), Stmt::NtRead(X)]),
        ]),
        algo: &WriteTxnTm,
        entry: ModelEntry::checker_game(&Alpha),
        kind: CheckKind::Opacity,
        expect: Expectation::AllTracesSatisfy,
        exhaustive: false, // lock spinning makes the schedule space unbounded
    }
}

/// Theorem 5 (litmus form): constant-time write instrumentation; opaque
/// for `M ∉ Mrr ∪ Mwr` (checked against Alpha).
fn thm5_litmus() -> Experiment {
    Experiment {
        id: "thm5-litmus".into(),
        paper_ref: "Theorem 5",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtWrite(X, 3), Stmt::NtRead(Y), Stmt::NtRead(X)]),
        ]),
        algo: &VersionedTm,
        entry: ModelEntry::checker_game(&Alpha),
        kind: CheckKind::Opacity,
        expect: Expectation::AllTracesSatisfy,
        // Exhaustive exploration of this program visits ~800k schedules
        // (minutes); randomized sampling covers it in milliseconds. The
        // exhaustive run is still reachable by flipping the flag.
        exhaustive: false,
    }
}

/// Tightness of Theorem 5: the same TM is *not* opaque for a read-read
/// restrictive model (its reads are uninstrumented) — the Figure 5(b)
/// window reappears under SC.
fn thm5_tightness() -> Experiment {
    Experiment {
        id: "thm5-tightness/SC".into(),
        paper_ref: "Theorem 5 (necessity of M ∉ Mrr)",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &VersionedTm,
        entry: ModelEntry::checker_game(&Sc),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// Theorem 7 (litmus form): the global-lock TM guarantees SGLA for
/// every memory model — exhaustively checked against SC, the strongest.
fn thm7_litmus(model: &'static dyn MemoryModel) -> Experiment {
    Experiment {
        id: format!("thm7-litmus/{}", model.name()),
        paper_ref: "Theorem 7",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(model),
        kind: CheckKind::Sgla,
        expect: Expectation::AllTracesSatisfy,
        exhaustive: true,
    }
}

/// The privatization idiom (§1's motivating scenario) as a program:
/// the worker updates the datum only while the flag is up; the
/// privatizer lowers the flag transactionally and then uses plain
/// accesses on the datum.
pub fn privatization_program() -> Program {
    use jungle_core::ids::{X, Y};
    // Y = flag (initially published by an unconditional write), X = data.
    Program(vec![
        // Worker: publish the flag, then conditionally update the datum.
        ThreadProg(vec![
            Stmt::NtWrite(Y, 1),
            Stmt::TxnGuard {
                guard: Y,
                expect: 1,
                ops: vec![TxOp::Write(X, 7)],
            },
        ]),
        // Privatizer: wait-free lowering of the flag, then plain access.
        ThreadProg(vec![
            Stmt::txn(vec![TxOp::Read(Y), TxOp::Write(Y, 0)]),
            Stmt::NtWrite(X, 100),
            Stmt::NtRead(X),
        ]),
    ])
}

/// §1 motivation, negative side: the lazy TL2-style weakly atomic TM
/// admits a schedule where the worker's write-back lands *after*
/// privatization, clobbering the plain write — and no memory model
/// explains the resulting history.
pub fn privatization_unsafe_lazy_tl2() -> Experiment {
    Experiment {
        id: "privatization/lazy-tl2".into(),
        paper_ref: "§1 privatization motivation (delayed write-back)",
        program: privatization_program(),
        algo: &LazyTl2Tm,
        entry: ModelEntry::checker_game(&Relaxed),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// §1 motivation, positive side: the strong-atomicity TM keeps the
/// privatization idiom opaque parametrized by SC.
pub fn privatization_safe_strong() -> Experiment {
    static STRONG: StrongTm = StrongTm::new();
    Experiment {
        id: "privatization/strong".into(),
        paper_ref: "§6.1 strong atomicity on the §1 idiom",
        program: privatization_program(),
        algo: &STRONG,
        entry: ModelEntry::checker_game(&Sc),
        kind: CheckKind::Opacity,
        expect: Expectation::AllTracesSatisfy,
        exhaustive: false,
    }
}

/// And the Figure 6 TM keeps it SGLA under SC (it is not SC-opaque —
/// Theorem 1 — but the global lock serializes the write-back before
/// privatization can complete).
pub fn privatization_safe_global_lock() -> Experiment {
    Experiment {
        id: "privatization/global-lock".into(),
        paper_ref: "Theorem 7 on the §1 idiom",
        program: privatization_program(),
        algo: &GlobalLockTm,
        entry: ModelEntry::checker_game(&Sc),
        kind: CheckKind::Sgla,
        expect: Expectation::AllTracesSatisfy,
        exhaustive: false,
    }
}

/// §6.1 head-to-head: the fully instrumented strong TM is SC-opaque on
/// the Figure 1 program.
fn strong_sc_opaque_litmus() -> Experiment {
    static STRONG: StrongTm = StrongTm::new();
    Experiment {
        id: "strong-sc/fig1".into(),
        paper_ref: "§6.1 (Shpeisman et al.): strong atomicity = opacity ⊨ SC",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &STRONG,
        entry: ModelEntry::checker_game(&Sc),
        kind: CheckKind::Opacity,
        expect: Expectation::AllTracesSatisfy,
        // The record protocol's spin loops make exhaustive exploration
        // intractable; randomized sampling covers it.
        exhaustive: false,
    }
}

/// §6.1 optimization: dropping the read instrumentation loses SC…
fn strong_optimized_not_sc() -> Experiment {
    static OPT: StrongTm = StrongTm::optimized();
    Experiment {
        id: "strong-optimized/not-SC".into(),
        paper_ref: "§6.1 read de-instrumentation: SC lost",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &OPT,
        entry: ModelEntry::checker_game(&Sc),
        kind: CheckKind::Opacity,
        expect: Expectation::ViolationExists,
        exhaustive: false,
    }
}

/// …but keeps opacity parametrized by Alpha (`M ∉ Mrr ∪ Mwr`).
fn strong_optimized_alpha_ok() -> Experiment {
    static OPT: StrongTm = StrongTm::optimized();
    Experiment {
        id: "strong-optimized/Alpha".into(),
        paper_ref: "§6.1 read de-instrumentation: correct for M ∉ Mrr ∪ Mwr",
        program: Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]),
        algo: &OPT,
        entry: ModelEntry::checker_game(&Alpha),
        kind: CheckKind::Opacity,
        expect: Expectation::AllTracesSatisfy,
        exhaustive: false,
    }
}

/// All fixed-program experiments (negative constructions and litmus
/// positives) with models drawn from the matching restriction classes.
pub fn all_fixed_experiments() -> Vec<Experiment> {
    vec![
        lemma1(),
        thm1_case1(&Sc),
        thm1_case1(&Tso),
        thm1_case1(&Pso),
        thm1_case2(&Sc),
        thm1_case3(&Pso),
        thm1_case4(&Tso),
        thm2(),
        thm3_litmus(),
        thm4_litmus(),
        thm5_litmus(),
        thm5_tightness(),
        thm7_litmus(&Sc),
        thm7_litmus(&Relaxed),
        strong_sc_opaque_litmus(),
        strong_optimized_not_sc(),
        strong_optimized_alpha_ok(),
        privatization_unsafe_lazy_tl2(),
        privatization_safe_strong(),
        privatization_safe_global_lock(),
    ]
}

/// The four Theorem 1 constructions, each paired with the model whose
/// restriction-class membership makes the construction irreconcilable:
/// Mrr under SC, Mwr under SC, Mrw under PSO, Mww under TSO. This is
/// the suite every `report` run narrates and `report --record`
/// captures.
pub fn thm1_suite() -> Vec<Experiment> {
    vec![
        thm1_case1(&Sc),
        thm1_case2(&Sc),
        thm1_case3(&Pso),
        thm1_case4(&Tso),
    ]
}

/// Look up a bundled fixed experiment by its `id` (e.g.
/// `"thm1-case1/SC"`). This is how `report --replay` resolves the
/// experiment a schedule log was recorded against back to a concrete
/// program/algorithm/model triple.
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    all_fixed_experiments().into_iter().find(|e| e.id == id)
}

/// The ids of every bundled fixed experiment, for error messages that
/// must list the valid keys.
pub fn experiment_ids() -> Vec<String> {
    all_fixed_experiments().into_iter().map(|e| e.id).collect()
}

/// Enumerate *all* two-thread programs where each thread runs one
/// statement drawn from a small grammar (non-transactional read/write
/// of x or y, or a one/two-operation committing transaction). Small-
/// scope exhaustive coverage complementing the random sweeps: if a
/// theorem fails on any tiny program, it fails here.
fn enumerate_small_programs() -> Vec<Program> {
    use jungle_core::ids::{X, Y};
    let mut stmts: Vec<Stmt> = Vec::new();
    for v in [X, Y] {
        stmts.push(Stmt::NtRead(v));
        stmts.push(Stmt::NtWrite(v, 41));
        stmts.push(Stmt::txn(vec![TxOp::Read(v)]));
        stmts.push(Stmt::txn(vec![TxOp::Write(v, 42)]));
    }
    stmts.push(Stmt::txn(vec![TxOp::Write(X, 43), TxOp::Write(Y, 44)]));
    stmts.push(Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 45)]));
    stmts.push(Stmt::aborting_txn(vec![TxOp::Write(X, 46)]));

    let mut out = Vec::new();
    for a in &stmts {
        for b in &stmts {
            out.push(Program(vec![
                ThreadProg(vec![a.clone()]),
                ThreadProg(vec![b.clone()]),
            ]));
        }
    }
    out
}

/// Exhaustively check every small program of
/// `enumerate_small_programs` under `algo`/`model`/`kind`, exploring
/// every schedule of each. Returns the number of (program, schedule)
/// pairs checked, or the first failing program.
pub fn small_scope_sweep(
    algo: &dyn TmAlgo,
    entry: &ModelEntry,
    kind: CheckKind,
    max_steps: usize,
) -> Result<usize, String> {
    let mut runs = 0;
    for (i, program) in enumerate_small_programs().iter().enumerate() {
        // Two concurrent transactions contend on locks, whose spin
        // loops make the schedule space explode; sample those pairs
        // randomly and explore everything else exhaustively.
        let n_txns = program
            .0
            .iter()
            .flat_map(|t| t.0.iter())
            .filter(|s| matches!(s, Stmt::Txn { .. } | Stmt::TxnGuard { .. }))
            .count();
        let schedules = if n_txns >= 2 {
            Schedules::Random(SweepSeeds::new(0, 60))
        } else {
            Schedules::Exhaustive
        };
        let v = Sweep {
            schedules,
            ..Sweep::new(program, algo, entry, kind, max_steps)
        }
        .run();
        if !v.ok {
            return Err(format!(
                "small program #{i} failed under {}/{}: {:?}\nprogram: {:?}",
                algo.name(),
                entry.key,
                v.violation.map(|cx| cx.trace),
                program
            ));
        }
        runs += v.runs;
    }
    Ok(runs)
}

/// Randomized positive sweep: run `n_programs` generated programs under
/// `algo`, checking every sampled trace for the property under `model`.
/// Returns the id of the first failing program, if any.
pub fn random_sweep(
    algo: &dyn TmAlgo,
    entry: &ModelEntry,
    kind: CheckKind,
    n_programs: u64,
    seeds_per_program: u64,
    cfg: &GenConfig,
) -> Result<u64, String> {
    let mut checked = 0;
    for pseed in 0..n_programs {
        let program = generate(cfg, pseed);
        let v = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, seeds_per_program)),
            ..Sweep::new(&program, algo, entry, kind, 20_000)
        }
        .run();
        if !v.ok {
            return Err(format!(
                "program seed {pseed} under {} / {} violated {:?}:\nprogram: {:?}",
                algo.name(),
                entry.key,
                kind,
                program
            ));
        }
        checked += v.runs as u64;
    }
    Ok(checked)
}

/// One cell of the matched-model zoo: a TM algorithm sampled on the
/// execution semantics of a registry entry and checked against that
/// same entry's memory model.
#[derive(Debug)]
pub struct ZooVerdict {
    /// TM algorithm name.
    pub algo: &'static str,
    /// Registry key of the model (checker *and* execution side).
    pub model: &'static str,
    /// Did every sampled trace have a satisfying corresponding history?
    pub ok: bool,
    /// Exploration counters.
    pub stats: McStats,
}

/// The matched-model zoo sweep: run the five positive-result STMs on the
/// Figure 1 program under **every** registry entry, executing each
/// entry's machine semantics and checking opacity parametrized by the
/// same entry's model. Unlike the fixed experiments (SC execution by
/// construction), this is the descriptive cross-validation table the
/// registry makes possible: relaxed execution widens the trace set and
/// the equally relaxed checker must still explain it. Verdicts are
/// reported, not asserted — the standing property test over exhaustive
/// small programs lives in `tests/registry_props.rs`.
pub fn matched_zoo(
    seeds: SweepSeeds,
    max_steps: usize,
    cfg: &ParallelConfig,
    memo: &SharedVerdictMemo,
) -> Vec<ZooVerdict> {
    static STRONG: StrongTm = StrongTm::new();
    let algos: [&'static dyn TmAlgo; 5] = [
        &GlobalLockTm,
        &WriteTxnTm,
        &VersionedTm,
        &STRONG,
        &LazyTl2Tm,
    ];
    let program = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
        ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
    ]);
    let mut out = Vec::new();
    for algo in algos {
        for entry in registry() {
            let v = Sweep {
                schedules: Schedules::Random(seeds),
                parallel: Some(*cfg),
                memo: Some(memo),
                ..Sweep::new(&program, algo, entry, CheckKind::Opacity, max_steps)
            }
            .run();
            out.push(ZooVerdict {
                algo: algo.name(),
                model: entry.key,
                ok: v.ok,
                stats: v.stats,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Quick smoke versions of the experiments; the heavy sweeps live in
    // the workspace-level integration tests.

    #[test]
    fn lemma1_violation_found() {
        let r = lemma1().run(SweepSeeds::new(0, 5), 2_000);
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn thm1_case1_sc_violation_found() {
        let r = thm1_case1(&Sc).run(SweepSeeds::new(0, 800), 6_000);
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn thm2_violation_found() {
        let r = thm2().run(SweepSeeds::new(0, 600), 4_000);
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn thm3_litmus_holds() {
        let r = thm3_litmus().run(SweepSeeds::new(0, 0), 4_000);
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn truncated_sweep_is_inconclusive_not_a_pass() {
        // Every run hits a one-step bound, so no trace is ever checked:
        // "all satisfied" would be vacuous.
        let e = thm3_litmus();
        assert!(e.exhaustive && e.expect == Expectation::AllTracesSatisfy);
        let r = e.run(SweepSeeds::new(0, 0), 1);
        assert!(!r.passed, "{}", r.detail);
        assert!(r.detail.contains("inconclusive"), "{}", r.detail);
        assert!(r.stats.truncated > 0 && r.stats.histories_checked == 0);
        // A violation stays conclusive whatever else was truncated.
        let r = lemma1().run(SweepSeeds::new(0, 5), 2_000);
        assert!(r.passed && !r.detail.contains("inconclusive"));
    }

    #[test]
    fn thm5_litmus_random_subset_holds() {
        // The exhaustive version runs in the integration suite; sample
        // here to keep unit tests fast.
        let mut e = thm5_litmus();
        e.exhaustive = false;
        let r = e.run(SweepSeeds::new(0, 60), 20_000);
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn thm7_sgla_random_subset_holds() {
        let mut e = thm7_litmus(&Sc);
        e.exhaustive = false;
        let r = e.run(SweepSeeds::new(0, 60), 20_000);
        assert!(r.passed, "{}", r.detail);
    }

    #[test]
    fn experiment_lookup_by_id() {
        let e = experiment_by_id("thm1-case1/SC").expect("bundled id resolves");
        assert_eq!(e.id, "thm1-case1/SC");
        assert!(experiment_by_id("nonesuch").is_none());
        let ids = experiment_ids();
        assert_eq!(ids.len(), all_fixed_experiments().len());
        // Every thm1_suite experiment is resolvable by id.
        for e in thm1_suite() {
            assert!(ids.contains(&e.id), "{} not in fixed ids", e.id);
        }
    }

    #[test]
    fn random_sweep_smoke() {
        let cfg = GenConfig {
            max_stmts: 2,
            max_txn_ops: 2,
            ..GenConfig::default()
        };
        let checked = random_sweep(
            &GlobalLockTm,
            &ModelEntry::checker_game(&Relaxed),
            CheckKind::Opacity,
            4,
            6,
            &cfg,
        )
        .expect("global-lock TM must be opaque under the relaxed model");
        assert!(checked > 0);
    }
}
