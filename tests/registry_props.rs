//! Cross-validation of the unified model registry: the two facades of
//! each entry — the machine's [`ExecSemantics`] and the checker's
//! `MemoryModel` — must tell the same story.
//!
//! Three standing properties:
//!
//! 1. **Checker ↔ oracle agreement on machine histories.** For every
//!    registry entry, exhaustively explore small raw two-process
//!    programs under the entry's execution semantics and decide each
//!    produced canonical history with the optimized checker *and* a
//!    brute-force permutation oracle of the §3.3 definition. The
//!    verdicts must agree exactly — on precisely the history shapes the
//!    relaxed machines generate (stale reads, drain reorderings).
//! 2. **Matched-model soundness.** Every trace the machine produces
//!    under `ExecSemantics(X)` has a corresponding history accepted
//!    under `MemoryModel(X)`: the execution discipline is an
//!    under-approximation of the model it is paired with.
//! 3. **Thread-count determinism.** The matched-model sweeps return the
//!    same verdict at 1, 2, and 4 checker threads.

use jungle::core::history::{History, OpInstance};
use jungle::core::ids::{ProcId, Val, Var, X, Y};
use jungle::core::legal::every_op_legal;
use jungle::core::model::MemoryModel;
use jungle::core::op::{Command, Op};
use jungle::core::opacity::check_opacity;
use jungle::core::registry::registry;
use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
use jungle::mc::verify::{check_all_traces, trace_satisfies, CheckKind};
use jungle::mc::{GlobalLockTm, Schedules, Sweep, SweepSeeds};
use jungle::memsim::process::{FnProcess, PInstr, Process, Step};
use jungle::memsim::{explore, Machine};
use jungle_core::par::ParallelConfig;
use proptest::prelude::*;
use std::collections::HashSet;

fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

/// A process executing a fixed list of accesses, each as its own
/// non-transactional operation (`(is_read, addr, val)` triples).
fn straightline(ops: Vec<(bool, u32, Val)>) -> Box<dyn Process> {
    let mut queue = ops.into_iter();
    let mut pending: Option<(bool, u32, Val)> = None;
    let mut phase = 0u8;
    Box::new(FnProcess::new(move |last| match phase {
        0 => match queue.next() {
            None => Step::Done,
            Some(op) => {
                pending = Some(op);
                phase = 1;
                let (is_read, a, v) = op;
                Step::Inv(if is_read {
                    rd_op(Var(a), 0)
                } else {
                    wr_op(Var(a), v)
                })
            }
        },
        1 => {
            let (is_read, a, v) = pending.unwrap();
            phase = 2;
            Step::Instr(if is_read {
                PInstr::Load(a)
            } else {
                PInstr::Store(a, v)
            })
        }
        2 => {
            let (is_read, a, v) = pending.unwrap();
            phase = 0;
            Step::Resp(if is_read {
                rd_op(Var(a), last.unwrap())
            } else {
                wr_op(Var(a), v)
            })
        }
        _ => unreachable!(),
    }))
}

/// Does permutation `perm` of `th`'s operations satisfy all conditions
/// of parametrized opacity (one shared witness)? Mirrors the §3.3
/// definition directly, as in `tests/oracle.rs`.
fn perm_is_witness(th: &History, perm: &[usize], model: &dyn MemoryModel) -> bool {
    let pos_of = {
        let mut v = vec![0usize; th.len()];
        for (pos, &i) in perm.iter().enumerate() {
            v[i] = pos;
        }
        v
    };
    for i in 0..th.len() {
        for j in 0..th.len() {
            if i == j {
                continue;
            }
            if th.precedes_rt(i, j) && pos_of[i] > pos_of[j] {
                return false;
            }
            let ops = th.ops();
            if i < j
                && !th.is_transactional(i)
                && !th.is_transactional(j)
                && ops[i].op.command().is_some()
                && ops[j].op.command().is_some()
                && ops[i].proc == ops[j].proc
                && model.required(th, i, j)
                && pos_of[i] > pos_of[j]
            {
                return false;
            }
        }
    }
    let ops: Vec<OpInstance> = perm.iter().map(|&i| th.ops()[i].clone()).collect();
    let Ok(s) = History::new(ops) else {
        return false;
    };
    if !s.is_sequential() {
        return false;
    }
    every_op_legal(&s)
}

/// Brute-force decision of parametrized opacity: try every permutation
/// (Heap's algorithm).
fn oracle_opaque(h: &History, model: &dyn MemoryModel) -> bool {
    let th = model.transform(h);
    let n = th.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut c = vec![0usize; n];
    if perm_is_witness(&th, &perm, model) {
        return true;
    }
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            if perm_is_witness(&th, &perm, model) {
                return true;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: on every history a registry entry's machine can
    /// produce from a small raw program, the optimized checker under the
    /// entry's model agrees exactly with the permutation oracle.
    #[test]
    fn machine_histories_agree_with_oracle_under_matched_model(
        ops0 in prop::collection::vec((any::<bool>(), 0..2u32, 1..4u64), 1..3),
        ops1 in prop::collection::vec((any::<bool>(), 0..2u32, 1..4u64), 1..3),
        entry_idx in 0..8usize,
    ) {
        let entry = &registry()[entry_idx];
        let mut seen: HashSet<u64> = HashSet::new();
        let mut mismatch: Option<String> = None;
        explore(
            || {
                Machine::new(
                    entry.exec,
                    vec![straightline(ops0.clone()), straightline(ops1.clone())],
                )
            },
            4_000,
            |r| {
                if !r.completed || mismatch.is_some() {
                    return mismatch.is_some();
                }
                let Ok(h) = r.trace.canonical_history() else {
                    return false;
                };
                if !seen.insert(h.cache_key()) {
                    return false; // structurally identical history already judged
                }
                let fast = check_opacity(&h, entry.model).is_opaque();
                let slow = oracle_opaque(&h, entry.model);
                if fast != slow {
                    mismatch = Some(format!(
                        "checker={fast} oracle={slow} under {} on {:?}",
                        entry.key, h
                    ));
                    return true;
                }
                false
            },
        );
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
    }
}

/// Property 2: the execution semantics is a sound under-approximation
/// of its paired model — every trace of the message-passing and
/// store-buffering shapes, exhaustively explored under `ExecSemantics(X)`
/// (stale reads and drain reorderings included), has a corresponding
/// history accepted under `MemoryModel(X)`.
#[test]
fn matched_machine_traces_satisfy_matched_model() {
    // MP: p0 stores x then y; p1 reads y then x.
    // SB: both store then read the other's variable.
    let shapes: [[Vec<(bool, u32, Val)>; 2]; 2] = [
        [
            vec![(false, 0, 1), (false, 1, 1)],
            vec![(true, 1, 0), (true, 0, 0)],
        ],
        [
            vec![(false, 0, 1), (true, 1, 0)],
            vec![(false, 1, 1), (true, 0, 0)],
        ],
    ];
    for entry in registry() {
        for shape in &shapes {
            let mut bad: Option<String> = None;
            let mut seen: HashSet<u64> = HashSet::new();
            let out = explore(
                || {
                    Machine::new(
                        entry.exec,
                        vec![
                            straightline(shape[0].clone()),
                            straightline(shape[1].clone()),
                        ],
                    )
                },
                4_000,
                |r| {
                    if !r.completed || !seen.insert(r.trace.cache_key()) {
                        return false;
                    }
                    if !trace_satisfies(&r.trace, entry.model, CheckKind::Opacity) {
                        bad = Some(format!("{:?}", r.trace));
                        return true;
                    }
                    false
                },
            );
            assert!(
                bad.is_none(),
                "machine under {} produced a trace its own model rejects: {}",
                entry.key,
                bad.unwrap()
            );
            assert!(out.runs > 0);
        }
    }
}

/// Property 3 (exhaustive): the matched-model exhaustive sweep of a
/// one-write transaction against two non-transactional reads
/// (`p0: txn { x := 1 }`, `p1: read x; read y`) returns identical
/// verdicts at 1, 2, and 4 checker threads, for every registry entry —
/// and the global-lock TM passes every one of them even on the relaxed
/// machines.
#[test]
fn matched_zoo_exhaustive_thread_counts_agree() {
    let program = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)])]),
        ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
    ]);
    for entry in registry() {
        let serial = check_all_traces(&program, &GlobalLockTm, entry, CheckKind::Opacity, 8_000);
        assert!(
            serial.ok,
            "global-lock TM not {}-opaque on its matched machine: {:?}",
            entry.key, serial.violation
        );
        for threads in [2, 4] {
            let par = Sweep {
                parallel: Some(ParallelConfig::with_threads(threads)),
                ..Sweep::new(&program, &GlobalLockTm, entry, CheckKind::Opacity, 8_000)
            }
            .run();
            assert_eq!(par.ok, serial.ok, "{} at {threads} threads", entry.key);
        }
    }
}

/// Property 3 (randomized): the seed-striped parallel random sweep
/// agrees with the serial one at 1, 2, and 4 workers on the full Fig. 1
/// program across every registry entry.
#[test]
fn matched_zoo_random_thread_counts_agree() {
    let program = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
        ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
    ]);
    let seeds = SweepSeeds::new(0, 24);
    for entry in registry() {
        let serial = Sweep {
            schedules: Schedules::Random(seeds),
            ..Sweep::new(&program, &GlobalLockTm, entry, CheckKind::Opacity, 8_000)
        }
        .run();
        assert!(serial.ok, "{}: {:?}", entry.key, serial.violation);
        for threads in [2, 4] {
            let par = Sweep {
                schedules: Schedules::Random(seeds),
                parallel: Some(ParallelConfig::with_threads(threads)),
                ..Sweep::new(&program, &GlobalLockTm, entry, CheckKind::Opacity, 8_000)
            }
            .run();
            assert_eq!(par.ok, serial.ok, "{} at {threads} workers", entry.key);
        }
    }
}

/// The relaxed entries genuinely exercise their windows on these
/// sweeps: at least one registry entry's machine reports stale loads.
#[test]
fn relaxed_entries_explore_stale_reads() {
    let program = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)])]),
        ThreadProg(vec![Stmt::NtRead(X)]),
    ]);
    for key in ["RMO", "Alpha", "Relaxed"] {
        let entry = jungle::core::registry::entry(key).unwrap();
        let v = check_all_traces(&program, &GlobalLockTm, entry, CheckKind::Opacity, 6_000);
        assert!(v.ok, "{key}: {:?}", v.violation);
        assert!(
            v.stats.machine.stale_loads > 0,
            "{key}: no stale loads explored ({:?})",
            v.stats.machine
        );
        assert_eq!(v.stats.model, key);
        assert_eq!(v.stats.machine.model, key);
    }
    let _ = ProcId(0); // silence unused-import lints in cfg permutations
}
