//! Property-based tests on the simulator substrate: hardware-model
//! guarantees that every schedule must respect, the compact
//! [`Footprint`] against a plain reference relation, schedulers that
//! must draw exactly what they drew before they stopped allocating, and
//! a machine reset in place (`Machine::run_from`) against a freshly
//! built one.

use jungle::core::ids::{ProcId, Val, Var, X, Y};
use jungle::core::op::{Command, Op};
use jungle::core::registry::registry;
use jungle::isa::instr::{Addr, Instr};
use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
use jungle::mc::{explore_dpor, machine_for, GlobalLockTm, VersionedTm};
use jungle::memsim::process::{FnProcess, PInstr, Process, ScriptProcess, Step};
use jungle::memsim::{
    explore, Action, AddrSet, BurstyScheduler, ChoicePoint, Footprint, HwModel, Machine,
    RandomScheduler, RunResult, Scheduler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Every executable discipline in the registry zoo (the old Sc/Tso/Pso
/// trio plus the no-forwarding and windowed-load variants).
const ALL_EXEC: [HwModel; 8] = [
    HwModel::SC,
    HwModel::TSO,
    HwModel::TSO_FWD,
    HwModel::PSO,
    HwModel::PSO_FWD,
    HwModel::RMO,
    HwModel::ALPHA,
    HwModel::RELAXED,
];
use proptest::prelude::*;

fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

/// A process executing a fixed list of accesses on one address space,
/// each as its own operation.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-threaded programs are sequentially faithful on every
    /// hardware model: each read returns the latest program-order write
    /// to the same address (0 initially).
    #[test]
    fn single_thread_reads_latest_write(
        ops in prop::collection::vec((any::<bool>(), 0..3u32, 1..9u64), 1..12),
        hw in (0..ALL_EXEC.len()).prop_map(|i| ALL_EXEC[i]),
        seed in 0..50u64,
    ) {
        let m = Machine::new(hw, vec![straightline(ops.clone())]);
        let mut sched = RandomScheduler::new(seed);
        let r = m.run(&mut sched, 10_000);
        prop_assert!(r.completed);
        // Replay expectations.
        let mut mem = std::collections::HashMap::new();
        let mut idx = 0;
        for instr in r.trace.instrs() {
            match &instr.instr {
                Instr::Load { addr, val } => {
                    let expect = mem.get(addr).copied().unwrap_or(0);
                    prop_assert_eq!(*val, expect, "op {} read stale value", idx);
                    idx += 1;
                }
                Instr::Store { addr, val } => {
                    mem.insert(*addr, *val);
                    idx += 1;
                }
                _ => {}
            }
        }
    }

}

/// Coherence: two writes to the SAME address by one process are never
/// observed out of order by another process, on any hardware model
/// (TSO and PSO both keep per-address FIFO order). Exhaustive over all
/// schedules — a plain test, since the input space is just the three
/// hardware models.
#[test]
fn same_address_writes_stay_ordered() {
    for hw in ALL_EXEC {
        let factory = move || {
            Machine::new(
                hw,
                vec![
                    straightline(vec![(false, 0, 1), (false, 0, 2)]),
                    straightline(vec![(true, 0, 0), (true, 0, 0)]),
                ],
            )
        };
        let mut violated = false;
        explore(factory, 128, |r| {
            let reads: Vec<Val> = r
                .trace
                .instrs()
                .iter()
                .filter(|i| i.proc == ProcId(1))
                .filter_map(|i| match i.instr {
                    Instr::Load { val, .. } => Some(val),
                    _ => None,
                })
                .collect();
            if reads.len() == 2 && reads[0] == 2 && reads[1] == 1 {
                violated = true;
                return true;
            }
            false
        });
        assert!(!violated, "coherence violated on {hw:?}");
    }
}

#[test]
fn buffers_fully_drain_at_termination() {
    // After a completed run, every buffered store must be globally
    // visible in the final memory snapshot.
    for hw in ALL_EXEC {
        let mut m = Machine::new(hw, vec![straightline(vec![(false, 0, 7), (false, 1, 8)])]);
        m.poke(2, 99);
        let mut sched = RandomScheduler::new(3);
        let r = m.run(&mut sched, 1_000);
        assert!(r.completed);
        assert_eq!(r.final_mem(), vec![(0, 7), (1, 8), (2, 99)], "on {hw:?}");
    }
}

/// The dependence relation as it read with `Vec` address lists: the
/// reference the inline footprint must reproduce exactly.
fn dependent_reference(a: &Footprint, b: &Footprint) -> bool {
    let (ar, aw, br, bw) = (
        a.reads.held().to_vec(),
        a.writes.held().to_vec(),
        b.reads.held().to_vec(),
        b.writes.held().to_vec(),
    );
    let conflict =
        |w: &[Addr], r: &[Addr], w2: &[Addr]| w.iter().any(|x| w2.contains(x) || r.contains(x));
    a.cpu == b.cpu
        || conflict(&aw, &br, &bw)
        || conflict(&bw, &ar, &aw)
        || (a.fence && (b.fence || !bw.is_empty()))
        || (b.fence && !aw.is_empty())
        || (a.inv && (b.inv || b.resp))
        || (a.resp && b.inv)
}

/// Footprints on CPUs `cpus` whose reads and writes index a small
/// address pool (so that generated footprints often collide), with
/// every combination of fence, invocation and response.
fn footprints(cpus: std::ops::Range<usize>) -> impl Strategy<Value = Footprint> {
    const POOL: [Addr; 6] = [0, 1, 2, 7, 0x4000_0000, 0xFFFF_0000];
    let set =
        |ix: Vec<u8>| AddrSet::of(&ix.iter().map(|&i| POOL[usize::from(i)]).collect::<Vec<_>>());
    let addrs = || prop::collection::vec(0..6u8, 0..3);
    (cpus, addrs(), addrs(), 0..8u8).prop_map(move |(cpu, reads, writes, flags)| Footprint {
        cpu,
        reads: set(reads),
        writes: set(writes),
        fence: flags & 1 != 0,
        inv: flags & 2 != 0,
        resp: flags & 4 != 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Within capacity the inline relation is the reference relation,
    /// and it is symmetric either way.
    #[test]
    fn compact_footprint_matches_reference(a in footprints(0..3), b in footprints(0..3)) {
        prop_assert!(!a.overflows() && !b.overflows());
        prop_assert_eq!(a.dependent(&b), dependent_reference(&a, &b));
        prop_assert_eq!(a.dependent(&b), b.dependent(&a));
    }

    /// A footprint whose reads or writes outgrow the inline set is
    /// dependent on every decision of another CPU that touches memory.
    #[test]
    fn overflowing_footprint_depends_on_all_memory(
        b in footprints(1..3),
        on_writes in any::<bool>(),
    ) {
        let wide: Vec<Addr> = (100..101 + AddrSet::CAP as Addr).collect();
        let set = AddrSet::of(&wide);
        prop_assert!(set.is_full());
        let a = Footprint {
            reads: if on_writes { AddrSet::default() } else { set },
            writes: if on_writes { set } else { AddrSet::default() },
            ..Footprint::on(0)
        };
        prop_assert!(a.overflows());
        if b.touches_memory() {
            prop_assert!(a.dependent(&b));
        }
        prop_assert_eq!(a.dependent(&b), b.dependent(&a));
    }
}

/// What a completed run tells classes apart by: its key, loaded values
/// and final memory.
type Outcome = (u64, Vec<(u32, Val)>, Vec<(Addr, Val)>);

fn outcome(r: &RunResult) -> Outcome {
    let loads = r
        .trace
        .instrs()
        .iter()
        .filter_map(|i| match i.instr {
            Instr::Load { val, .. } => Some((i.proc.0, val)),
            _ => None,
        })
        .collect();
    (r.trace.cache_key(), loads, r.final_mem())
}

/// On PSO a CAS drains every store its CPU buffered: behind
/// `AddrSet::CAP + 1` stores to distinct addresses it writes more
/// addresses than a footprint holds. The over-approximated dependence
/// must still let the explorer reach every class enumeration reaches.
#[test]
fn overflowing_cas_explores_the_enumerated_classes() {
    let n = AddrSet::CAP as Addr + 1;
    let machine = || {
        let op = |v: u32| {
            Op::Cmd(Command::Write {
                var: Var(v),
                val: 1,
            })
        };
        let mut writer = vec![Step::Inv(op(0))];
        writer.extend((0..n).map(|a| Step::Instr(PInstr::Store(a, 1))));
        writer.push(Step::Instr(PInstr::Cas(n, 0, 1)));
        writer.push(Step::Resp(op(0)));
        let reader = vec![
            Step::Inv(op(1)),
            Step::Instr(PInstr::Load(n)),
            Step::Resp(op(1)),
        ];
        Machine::new(
            HwModel::PSO,
            vec![
                Box::new(ScriptProcess::new(writer)) as Box<dyn Process>,
                Box::new(ScriptProcess::new(reader)),
            ],
        )
    };
    let mut brute = BTreeSet::new();
    let enumerated = explore(machine, 256, |r| {
        if r.completed {
            brute.insert(outcome(r));
        }
        false
    });
    let mut dpor = BTreeSet::new();
    let mut overflowed = false;
    let explored = explore_dpor(machine, 256, |r| {
        overflowed |= r.footprints.iter().any(Footprint::overflows);
        if r.completed {
            dpor.insert(outcome(r));
        }
        false
    });
    assert!(overflowed, "the CAS must outgrow the inline address set");
    assert_eq!(dpor, brute, "DPOR classes diverge from enumeration");
    assert_eq!(explored.truncated, 0);
    assert!(explored.executed < enumerated.runs, "no reduction");
}

/// `BurstyScheduler::choose` as it was when it collected the burst
/// target's actions into a `Vec`: the draws the allocation-free one
/// must repeat.
struct BurstyReference {
    rng: StdRng,
    target: usize,
    remaining: usize,
}

impl Scheduler for BurstyReference {
    fn choose(&mut self, actions: &[Action]) -> usize {
        if self.remaining == 0 {
            self.target = self.rng.gen_range(0..8);
            self.remaining = self.rng.gen_range(1..=8);
        }
        self.remaining -= 1;
        let preferred: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.cpu() == self.target)
            .map(|(i, _)| i)
            .collect();
        if preferred.is_empty() {
            self.rng.gen_range(0..actions.len())
        } else {
            preferred[self.rng.gen_range(0..preferred.len())]
        }
    }
}

#[test]
fn bursty_choices_are_unchanged() {
    // Three CPUs storing and loading on PSO: executes and drains of
    // several CPUs are enabled together, so the burst target matters.
    let machine = || {
        Machine::new(
            HwModel::PSO,
            vec![
                straightline(vec![(false, 0, 1), (false, 1, 2), (true, 2, 0)]),
                straightline(vec![(false, 2, 3), (true, 0, 0), (false, 0, 4)]),
                straightline(vec![(true, 1, 0), (false, 1, 5)]),
            ],
        )
    };
    for seed in 0..64 {
        let got = machine().run(&mut BurstyScheduler::new(seed), 1_000);
        let mut slow = BurstyReference {
            rng: StdRng::seed_from_u64(seed),
            target: 0,
            remaining: 0,
        };
        let want = machine().run(&mut slow, 1_000);
        assert_eq!(got.decisions, want.decisions, "seed {seed}");
    }
}

/// Everything a run reports, and the footprints its scheduler was
/// shown, for comparing two runs.
#[derive(Debug, PartialEq)]
struct Record {
    instrs: Vec<jungle::isa::instr::InstrInstance>,
    key: u64,
    final_mem: Vec<(Addr, Val)>,
    footprints: Vec<Footprint>,
    observed: Vec<Footprint>,
    decisions: Vec<ChoicePoint>,
    steps: usize,
    completed: bool,
    aborted: bool,
    stats: jungle_obs::MachineStats,
}

/// A seeded-random scheduler that keeps every footprint it is shown
/// and, given `cut`, abandons the run after that many choices, the way
/// a DPOR run cut at a node whose every option is asleep ends.
struct Probe {
    inner: RandomScheduler,
    cut: Option<usize>,
    observed: Vec<Footprint>,
}

impl Probe {
    fn new(seed: u64, cut: Option<usize>) -> Self {
        Probe {
            inner: RandomScheduler::new(seed),
            cut,
            observed: Vec::new(),
        }
    }

    fn record(self, r: &RunResult) -> Record {
        Record {
            instrs: r.trace.instrs().to_vec(),
            key: r.trace.cache_key(),
            final_mem: r.final_mem(),
            footprints: r.footprints.clone(),
            observed: self.observed,
            decisions: r.decisions.clone(),
            steps: r.steps,
            completed: r.completed,
            aborted: r.aborted,
            stats: r.stats,
        }
    }
}

impl Scheduler for Probe {
    fn choose(&mut self, actions: &[Action]) -> usize {
        if let Some(left) = &mut self.cut {
            *left = left.saturating_sub(1);
        }
        self.inner.choose(actions)
    }

    fn observe(&mut self, fp: &Footprint) {
        self.observed.push(*fp);
    }

    fn abort_run(&self) -> bool {
        self.cut == Some(0)
    }
}

/// A process whose every store writes what it was last resumed with
/// (a leaked resumption shows in the trace and in memory).
fn resume_witness() -> Box<dyn Process> {
    let mut k = 0;
    let mut val = 0;
    Box::new(FnProcess::new(move |last: Option<Val>| {
        k += 1;
        match k % 3 {
            _ if k > 6 => Step::Done,
            1 => {
                val = last.map_or(1, |v| v + 2);
                Step::Inv(wr_op(Var(3), val))
            }
            2 => Step::Instr(PInstr::Store(3, val)),
            _ => Step::Resp(wr_op(Var(3), val)),
        }
    }))
}

/// A run on a machine reset from its root (`Machine::run_from`) equals
/// a run on a freshly built machine, on every registry entry: trace,
/// class key, final memory, footprints (recorded and shown to the
/// scheduler), logged decisions, steps and counters. Each seed first runs the reused
/// machine into the step bound and then cuts a run short through
/// `abort_run`, so a store buffer, a coherence floor, an operation
/// counter, the observed-footprint count or a counter that survived
/// either would show in the run after it.
#[test]
fn a_reset_machine_runs_like_a_fresh_one() {
    let tm = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 2)])]),
        ThreadProg(vec![Stmt::NtWrite(X, 1), Stmt::NtRead(Y)]),
        ThreadProg(vec![Stmt::NtWrite(Y, 3)]),
    ]);
    for e in registry() {
        let hw = e.exec;
        let factories: [&dyn Fn() -> Machine; 3] = [
            &move || {
                Machine::new(
                    hw,
                    vec![
                        straightline(vec![(false, 0, 1), (false, 1, 2), (true, 2, 0)]),
                        straightline(vec![(false, 2, 3), (true, 0, 0), (false, 0, 4)]),
                        straightline(vec![(true, 1, 0), (true, 0, 0), (false, 1, 5)]),
                        resume_witness(),
                    ],
                )
            },
            &|| machine_for(&tm, &GlobalLockTm, hw),
            &|| machine_for(&tm, &VersionedTm, hw),
        ];
        for factory in factories {
            let root = factory();
            let mut reused = root.clone();
            for seed in 0..24u64 {
                // Into the step bound, cut short, then run to the end;
                // each with the (completed, aborted) it must end with.
                let runs = [
                    (1 + seed as usize % 9, None, (false, false)),
                    (1_000, Some(1 + seed as usize % 5), (false, true)),
                    (1_000, None, (true, false)),
                ];
                for (bound, cut, ends) in runs {
                    let mut s = Probe::new(seed, cut);
                    let r = factory().run(&mut s, bound);
                    let fresh = s.record(&r);
                    let mut s = Probe::new(seed, cut);
                    let r = reused.run_from(&root, &mut s, bound);
                    let again = s.record(r);
                    assert_eq!(again, fresh, "{} seed {seed}", e.key);
                    assert_eq!((fresh.completed, fresh.aborted), ends);
                    assert_eq!(fresh.observed, fresh.footprints);
                    // One decision per footprint, and one more for the
                    // choice an aborted run never executed.
                    assert_eq!(
                        fresh.decisions.len(),
                        fresh.footprints.len() + usize::from(fresh.aborted)
                    );
                }
            }
        }
    }
}
