//! The simulated multiprocessor.
//!
//! A [`Machine`] owns one [`Process`] per CPU, per-CPU store buffers,
//! global memory, and a trace recorder. [`Machine::run`] drives it to
//! completion (or a step bound) under a [`Scheduler`]; [`explore`]
//! enumerates every schedule exhaustively with an [`ExhaustiveCursor`].
//!
//! A machine is `Clone`, and [`Machine::run_from`] runs a copy of a
//! root machine in place: it resets the copy with `clone_from`, which
//! reuses every buffer the copy holds — the instruction record, the
//! footprints and decisions, the store buffers and floors, the memory
//! cells and the trace — so a sweep that builds its machine once runs
//! schedule after schedule without allocating. [`Machine::run`] is the one-shot form of
//! the same path.

use crate::cpu::{GlobalMem, HwModel, ReorderEngine};
use crate::process::{PInstr, Process, Resume, Step};
use crate::sched::{Action, AddrSet, ChoicePoint, ExhaustiveCursor, Footprint, Scheduler};
use jungle_core::ids::{OpId, ProcId, Val};
use jungle_core::registry::StoreDiscipline;
use jungle_isa::instr::Addr;
use jungle_isa::instr::{Instr, InstrInstance};
use jungle_isa::trace::Trace;
use jungle_obs::trace::{self, EventKind};
use jungle_obs::MachineStats;

/// The outcome of one simulated run.
#[derive(Debug)]
pub struct RunResult {
    /// The recorded trace (always well-formed; possibly ending in
    /// incomplete operations if the run hit the step bound).
    pub trace: Trace,
    /// True if every process finished and all store buffers drained.
    pub completed: bool,
    /// True if the scheduler abandoned the run via
    /// [`Scheduler::abort_run`] (a subset of `!completed`).
    pub aborted: bool,
    /// Number of scheduler steps taken.
    pub steps: usize,
    /// The [`Footprint`] of every scheduler decision, in decision order
    /// (one entry per `choose` call, including the synthetic mid-load
    /// version picks).
    pub footprints: Vec<Footprint>,
    /// Every scheduler decision, one per `choose` call (an abandoned
    /// run's last one included); replayed through a
    /// [`ReplayScheduler`](crate::ReplayScheduler), they reproduce the
    /// run.
    pub decisions: Vec<ChoicePoint>,
    /// Execution counters (instructions by kind, store-buffer flushes,
    /// reorder-window occupancy high-water mark).
    pub stats: MachineStats,
    /// Global memory as the run left it.
    mem: GlobalMem,
}

impl RunResult {
    fn new() -> Self {
        RunResult {
            trace: Trace::default(),
            completed: false,
            aborted: false,
            steps: 0,
            footprints: Vec::new(),
            decisions: Vec::new(),
            stats: MachineStats::default(),
            mem: GlobalMem::default(),
        }
    }

    /// Final global memory (written cells only, sorted by address).
    /// Buffered stores of truncated runs are *not* included.
    pub fn final_mem(&self) -> Vec<(Addr, Val)> {
        self.mem.snapshot()
    }
}

impl Clone for RunResult {
    fn clone(&self) -> Self {
        RunResult {
            trace: self.trace.clone(),
            footprints: self.footprints.clone(),
            decisions: self.decisions.clone(),
            mem: self.mem.clone(),
            ..*self
        }
    }

    /// Copies into the buffers `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        self.trace.clone_from(&src.trace);
        self.completed = src.completed;
        self.aborted = src.aborted;
        self.steps = src.steps;
        self.footprints.clone_from(&src.footprints);
        self.decisions.clone_from(&src.decisions);
        self.stats = src.stats;
        self.mem.clone_from(&src.mem);
    }
}

struct CpuState {
    proc: Box<dyn Process>,
    buffer: ReorderEngine,
    resume: Resume,
    done: bool,
    /// Currently open operation id and the trace index of its
    /// invocation marker (for backpatching).
    current_op: Option<(OpId, usize)>,
}

impl Clone for CpuState {
    fn clone(&self) -> Self {
        CpuState {
            proc: self.proc.boxed_clone(),
            buffer: self.buffer.clone(),
            ..*self
        }
    }

    /// Copies into the process and buffers `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        src.proc.clone_onto(&mut self.proc);
        self.buffer.clone_from(&src.buffer);
        self.resume = src.resume;
        self.done = src.done;
        self.current_op = src.current_op;
    }
}

/// The simulated multiprocessor machine.
pub struct Machine {
    hw: HwModel,
    mem: GlobalMem,
    cpus: Vec<CpuState>,
    /// The instructions of the running run, in order; moved into
    /// `result.trace` when it ends.
    instrs: Vec<InstrInstance>,
    next_op: u32,
    /// Footprints already reported via [`Scheduler::observe`].
    observed: usize,
    /// The choice list of the current `choose` call, refilled in place
    /// (the enabled actions, or a load's version picks).
    actions: Vec<Action>,
    /// The record of the run: footprints and counters as it goes, the
    /// trace and final memory once it ends.
    result: RunResult,
}

impl Clone for Machine {
    fn clone(&self) -> Self {
        Machine {
            hw: self.hw,
            mem: self.mem.clone(),
            cpus: self.cpus.clone(),
            instrs: self.instrs.clone(),
            next_op: self.next_op,
            observed: self.observed,
            actions: self.actions.clone(),
            result: self.result.clone(),
        }
    }

    /// Copies into the buffers `self` already holds: after the first
    /// few runs, resetting a working copy from its root allocates
    /// nothing.
    fn clone_from(&mut self, src: &Self) {
        self.hw = src.hw;
        self.mem.clone_from(&src.mem);
        self.cpus.clone_from(&src.cpus);
        self.instrs.clone_from(&src.instrs);
        self.next_op = src.next_op;
        self.observed = src.observed;
        self.actions.clone_from(&src.actions);
        self.result.clone_from(&src.result);
    }
}

impl Machine {
    /// Create a machine with one CPU per process in `procs`, executing
    /// under hardware model `hw`. CPU `i` runs as `ProcId(i)`.
    pub fn new(hw: HwModel, procs: Vec<Box<dyn Process>>) -> Self {
        let cpus = procs
            .into_iter()
            .map(|proc| CpuState {
                proc,
                buffer: ReorderEngine::default(),
                resume: None,
                done: false,
                current_op: None,
            })
            .collect();
        Machine {
            hw,
            mem: GlobalMem::default(),
            cpus,
            instrs: Vec::new(),
            next_op: 1,
            observed: 0,
            actions: Vec::new(),
            result: RunResult::new(),
        }
    }

    /// Pre-initialize a memory address (all addresses default to 0).
    pub fn poke(&mut self, addr: jungle_isa::instr::Addr, val: Val) {
        self.mem.store(addr, val);
    }

    /// Refill `actions` with the enabled actions, in CPU order: each
    /// CPU's next step (unless done), then its drainable stores.
    fn fill_enabled(&mut self) {
        self.actions.clear();
        for (i, c) in self.cpus.iter().enumerate() {
            if !c.done {
                self.actions.push(Action::Exec { cpu: i });
            }
            self.actions.extend(
                c.buffer
                    .drainable(self.hw)
                    .map(|idx| Action::Drain { cpu: i, idx }),
            );
        }
    }

    fn record(&mut self, cpu: usize, instr: Instr) -> usize {
        let op = self.cpus[cpu]
            .current_op
            .map(|(id, _)| id)
            .expect("instruction issued outside an operation");
        self.instrs.push(InstrInstance {
            instr,
            proc: ProcId(cpu as u32),
            op,
        });
        self.instrs.len() - 1
    }

    /// Apply a drained store to memory and record that this CPU has
    /// observed it (its own write raises the address's coherence
    /// floor). Counts as a global-memory write on the current decision.
    fn apply_drain(&mut self, cpu: usize, addr: Addr, val: Val) {
        let seq = self.mem.store(addr, val);
        self.cpus[cpu].buffer.raise_addr_floor(addr, seq);
        self.note_write(addr);
    }

    /// The footprint of the decision currently executing.
    fn fp(&mut self) -> &mut Footprint {
        self.result
            .footprints
            .last_mut()
            .expect("decision footprint pushed before execution")
    }

    fn note_read(&mut self, addr: Addr) {
        self.fp().reads.insert(addr);
    }

    fn note_write(&mut self, addr: Addr) {
        self.fp().writes.insert(addr);
    }

    /// Report the outstanding footprints, ask `sched` to choose from
    /// `self.actions`, check the index, and log the decision.
    fn choose(&mut self, sched: &mut dyn Scheduler) -> usize {
        self.flush_observations(sched);
        let options = self.actions.len();
        let chosen = sched.choose(&self.actions);
        assert!(
            chosen < options,
            "scheduler chose index {chosen} of {options} options"
        );
        self.result.decisions.push(ChoicePoint {
            chosen,
            options,
            action: self.actions[chosen].encode(),
        });
        chosen
    }

    /// Report every completed-but-unreported decision footprint to the
    /// scheduler, in decision order. Called before each `choose` (outer
    /// and mid-load) and once before `run` returns, so schedulers
    /// always see the footprints of all prior decisions by the time
    /// they pick the next one.
    fn flush_observations(&mut self, sched: &mut dyn Scheduler) {
        while self.observed < self.result.footprints.len() {
            sched.observe(&self.result.footprints[self.observed]);
            self.observed += 1;
        }
    }

    /// The memory versions a load of `addr` on `cpu` may observe, as the
    /// tail of the address's version list (oldest → newest): the current
    /// value plus up to `load_window` older ones, cut off at the CPU's
    /// coherence floor. A stale version is admissible only while the CPU
    /// has not yet observed the write that overwrote it (i.e. the
    /// next-newer version's sequence number is above the floor).
    fn admissible_versions(&self, cpu: usize, addr: Addr) -> &[(u64, Val)] {
        let vs = self.mem.versions(addr);
        let floor = self.cpus[cpu].buffer.eff_floor(addr);
        let n = vs.len();
        let window = (self.hw.load_window as usize).min(n - 1);
        let mut take = 1;
        // Older versions are below the floor once one is.
        while take <= window && vs[n - take].0 > floor {
            take += 1;
        }
        &vs[n - take..]
    }

    /// Perform a load of `addr` against global memory (the forwarding
    /// fast path has already been tried). With more than one admissible
    /// version the scheduler picks which one the load observes, via a
    /// synthetic [`Action::ReadVersion`] choice list (0 = newest); the
    /// observed version raises the address's floor (reads are monotone).
    /// A model without a load window, or a dependency-ordered load,
    /// reads the newest version straight away.
    fn versioned_load(
        &mut self,
        cpu: usize,
        addr: Addr,
        dep_ordered: bool,
        sched: &mut dyn Scheduler,
    ) -> Val {
        self.note_read(addr);
        let options = if dep_ordered || self.hw.load_window == 0 {
            1
        } else {
            self.admissible_versions(cpu, addr).len()
        };
        let (seq, val) = if options > 1 {
            // The enabled list this Exec was chosen from is spent: the
            // buffer carries the version picks now.
            self.actions.clear();
            self.actions
                .extend((0..options).map(|version| Action::ReadVersion { cpu, version }));
            // The enclosing Exec decision's accesses are all recorded by
            // now (forced drains and the read above) — safe to report it
            // before asking for the version pick.
            let c = self.choose(sched);
            self.result.footprints.push(Footprint {
                cpu,
                reads: AddrSet::of(&[addr]),
                ..Footprint::default()
            });
            if c > 0 {
                self.result.stats.stale_loads += 1;
            }
            let vs = self.admissible_versions(cpu, addr);
            vs[vs.len() - 1 - c]
        } else {
            self.mem.current(addr)
        };
        self.cpus[cpu].buffer.raise_addr_floor(addr, seq);
        val
    }

    /// Execute a load instruction: forward from the CPU's own buffer if
    /// the model permits, otherwise (on non-forwarding models) drain
    /// pending same-address stores first, then read a memory version.
    fn exec_load(
        &mut self,
        cpu: usize,
        addr: Addr,
        dep_ordered: bool,
        sched: &mut dyn Scheduler,
    ) -> Val {
        if self.hw.forwarding {
            if let Some(v) = self.cpus[cpu].buffer.forward(addr) {
                trace::emit(EventKind::StoreForward, addr as u64, v);
                return v;
            }
        } else {
            // The load must wait for the CPU's own pending stores to
            // `addr` to become globally visible.
            while let Some(e) = self.cpus[cpu].buffer.pop_forced_for_load(self.hw, addr) {
                self.result.stats.flushes += 1;
                self.apply_drain(cpu, e.addr, e.val);
            }
        }
        self.versioned_load(cpu, addr, dep_ordered, sched)
    }

    fn exec(&mut self, cpu: usize, sched: &mut dyn Scheduler) {
        let resume = self.cpus[cpu].resume.take();
        let step = self.cpus[cpu].proc.next(resume);
        match step {
            Step::Done => {
                self.cpus[cpu].done = true;
            }
            Step::Inv(op) => {
                assert!(
                    self.cpus[cpu].current_op.is_none(),
                    "nested operation invocation on cpu {cpu}"
                );
                self.fp().inv = true;
                let id = OpId(self.next_op);
                self.next_op += 1;
                self.instrs.push(InstrInstance {
                    instr: Instr::Inv(op),
                    proc: ProcId(cpu as u32),
                    op: id,
                });
                self.cpus[cpu].current_op = Some((id, self.instrs.len() - 1));
            }
            Step::Resp(op) => {
                self.fp().resp = true;
                let (id, inv_idx) = self.cpus[cpu]
                    .current_op
                    .take()
                    .expect("response without open operation");
                // Backpatch the invocation with the final operation
                // (whose read values are now known).
                self.instrs[inv_idx].instr = Instr::Inv(op.clone());
                self.instrs.push(InstrInstance {
                    instr: Instr::Resp(op),
                    proc: ProcId(cpu as u32),
                    op: id,
                });
            }
            Step::Instr(pi) => match pi {
                PInstr::Load(addr) | PInstr::LoadDep(addr) => {
                    self.result.stats.loads += 1;
                    let dep_ordered = matches!(pi, PInstr::LoadDep(_)) && self.hw.order_dep_loads;
                    let val = self.exec_load(cpu, addr, dep_ordered, sched);
                    self.record(cpu, Instr::Load { addr, val });
                    self.cpus[cpu].resume = Some(val);
                }
                PInstr::Store(addr, val) => {
                    self.result.stats.stores += 1;
                    match self.hw.stores {
                        StoreDiscipline::Immediate => self.apply_drain(cpu, addr, val),
                        StoreDiscipline::Fifo | StoreDiscipline::PerAddress => {
                            self.cpus[cpu].buffer.push(addr, val);
                            let occupancy = self.cpus[cpu].buffer.len();
                            self.result.stats.note_occupancy(occupancy);
                        }
                    }
                    self.record(cpu, Instr::Store { addr, val });
                    self.cpus[cpu].resume = Some(0);
                }
                PInstr::Cas(addr, expect, new) => {
                    self.result.stats.cas_ops += 1;
                    self.fp().fence = true;
                    // A CAS acts like a full fence: drain the CPU's own
                    // buffer before executing atomically…
                    while let Some(e) = self.cpus[cpu].buffer.pop_oldest() {
                        self.result.stats.flushes += 1;
                        self.apply_drain(cpu, e.addr, e.val);
                    }
                    self.note_read(addr);
                    let ok = self.mem.cas(addr, expect, new);
                    if ok {
                        self.note_write(addr);
                    }
                    // …and synchronize with global memory: no later
                    // load on this CPU may observe anything older than
                    // the CAS point.
                    let seq = self.mem.seq();
                    self.cpus[cpu].buffer.raise_global_floor(seq);
                    self.record(
                        cpu,
                        Instr::Cas {
                            addr,
                            expect,
                            new,
                            ok,
                        },
                    );
                    self.cpus[cpu].resume = Some(ok as Val);
                }
            },
        }
    }

    /// Run under `sched` until completion or `max_steps`.
    pub fn run(mut self, sched: &mut dyn Scheduler, max_steps: usize) -> RunResult {
        self.execute(sched, max_steps);
        self.result
    }

    /// Make this machine a copy of `root` (reusing its buffers; see
    /// [`Clone::clone_from`]) and run it under `sched` until completion
    /// or `max_steps`, as [`Machine::run`] would run a fresh `root`.
    /// The result borrows the machine until its next run.
    pub fn run_from(
        &mut self,
        root: &Machine,
        sched: &mut dyn Scheduler,
        max_steps: usize,
    ) -> &RunResult {
        self.clone_from(root);
        self.execute(sched, max_steps);
        &self.result
    }

    /// The one execution path: run from the current state, and leave
    /// the record of the run in `self.result`.
    fn execute(&mut self, sched: &mut dyn Scheduler, max_steps: usize) {
        let mut steps = 0;
        loop {
            self.fill_enabled();
            if self.actions.is_empty() {
                break;
            }
            if steps >= max_steps {
                return self.finish(sched, steps, false, false);
            }
            let choice = self.choose(sched);
            if sched.abort_run() {
                return self.finish(sched, steps, false, true);
            }
            let action = self.actions[choice];
            self.result.footprints.push(Footprint::on(action.cpu()));
            match action {
                Action::Exec { cpu } => self.exec(cpu, sched),
                Action::Drain { cpu, idx } => {
                    self.result.stats.flushes += 1;
                    let e = self.cpus[cpu].buffer.take(idx);
                    self.apply_drain(cpu, e.addr, e.val);
                }
                Action::ReadVersion { .. } => {
                    unreachable!("ReadVersion appears only in synthetic mid-load choice lists")
                }
            }
            steps += 1;
        }
        self.finish(sched, steps, true, false)
    }

    /// Report the outstanding footprints and complete the record: the
    /// instructions move into the trace, and memory is copied.
    fn finish(&mut self, sched: &mut dyn Scheduler, steps: usize, completed: bool, aborted: bool) {
        self.flush_observations(sched);
        let r = &mut self.result;
        r.stats.steps = steps as u64;
        r.steps = steps;
        r.completed = completed;
        r.aborted = aborted;
        r.mem.clone_from(&self.mem);
        r.trace
            .rebuild(&mut self.instrs)
            .expect("recorded trace is well-formed");
    }
}

/// Statistics of an exhaustive exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreOutcome {
    /// Number of complete schedules visited.
    pub runs: usize,
    /// Runs truncated by the step bound.
    pub truncated: usize,
    /// True if `visit` requested an early stop.
    pub stopped_early: bool,
    /// Machine-level totals accumulated across all visited runs.
    pub stats: MachineStats,
}

/// Exhaustively explore every schedule of the machine built by
/// `factory`, invoking `visit` on each run's result. `visit` returning
/// `true` stops the exploration (e.g. a violation was found). Every
/// run is a copy of the one machine `factory` builds
/// ([`Machine::run_from`]).
///
/// The number of schedules is exponential in trace length — keep
/// programs litmus-sized (see the crate docs). Runs that exceed
/// `max_steps` are reported with `completed == false` and still
/// visited (their traces are valid prefixes).
pub fn explore(
    factory: impl FnOnce() -> Machine,
    max_steps: usize,
    mut visit: impl FnMut(&RunResult) -> bool,
) -> ExploreOutcome {
    let root = factory();
    let mut machine = root.clone();
    let mut cursor = ExhaustiveCursor::default();
    let mut out = ExploreOutcome::default();
    loop {
        cursor.rewind();
        let result = machine.run_from(&root, &mut cursor, max_steps);
        out.stats.absorb(&result.stats);
        out.runs += 1;
        if !result.completed {
            out.truncated += 1;
        }
        if visit(result) {
            out.stopped_early = true;
            return out;
        }
        if !cursor.advance() {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ScriptProcess;
    use crate::sched::{Divergence, RandomScheduler, ReplayScheduler};
    use jungle_core::ids::{Var, X, Y};
    use jungle_core::op::{Command, Op};

    fn rd_op(var: Var, val: Val) -> Op {
        Op::Cmd(Command::Read { var, val })
    }

    fn wr_op(var: Var, val: Val) -> Op {
        Op::Cmd(Command::Write { var, val })
    }

    /// A process that writes `addr := val` as one non-transactional
    /// operation.
    fn writer(var: Var, addr: u32, val: Val) -> Box<dyn Process> {
        Box::new(ScriptProcess::new(vec![
            Step::Inv(wr_op(var, val)),
            Step::Instr(PInstr::Store(addr, val)),
            Step::Resp(wr_op(var, val)),
        ]))
    }

    /// A reader of two addresses as two operations; records observed
    /// values into the trace via backpatched responses.
    fn two_reads(v1: Var, a1: u32, v2: Var, a2: u32) -> Box<dyn Process> {
        use crate::process::FnProcess;
        let mut state = 0;
        Box::new(FnProcess::new(move |last| {
            state += 1;
            match state {
                1 => Step::Inv(rd_op(v1, 0)),
                2 => Step::Instr(PInstr::Load(a1)),
                3 => Step::Resp(rd_op(v1, last.unwrap())),
                4 => Step::Inv(rd_op(v2, 0)),
                5 => Step::Instr(PInstr::Load(a2)),
                6 => Step::Resp(rd_op(v2, last.unwrap())),
                _ => Step::Done,
            }
        }))
    }

    #[test]
    fn sequential_run_on_sc() {
        let m = Machine::new(HwModel::SC, vec![writer(X, 0, 5)]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        assert_eq!(r.trace.ops().len(), 1);
    }

    #[test]
    fn store_buffering_invisible_on_sc() {
        // SB litmus: p0: x:=1; read y. p1: y:=1; read x.
        // Under SC at least one read sees 1.
        let factory = || {
            use crate::process::FnProcess;
            let mk = |wa: u32, ra: u32, wv: Var, rv: Var| {
                let mut st = 0;
                Box::new(FnProcess::new(move |last| {
                    st += 1;
                    match st {
                        1 => Step::Inv(wr_op(wv, 1)),
                        2 => Step::Instr(PInstr::Store(wa, 1)),
                        3 => Step::Resp(wr_op(wv, 1)),
                        4 => Step::Inv(rd_op(rv, 0)),
                        5 => Step::Instr(PInstr::Load(ra)),
                        6 => Step::Resp(rd_op(rv, last.unwrap())),
                        _ => Step::Done,
                    }
                })) as Box<dyn Process>
            };
            Machine::new(HwModel::SC, vec![mk(0, 1, X, Y), mk(1, 0, Y, X)])
        };
        let mut both_zero = false;
        explore(factory, 64, |r| {
            let reads: Vec<Val> = r
                .trace
                .instrs()
                .iter()
                .filter_map(|i| match i.instr {
                    Instr::Load { val, .. } => Some(val),
                    _ => None,
                })
                .collect();
            if reads == vec![0, 0] {
                both_zero = true;
            }
            false
        });
        assert!(!both_zero, "SC must not exhibit store-buffering");
    }

    #[test]
    fn store_buffering_visible_on_tso() {
        // Same SB litmus on TSO: schedule both stores into the buffers,
        // run both loads, then drain. Directed schedule: exec p0 store
        // path, exec p1 store path, loads, drains.
        use crate::process::FnProcess;
        let mk = |wa: u32, ra: u32, wv: Var, rv: Var| {
            let mut st = 0;
            Box::new(FnProcess::new(move |last| {
                st += 1;
                match st {
                    1 => Step::Inv(wr_op(wv, 1)),
                    2 => Step::Instr(PInstr::Store(wa, 1)),
                    3 => Step::Resp(wr_op(wv, 1)),
                    4 => Step::Inv(rd_op(rv, 0)),
                    5 => Step::Instr(PInstr::Load(ra)),
                    6 => Step::Resp(rd_op(rv, last.unwrap())),
                    _ => Step::Done,
                }
            })) as Box<dyn Process>
        };
        let factory = || Machine::new(HwModel::TSO_FWD, vec![mk(0, 1, X, Y), mk(1, 0, Y, X)]);
        let mut both_zero = false;
        explore(factory, 64, |r| {
            let reads: Vec<Val> = r
                .trace
                .instrs()
                .iter()
                .filter_map(|i| match i.instr {
                    Instr::Load { val, .. } => Some(val),
                    _ => None,
                })
                .collect();
            if reads.len() == 2 && reads == vec![0, 0] {
                both_zero = true;
                return true;
            }
            false
        });
        assert!(both_zero, "TSO must exhibit store-buffering");
    }

    #[test]
    fn message_passing_reorders_on_pso_not_tso() {
        // MP litmus: p0: x:=1; y:=1. p1: read y; read x.
        // (y=1, x=0) requires write-write reordering: PSO yes, TSO no.
        let run_all = |hw: HwModel| {
            let factory = move || {
                Machine::new(
                    hw,
                    vec![
                        Box::new(ScriptProcess::new(vec![
                            Step::Inv(wr_op(X, 1)),
                            Step::Instr(PInstr::Store(0, 1)),
                            Step::Resp(wr_op(X, 1)),
                            Step::Inv(wr_op(Y, 1)),
                            Step::Instr(PInstr::Store(1, 1)),
                            Step::Resp(wr_op(Y, 1)),
                        ])) as Box<dyn Process>,
                        two_reads(Y, 1, X, 0),
                    ],
                )
            };
            let mut fresh_y_stale_x = false;
            explore(factory, 96, |r| {
                let reads: Vec<Val> = r
                    .trace
                    .instrs()
                    .iter()
                    .filter_map(|i| match i.instr {
                        Instr::Load { val, .. } => Some(val),
                        _ => None,
                    })
                    .collect();
                if reads == vec![1, 0] {
                    fresh_y_stale_x = true;
                    return true;
                }
                false
            });
            fresh_y_stale_x
        };
        assert!(!run_all(HwModel::SC));
        assert!(!run_all(HwModel::TSO_FWD));
        assert!(run_all(HwModel::PSO_FWD));
    }

    #[test]
    fn store_forwarding_on_tso() {
        use crate::process::FnProcess;
        let mut st = 0;
        let p = Box::new(FnProcess::new(move |last| {
            st += 1;
            match st {
                1 => Step::Inv(wr_op(X, 7)),
                2 => Step::Instr(PInstr::Store(0, 7)),
                3 => Step::Resp(wr_op(X, 7)),
                4 => Step::Inv(rd_op(X, 0)),
                5 => Step::Instr(PInstr::Load(0)),
                6 => {
                    assert_eq!(last, Some(7), "must forward from own buffer");
                    Step::Resp(rd_op(X, 7))
                }
                _ => Step::Done,
            }
        })) as Box<dyn Process>;
        // Schedule only Exec actions for cpu 0 (never drain first).
        let m = Machine::new(HwModel::TSO_FWD, vec![p]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
    }

    #[test]
    fn cas_drains_buffer_and_is_atomic() {
        use crate::process::FnProcess;
        let mut st = 0;
        let p = Box::new(FnProcess::new(move |last| {
            st += 1;
            match st {
                1 => Step::Inv(wr_op(X, 1)),
                2 => Step::Instr(PInstr::Store(0, 1)),
                3 => Step::Resp(wr_op(X, 1)),
                4 => Step::Inv(wr_op(Y, 2)),
                5 => Step::Instr(PInstr::Cas(1, 0, 2)),
                6 => {
                    assert_eq!(last, Some(1), "CAS should succeed");
                    Step::Resp(wr_op(Y, 2))
                }
                _ => Step::Done,
            }
        })) as Box<dyn Process>;
        let mut m = Machine::new(HwModel::TSO_FWD, vec![p]);
        m.poke(1, 0);
        let mut s = ReplayScheduler::default();
        // After the run, both the buffered store and the CAS value must
        // be in memory.
        let r = m.run(&mut s, 100);
        assert!(r.completed);
    }

    #[test]
    fn run_bound_reports_incomplete() {
        use crate::process::FnProcess;
        // A process that spins forever on a CAS that can never succeed.
        let mut st = 0;
        let p = Box::new(FnProcess::new(move |_| {
            st += 1;
            if st == 1 {
                Step::Inv(wr_op(X, 1))
            } else {
                Step::Instr(PInstr::Cas(0, 99, 1))
            }
        })) as Box<dyn Process>;
        let m = Machine::new(HwModel::SC, vec![p]);
        let mut s = RandomScheduler::new(1);
        let r = m.run(&mut s, 50);
        assert!(!r.completed);
        assert_eq!(r.steps, 50);
        assert_eq!(r.trace.ops().len(), 1);
        assert!(!r.trace.ops()[0].complete);
    }

    #[test]
    fn run_stats_count_instrs_and_flushes() {
        // One store into a TSO buffer, drained by the scheduler, then a
        // CAS (which drains nothing further).
        use crate::process::FnProcess;
        let mut st = 0;
        let p = Box::new(FnProcess::new(move |_| {
            st += 1;
            match st {
                1 => Step::Inv(wr_op(X, 1)),
                2 => Step::Instr(PInstr::Store(0, 1)),
                3 => Step::Resp(wr_op(X, 1)),
                4 => Step::Inv(rd_op(X, 0)),
                5 => Step::Instr(PInstr::Load(0)),
                6 => Step::Resp(rd_op(X, 1)),
                7 => Step::Inv(wr_op(Y, 2)),
                8 => Step::Instr(PInstr::Cas(1, 0, 2)),
                9 => Step::Resp(wr_op(Y, 2)),
                _ => Step::Done,
            }
        })) as Box<dyn Process>;
        let m = Machine::new(HwModel::TSO_FWD, vec![p]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.cas_ops, 1);
        assert_eq!(r.stats.flushes, 1, "buffered store must flush exactly once");
        assert_eq!(r.stats.max_buffer_occupancy, 1);
        assert_eq!(r.stats.steps as usize, r.steps);
    }

    /// A reader of a single address as one operation, using `LoadDep`
    /// when `dep` is set.
    fn one_read(var: Var, addr: u32, dep: bool) -> Box<dyn Process> {
        use crate::process::FnProcess;
        let mut st = 0;
        Box::new(FnProcess::new(move |last| {
            st += 1;
            match st {
                1 => Step::Inv(rd_op(var, 0)),
                2 => Step::Instr(if dep {
                    PInstr::LoadDep(addr)
                } else {
                    PInstr::Load(addr)
                }),
                3 => Step::Resp(rd_op(var, last.unwrap())),
                _ => Step::Done,
            }
        }))
    }

    #[test]
    fn admissible_versions_respect_window_and_floors() {
        let mut m = Machine::new(HwModel::RMO, vec![one_read(X, 0, false)]);
        let s1 = m.mem.store(0, 1);
        let s2 = m.mem.store(0, 2);
        let s3 = m.mem.store(0, 3);
        let s4 = m.mem.store(0, 4);
        // RMO's window of 2: the newest three versions are admissible
        // (listed oldest first).
        assert_eq!(m.admissible_versions(0, 0), [(s2, 2), (s3, 3), (s4, 4)]);
        // Once the CPU observed version s3, version s2 is gone (its
        // overwriter s3 is at or below the floor).
        m.cpus[0].buffer.raise_addr_floor(0, s3);
        assert_eq!(m.admissible_versions(0, 0), [(s3, 3), (s4, 4)]);
        // A full fence pins the load to the current value.
        m.cpus[0].buffer.raise_global_floor(s4);
        assert_eq!(m.admissible_versions(0, 0), [(s4, 4)]);

        let mut m = Machine::new(HwModel::RELAXED, vec![one_read(X, 0, false)]);
        let s1b = m.mem.store(0, 1);
        assert_eq!(s1b, s1);
        let s2 = m.mem.store(0, 2);
        let s3 = m.mem.store(0, 3);
        let s4 = m.mem.store(0, 4);
        // Relaxed's window of 3 reaches one version further back.
        assert_eq!(
            m.admissible_versions(0, 0),
            [(s1, 1), (s2, 2), (s3, 3), (s4, 4)]
        );
    }

    #[test]
    fn stale_loads_only_on_windowed_models() {
        let run = |hw: HwModel| {
            let factory = move || Machine::new(hw, vec![writer(X, 0, 1), one_read(X, 0, false)]);
            explore(factory, 64, |_| false).stats.stale_loads
        };
        for hw in [
            HwModel::SC,
            HwModel::TSO,
            HwModel::TSO_FWD,
            HwModel::PSO,
            HwModel::PSO_FWD,
        ] {
            assert_eq!(run(hw), 0, "{} must not read stale values", hw.name);
        }
        for hw in [HwModel::RMO, HwModel::ALPHA, HwModel::RELAXED] {
            assert!(run(hw) > 0, "{} must offer stale reads", hw.name);
        }
    }

    #[test]
    fn same_address_reads_are_monotone_under_relaxed() {
        // Coherence: a CPU that read x = 1 can never read x = 0 after,
        // even on the fully relaxed machine.
        let factory = || {
            Machine::new(
                HwModel::RELAXED,
                vec![writer(X, 0, 1), two_reads(X, 0, X, 0)],
            )
        };
        explore(factory, 96, |r| {
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
            assert_ne!(reads, vec![1, 0], "monotone-read violation");
            false
        });
    }

    #[test]
    fn dep_loads_ordered_on_rmo_but_not_alpha() {
        let run = |hw: HwModel| {
            let factory = move || Machine::new(hw, vec![writer(X, 0, 1), one_read(X, 0, true)]);
            explore(factory, 64, |_| false).stats.stale_loads
        };
        // RMO orders dependent loads: a LoadDep always reads the
        // current value. Alpha does not.
        assert_eq!(run(HwModel::RMO), 0);
        assert!(run(HwModel::ALPHA) > 0);
        assert!(run(HwModel::RELAXED) > 0);
    }

    #[test]
    fn plain_tso_load_drains_own_store() {
        // Without forwarding, a load of an address with a pending own
        // store must first make the store globally visible.
        use crate::process::FnProcess;
        let mut st = 0;
        let p = Box::new(FnProcess::new(move |last| {
            st += 1;
            match st {
                1 => Step::Inv(wr_op(X, 7)),
                2 => Step::Instr(PInstr::Store(0, 7)),
                3 => Step::Resp(wr_op(X, 7)),
                4 => Step::Inv(rd_op(X, 0)),
                5 => Step::Instr(PInstr::Load(0)),
                6 => {
                    assert_eq!(last, Some(7), "load must see own drained store");
                    Step::Resp(rd_op(X, 7))
                }
                _ => Step::Done,
            }
        })) as Box<dyn Process>;
        let m = Machine::new(HwModel::TSO, vec![p]);
        // Only ever pick Exec (never a scheduled drain): the forced
        // drain happens inside the load itself.
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        assert_eq!(r.stats.flushes, 1);
        assert_eq!(r.final_mem(), vec![(0, 7)]);
    }

    #[test]
    fn explore_aggregates_stats() {
        let factory = || Machine::new(HwModel::SC, vec![writer(X, 0, 1), writer(Y, 1, 2)]);
        let out = explore(factory, 64, |_| false);
        // Every run executes both stores.
        assert_eq!(out.stats.stores, 2 * out.runs as u64);
        assert!(out.stats.steps > 0);
    }

    #[test]
    fn footprints_follow_decisions() {
        // writer on SC (immediate stores): Inv, Store, Resp, Done —
        // four Exec decisions, no inner version picks.
        let m = Machine::new(HwModel::SC, vec![writer(X, 0, 5)]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        assert_eq!(r.footprints.len(), 4);
        assert!(r.footprints.iter().all(|f| f.cpu == 0));
        assert!(r.footprints[0].inv && r.footprints[0].writes.is_empty());
        assert_eq!(r.footprints[1].writes.held(), [0]);
        assert!(r.footprints[2].resp);
        assert_eq!(r.footprints[3], Footprint::on(0));
    }

    #[test]
    fn cas_footprint_is_fenced_read_write() {
        use crate::process::FnProcess;
        let mut st = 0;
        let p = Box::new(FnProcess::new(move |_| {
            st += 1;
            match st {
                1 => Step::Inv(wr_op(X, 1)),
                2 => Step::Instr(PInstr::Cas(0, 0, 1)),
                3 => Step::Resp(wr_op(X, 1)),
                _ => Step::Done,
            }
        })) as Box<dyn Process>;
        let m = Machine::new(HwModel::TSO_FWD, vec![p]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        let f = &r.footprints[1];
        assert!(f.fence);
        assert_eq!(f.reads.held(), [0]);
        assert_eq!(f.writes.held(), [0], "successful CAS writes");
    }

    #[test]
    fn versioned_load_adds_inner_footprint() {
        let mut m = Machine::new(HwModel::RMO, vec![one_read(X, 0, false)]);
        m.mem.store(0, 1);
        m.mem.store(0, 2);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        // Inv, Load (outer), version pick (inner), Resp, Done.
        assert_eq!(r.footprints.len(), 5);
        assert_eq!(r.footprints[1].reads.held(), [0]);
        assert_eq!(r.footprints[2].reads.held(), [0]);
        assert!(!r.footprints[2].inv && !r.footprints[2].resp);
    }

    #[test]
    #[should_panic(expected = "scheduler chose index")]
    fn out_of_range_choice_panics() {
        struct Wild;
        impl Scheduler for Wild {
            fn choose(&mut self, _actions: &[Action]) -> usize {
                usize::MAX
            }
        }
        let m = Machine::new(HwModel::SC, vec![writer(X, 0, 1)]);
        m.run(&mut Wild, 100);
    }

    #[test]
    fn abort_run_stops_without_completing() {
        struct AbortAfter {
            chooses: usize,
            limit: usize,
        }
        impl Scheduler for AbortAfter {
            fn choose(&mut self, _actions: &[Action]) -> usize {
                self.chooses += 1;
                0
            }
            fn abort_run(&self) -> bool {
                self.chooses > self.limit
            }
        }
        let m = Machine::new(HwModel::SC, vec![writer(X, 0, 1)]);
        let mut s = AbortAfter {
            chooses: 0,
            limit: 2,
        };
        let r = m.run(&mut s, 100);
        assert!(!r.completed);
        assert!(r.aborted);
        assert_eq!(r.steps, 2);
        assert_eq!(r.footprints.len(), 2, "aborted decision records nothing");
        assert_eq!(r.decisions.len(), 3, "but its choice is logged");
    }

    #[test]
    fn observe_reports_every_footprint_in_order() {
        #[derive(Default)]
        struct Collect {
            fps: Vec<Footprint>,
        }
        impl Scheduler for Collect {
            fn choose(&mut self, _actions: &[Action]) -> usize {
                0
            }
            fn observe(&mut self, fp: &Footprint) {
                self.fps.push(*fp);
            }
        }
        let mut m = Machine::new(HwModel::RMO, vec![one_read(X, 0, false)]);
        m.mem.store(0, 1);
        m.mem.store(0, 2);
        let mut s = Collect::default();
        let r = m.run(&mut s, 100);
        assert!(r.completed);
        assert_eq!(s.fps, r.footprints);
    }

    #[test]
    fn a_run_logs_its_decisions_and_replays_from_them() {
        // Two readers racing a writer on RMO: the main loop's choices
        // and the mid-load version picks are both logged.
        let factory = || {
            let mut m = Machine::new(
                HwModel::RMO,
                vec![
                    writer(X, 0, 1),
                    one_read(X, 0, false),
                    two_reads(X, 0, Y, 1),
                ],
            );
            m.poke(0, 9);
            m
        };
        let mut picks = 0;
        for seed in 0..32 {
            let r = factory().run(&mut RandomScheduler::new(seed), 100);
            assert!(r.completed);
            assert_eq!(r.decisions.len(), r.footprints.len());
            // Kind 3 of `Action::encode`: a version pick.
            picks += r.decisions.iter().filter(|cp| cp.action >> 32 == 3).count();
            let again = factory().run(&mut ReplayScheduler::new(&r.decisions), 100);
            assert_eq!(again.trace.cache_key(), r.trace.cache_key());
            assert_eq!(again.decisions, r.decisions);
            assert_eq!(Divergence::find(&r.decisions, &again.decisions), None);
        }
        assert!(picks > 0, "no version pick was logged");
    }

    #[test]
    fn explore_counts_runs() {
        // Two single-instruction processes → a handful of interleavings.
        let factory = || Machine::new(HwModel::SC, vec![writer(X, 0, 1), writer(Y, 1, 2)]);
        let out = explore(factory, 64, |_| false);
        assert!(out.runs >= 2, "expected ≥2 interleavings, got {}", out.runs);
        assert_eq!(out.truncated, 0);
        assert!(!out.stopped_early);
    }
}
