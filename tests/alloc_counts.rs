//! Heap allocations per schedule.
//!
//! A sweep discharges "for every trace" by running the machine once per
//! schedule: once per Mazurkiewicz class in an exhaustive sweep
//! (`explore_dpor`), once per seed in a random one (`Sweep::sample`).
//! Both build their machine once and reset a copy of it before every
//! run (`Machine::run_from`), the DPOR cursor refills its path nodes in
//! place, and a random sweep builds each seed's scheduler by value
//! (`SeedScheduler`), so a schedule costs no allocation in steady
//! state, its logged decisions included. This binary counts the calling
//! thread's allocations with a global allocator of its own and holds
//! the average per schedule to [`PER_RUN`] (a DPOR run) and
//! [`PER_SCHEDULE`] (a random schedule); a machine or cursor that
//! allocates per run again (building the machine per schedule costs
//! about thirty) fails it, as does a boxed scheduler per seed.
//!
//! Only the calling thread is counted, so the test harness's other
//! threads cannot disturb the figure.

use jungle::core::ids::{X, Y};
use jungle::core::registry::entry;
use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
use jungle::mc::{explore_dpor, machine_for, GlobalLockTm, SeedScheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations allowed per DPOR run, averaged over a sweep (the first
/// runs grow the reused buffers; the rest allocate nothing of the
/// machine's or the cursor's).
const PER_RUN: f64 = 4.0;

/// Allocations allowed per random schedule, averaged over a sweep: the
/// first runs grow the reused buffers, and nothing else allocates.
const PER_SCHEDULE: f64 = 0.1;

const MAX_STEPS: usize = 8_000;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting
// touches only a thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's allocations while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A program shaped like the benchmark's 3-process rung: three threads
/// of one statement over two variables, one of them a transaction that
/// reads one variable and writes the other, against a
/// non-transactional write and read.
fn rung_program() -> Program {
    Program(vec![
        ThreadProg(vec![Stmt::NtWrite(X, 1)]),
        ThreadProg(vec![Stmt::NtRead(Y)]),
        ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 2)])]),
    ])
}

#[test]
fn a_dpor_run_allocates_nothing_in_steady_state() {
    let sc = entry("SC").expect("SC is registered");
    let p = rung_program();
    let (allocs, out) = allocations(|| {
        explore_dpor(
            || machine_for(&p, &GlobalLockTm, sc.exec),
            MAX_STEPS,
            |_| false,
        )
    });
    let per_run = allocs as f64 / out.executed as f64;
    println!(
        "explore_dpor: {allocs} allocations over {} runs, {per_run:.2} per run",
        out.executed
    );
    assert!(out.executed >= 100, "the program has a schedule tree");
    assert_eq!(out.truncated, 0);
    assert!(per_run <= PER_RUN, "{per_run:.2} allocations per DPOR run");
}

#[test]
fn a_random_schedule_allocates_nothing_in_steady_state() {
    // The per-schedule loop of `Sweep::sample`, without the judge: one
    // root machine, and a copy of it run per seed under that seed's
    // scheduler, built by value.
    let sc = entry("SC").expect("SC is registered");
    let p = rung_program();
    const SEEDS: u64 = 2_000;
    let (allocs, completed) = allocations(|| {
        let root = machine_for(&p, &GlobalLockTm, sc.exec);
        let mut machine = root.clone();
        let mut completed = 0;
        for seed in 0..SEEDS {
            let r = machine.run_from(&root, &mut SeedScheduler::new(seed), MAX_STEPS);
            completed += u64::from(r.completed);
        }
        completed
    });
    let per_run = allocs as f64 / SEEDS as f64;
    println!("sampling: {allocs} allocations over {SEEDS} schedules, {per_run:.2} per schedule");
    assert_eq!(completed, SEEDS);
    assert!(
        per_run <= PER_SCHEDULE,
        "{per_run:.2} allocations per schedule"
    );
}
