//! Privatization: the motivating scenario from the paper's
//! introduction — "a programmer may wish to make shared data local to a
//! thread, operate non-transactionally upon it for a while, and make it
//! shared again".
//!
//! Part 1 runs the idiom for real on the strong-atomicity STM and the
//! Figure 6 global-lock STM and asserts it is safe. Part 2 builds the
//! classic *delayed write-back* history that a weakly atomic TM (TL2
//! without privatization fences) can produce, and shows that the
//! parametrized-opacity checker rejects it under **every** memory
//! model — the violation is a property of the interaction, not of any
//! particular ordering relaxation.
//!
//! Run with: `cargo run --release --example privatization`

use jungle::core::prelude::*;
use jungle::stm::{atomically, Ctx, GlobalLockStm, StrongStm, TmAlgo};
use std::sync::Arc;

const ROUNDS: usize = 2_000;

/// The privatization idiom, for real: a worker transactionally updates
/// `DATA` only while `SHARED` is set; the privatizer clears the flag in
/// a transaction and then mutates `DATA` with *plain* non-transactional
/// writes. Returns the number of rounds where private data was
/// clobbered.
fn run_idiom<A: TmAlgo + Send + Sync + 'static>(mk: impl Fn() -> A) -> usize {
    const SHARED: usize = 0;
    const DATA: usize = 1;
    let mut clobbered = 0;
    for _ in 0..ROUNDS {
        let tm = Arc::new(mk());
        let mut cx = Ctx::new(ProcId(2), None);
        tm.nt_write(&mut cx, SHARED, 1);
        let worker = {
            let tm = tm.clone();
            std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(1), None);
                for _ in 0..50 {
                    atomically(tm.as_ref(), &mut cx, |tx| {
                        if tx.read(SHARED)? == 1 {
                            tx.write(DATA, 7)?;
                        }
                        Ok(())
                    });
                }
            })
        };
        // Privatize, then operate non-transactionally on the datum.
        atomically(tm.as_ref(), &mut cx, |tx| tx.write(SHARED, 0));
        tm.nt_write(&mut cx, DATA, 100);
        let observed = tm.nt_read(&mut cx, DATA);
        worker.join().unwrap();
        let after_join = tm.nt_read(&mut cx, DATA);
        if observed != 100 || after_join != 100 {
            clobbered += 1;
        }
    }
    clobbered
}

/// The delayed write-back anomaly as a history: the worker's
/// transaction read `shared = true` and committed `data := 7`, but its
/// write-back landed *after* the privatizer's transaction and plain
/// write. Recorded as a history, the worker's commit is real-time
/// ordered before the privatizer's read of 100... which then reads 100
/// while a later read sees the zombie 7.
fn delayed_writeback_history() -> History {
    let mut b = HistoryBuilder::new();
    let (worker, privatizer) = (ProcId(1), ProcId(2));
    let (shared, data) = (Var(0), Var(1));
    // Worker: atomic { if shared { data := 7 } } — commits while the
    // flag is still set.
    b.start(worker);
    b.read(worker, shared, 1);
    b.write(worker, data, 7);
    b.commit(worker);
    // Privatizer: atomic { shared := 0 }, after the worker's commit.
    b.start(privatizer);
    b.write(privatizer, shared, 0);
    b.commit(privatizer);
    // Privatizer's plain write of its now-private datum…
    b.write(privatizer, data, 100);
    // …but the worker's buffered write-back lands afterwards: the
    // privatizer observes the zombie value.
    b.read(privatizer, data, 7);
    b.build().unwrap()
}

fn main() {
    println!("Part 1 — running the privatization idiom on real STMs");
    println!("        ({ROUNDS} rounds each, 1 worker + 1 privatizer)\n");
    let strong = run_idiom(|| StrongStm::new(2));
    println!(
        "  strong (§6.1):        {strong} clobbered rounds {}",
        tag(strong)
    );
    let gl = run_idiom(|| GlobalLockStm::new(2));
    println!("  global-lock (Fig. 6): {gl} clobbered rounds {}", tag(gl));
    assert_eq!(strong + gl, 0, "privatization must be safe on these STMs");

    println!("\nPart 2 — the delayed write-back anomaly, formally");
    let h = delayed_writeback_history();
    println!("\n{}", jungle::core::pretty::render_columns(&h));
    for m in jungle::core::model::all_models() {
        let v = check_opacity(&h, m);
        println!(
            "  opacity parametrized by {:<8}: {}",
            m.name(),
            if v.is_opaque() {
                "satisfied (!?)"
            } else {
                "VIOLATED"
            }
        );
        if m.name() != "Junk-SC" {
            assert!(!v.is_opaque());
        }
    }
    println!();
    println!("The worker's transaction committed data:=7 but its effect");
    println!("shows up *after* the privatizer's later transaction and its");
    println!("plain write of 100 — no serialization of the transactions");
    println!("explains the final read of 7, under any memory model except");
    println!("Junk-SC (whose havoc semantics excuse any value). A weakly");
    println!("atomic TM with lazy write-back can produce exactly this");
    println!("history; every parametrized-opaque TM in this workspace is");
    println!("structurally unable to.");
}

fn tag(n: usize) -> &'static str {
    if n == 0 {
        "(safe)"
    } else {
        "(UNSAFE)"
    }
}
