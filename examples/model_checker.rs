//! Model-checker tour: reproduce a Theorem 1 impossibility on the
//! simulated multiprocessor and inspect the violating trace.
//!
//! Run with: `cargo run --release --example model_checker`

use jungle::core::model::Sc;
use jungle::core::opacity::check_opacity;
use jungle::core::pretty::render_columns;
use jungle::mc::theorems::{thm1_case1, thm3_litmus};
use jungle::mc::verify::{Schedules, SweepSeeds};

fn main() {
    println!("Theorem 1, case 1: no uninstrumented TM guarantees opacity");
    println!("parametrized by a read-read restrictive model (here: SC).");
    println!("Searching schedules of the Figure 6 TM on the simulator…\n");

    let e = thm1_case1(&Sc);
    let trace = e
        .sweep(Schedules::Random(SweepSeeds::new(0, 4_000)), 8_000)
        .run()
        .violation
        .expect("Theorem 1 guarantees a violating schedule exists")
        .trace;

    println!("violating trace ({} instructions):", trace.instrs().len());
    for ii in trace.instrs() {
        println!("  {ii}");
    }

    println!("\nIts corresponding histories (every linearization of the");
    println!("overlapping operations) — none is opaque under SC:");
    for (i, h) in trace.corresponding_histories().iter().enumerate() {
        let verdict = check_opacity(h, &Sc);
        println!("history #{i}: opaque = {}", verdict.is_opaque());
        assert!(!verdict.is_opaque());
        if i == 0 {
            println!("{}", render_columns(h));
            let diag = jungle::core::explain::explain_opacity(h, &Sc);
            println!("diagnosis:\n{}", diag.render(h));
        }
    }

    println!("The same TM is correct for the fully relaxed model (Theorem 3):");
    let r = thm3_litmus().run(SweepSeeds::new(0, 0), 4_000);
    println!("  exhaustive sweep: {}", r.detail);
    assert!(r.passed);

    println!("\nThe reads of x and y landed between the commit's two CAS");
    println!("updates: x already new, y still old. A model that keeps");
    println!("read→read order cannot place both reads on one side of the");
    println!("transaction — the checker proves it by exhausting every");
    println!("witness. Under RMO/Alpha/Relaxed the reads may reorder and");
    println!("the trace is fine: parametrized opacity in action.");
}
