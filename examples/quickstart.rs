//! Quickstart: the strong-atomicity STM over word variables —
//! concurrent bank transfers with a non-transactional auditor.
//!
//! Run with: `cargo run --release --example quickstart`

use jungle::core::ids::ProcId;
use jungle::stm::{atomically, Ctx, StrongStm, TmAlgo};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ACCOUNTS: usize = 8;
const INITIAL: u64 = 1_000;
const TRANSFERS_PER_THREAD: usize = 20_000;

fn main() {
    // Variable `a` is account `a`'s balance, on the §6.1
    // strong-atomicity STM (opacity parametrized by SC: even
    // non-transactional reads are safe against running transactions).
    // Each thread has its own context.
    let tm = Arc::new(StrongStm::new(ACCOUNTS));

    // Fund the accounts.
    let mut cx = Ctx::new(ProcId(0), None);
    for a in 0..ACCOUNTS {
        tm.nt_write(&mut cx, a, INITIAL);
    }

    let total = (ACCOUNTS as u64) * INITIAL;
    let stop = Arc::new(AtomicBool::new(false));

    // Worker threads move money around transactionally.
    let mut joins = Vec::new();
    for t in 0..3u32 {
        let tm = tm.clone();
        joins.push(std::thread::spawn(move || {
            let mut cx = Ctx::new(ProcId(t), None);
            let mut moved = 0u64;
            for i in 0..TRANSFERS_PER_THREAD {
                let from = (i * 7 + t as usize) % ACCOUNTS;
                let to = (i * 13 + 3) % ACCOUNTS;
                if from == to {
                    continue;
                }
                let amt = (i as u64 % 50) + 1;
                moved += atomically(tm.as_ref(), &mut cx, |tx| {
                    let a = tx.read(from)?;
                    if a < amt {
                        return Ok(0);
                    }
                    let b = tx.read(to)?;
                    tx.write(from, a - amt)?;
                    tx.write(to, b + amt)?;
                    Ok(amt)
                });
            }
            moved
        }));
    }

    // The auditor reads balances *non-transactionally*. With the strong
    // STM this is safe: it can never observe a transfer halfway.
    let auditor = {
        let tm = tm.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut cx = Ctx::new(ProcId(9), None);
            let mut audits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Snapshot via a transaction for exactness...
                let sum: u64 = atomically(tm.as_ref(), &mut cx, |tx| {
                    let mut s = 0;
                    for a in 0..ACCOUNTS {
                        s += tx.read(a)?;
                    }
                    Ok(s)
                });
                assert_eq!(sum, total, "transactional audit saw a torn total");
                // ...and individual probes non-transactionally.
                let _probe: u64 = (0..ACCOUNTS).map(|a| tm.nt_read(&mut cx, a)).sum();
                audits += 1;
            }
            audits
        })
    };

    let moved: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    let audits = auditor.join().unwrap();

    let final_total: u64 = (0..ACCOUNTS).map(|a| tm.nt_read(&mut cx, a)).sum();
    println!("moved {moved} units across {ACCOUNTS} accounts in 3 threads");
    println!("auditor ran {audits} consistent audits concurrently");
    println!("final total = {final_total} (expected {total})");
    assert_eq!(final_total, total);
    println!("OK: money was conserved under concurrent transactions");
}
