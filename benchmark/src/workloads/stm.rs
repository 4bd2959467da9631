//! `stm_mixed`: the real STMs alone, one thread — the paper's §6.1
//! question (what non-transactional instrumentation costs as the
//! transactional fraction changes). No checker, simulator or monitor
//! code runs here, so movement from a checker change is a red flag.
//!
//! Units: batches of 10 000 operations, for each of the six STMs at
//! 0, 50 and 100 % transactional operations. Known answer: each
//! batch's `RunStats::checksum` equals that of a sequential
//! interpreter of the same items.

use crate::harness::{timed_unit, Env, Metric, Workload};
use crate::span::{Tracer, NO_UNIT};
use jungle_core::ids::ProcId;
use jungle_litmus::workload::{execute, generate, Access, Item, WorkloadCfg};
use jungle_obs::{Backpressure, EventRing};
use jungle_stm::api::{atomically, Ctx, TmAlgo};
use jungle_stm::{GlobalLockStm, StmTap, StrongStm, Tl2Stm, VersionedStm, WriteTxnStm};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const N_VARS: usize = 256;
const OPS: usize = 1_000_000;
const BATCH_OPS: usize = 10_000;
pub const TXN_PCTS: [u32; 3] = [0, 50, 100];
pub const STM_NAMES: [&str; 6] = [
    "global-lock",
    "write-txn",
    "versioned",
    "strong",
    "strong-optimized",
    "tl2",
];

/// The six STMs over `n_vars` variables, in [`STM_NAMES`] order.
pub fn all_stms(n_vars: usize) -> Vec<Box<dyn TmAlgo>> {
    vec![
        Box::new(GlobalLockStm::new(n_vars)),
        Box::new(WriteTxnStm::new(n_vars)),
        Box::new(VersionedStm::new(n_vars)),
        Box::new(StrongStm::new(n_vars)),
        Box::new(StrongStm::new_optimized(n_vars)),
        Box::new(Tl2Stm::new(n_vars)),
    ]
}

fn item_ops(item: &Item) -> usize {
    match item {
        Item::Txn(ops) => ops.len(),
        Item::Nt(_) => 1,
    }
}

/// The reference: run `items` one after another on plain memory and
/// add up what the reads return.
pub fn interpret(mem: &mut [u64], items: &[Item]) -> u64 {
    let mut sum = 0u64;
    for item in items {
        let accesses = match item {
            Item::Txn(ops) => ops.as_slice(),
            Item::Nt(a) => std::slice::from_ref(a),
        };
        for a in accesses {
            match *a {
                Access::Read(v) => sum = sum.wrapping_add(mem[v]),
                Access::Write(v, val) => mem[v] = val,
            }
        }
    }
    sum
}

/// One transactional fraction: its items, cut into batches, with the
/// checksum each batch must produce.
struct Cell {
    items: Vec<Item>,
    /// `(end index into items, operations, expected checksum)`
    batches: Vec<(usize, usize, u64)>,
}

fn cell(txn_pct: u32, ops: usize, seed: u64) -> Cell {
    let cfg = WorkloadCfg {
        n_vars: N_VARS,
        txn_pct,
        read_pct: 80,
        txn_len: 4,
        ops,
    };
    let items = generate(&cfg, seed);
    let mut mem = vec![0u64; N_VARS];
    let mut batches = Vec::new();
    let (mut start, mut n) = (0, 0);
    for (i, item) in items.iter().enumerate() {
        n += item_ops(item);
        if n >= BATCH_OPS || i + 1 == items.len() {
            batches.push((i + 1, n, interpret(&mut mem, &items[start..=i])));
            start = i + 1;
            n = 0;
        }
    }
    Cell { items, batches }
}

pub struct StmMixed {
    cells: Vec<Cell>,
    sabotage: bool,
}

impl StmMixed {
    pub fn setup(env: &Env) -> StmMixed {
        let ops = env.scale.size(OPS, 2 * BATCH_OPS);
        let cells = TXN_PCTS
            .iter()
            .map(|&pct| cell(pct, ops, env.seed))
            .collect();
        let mut w = StmMixed {
            cells,
            sabotage: false,
        };
        let mut unit_ns = vec![0; w.units()];
        w.pass(&mut Tracer::new(), &mut unit_ns); // warm-up
        w.sabotage = env.sabotage;
        w
    }
}

impl Workload for StmMixed {
    fn units(&self) -> usize {
        STM_NAMES.len() * self.cells.iter().map(|c| c.batches.len()).sum::<usize>()
    }

    fn pass(&mut self, tr: &mut Tracer, unit_ns: &mut [u64]) -> u64 {
        let mut failed = 0;
        let mut unit = 0;
        for c in &self.cells {
            // Fresh STMs: the expected checksums start from zeroed memory.
            for tm in all_stms(N_VARS) {
                let mut cx = Ctx::new(ProcId(0), None);
                let mut start = 0;
                for &(end, _, expected) in &c.batches {
                    // `execute` is litmus's 40-line driver loop over
                    // `TmAlgo`; its time is the STM's.
                    let span = tr.open("stm.workload::execute", unit as u32);
                    failed += timed_unit(&mut unit_ns[unit], || {
                        let st = execute(tm.as_ref(), &mut cx, &c.items[start..end]);
                        st.aborts == 0 && (st.checksum == expected) != (self.sabotage && unit == 0)
                    });
                    tr.close(span);
                    start = end;
                    unit += 1;
                }
            }
        }
        failed
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        let ops: usize = self
            .cells
            .iter()
            .flat_map(|c| &c.batches)
            .map(|b| b.1)
            .sum();
        vec![
            ("cells", (STM_NAMES.len() * self.cells.len()) as u64),
            (
                "batches_per_stm",
                self.cells.iter().map(|c| c.batches.len()).sum::<usize>() as u64,
            ),
            ("ops_per_stm", ops as u64),
            (
                "checksum_fold",
                self.cells
                    .iter()
                    .flat_map(|c| &c.batches)
                    .fold(0u64, |a, b| a.rotate_left(7) ^ b.2),
            ),
        ]
    }
}

fn ns_per(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// `stm.*` and `obs.*`.
pub fn probe(env: &Env, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    const E_VARS: usize = 1024;
    let iters = env.scale.size(2_000_000, 100_000);
    let mut out = Vec::new();

    // E1/E2: non-transactional read and write, striding over 1 024 vars.
    for tm in all_stms(E_VARS) {
        let mut cx = Ctx::new(ProcId(0), None);
        for v in 0..E_VARS {
            tm.nt_write(&mut cx, v, v as u64 % 100);
        }
        let span = tr.open("stm.nt_read", NO_UNIT);
        let rd = ns_per(iters, |i| {
            black_box(tm.nt_read(&mut cx, (i * 7) & (E_VARS - 1)));
        });
        tr.close(span);
        let span = tr.open("stm.nt_write", NO_UNIT);
        let wr = ns_per(iters, |i| {
            tm.nt_write(&mut cx, (i * 7) & (E_VARS - 1), i as u64 % 100)
        });
        tr.close(span);
        out.push(Metric::new(
            format!("stm.{}.nt_read_ns", tm.name()),
            rd,
            "ns",
        ));
        out.push(Metric::new(
            format!("stm.{}.nt_write_ns", tm.name()),
            wr,
            "ns",
        ));
    }

    // The 100 % transactional cell, per operation.
    let ops = env.scale.size(OPS, 2 * BATCH_OPS);
    let c = cell(100, ops, env.seed);
    for tm in all_stms(N_VARS) {
        let mut cx = Ctx::new(ProcId(0), None);
        let span = tr.open("stm.workload::execute", NO_UNIT);
        let t0 = Instant::now();
        black_box(execute(tm.as_ref(), &mut cx, &c.items));
        let ns = t0.elapsed().as_secs_f64() * 1e9 / ops as f64;
        tr.close(span);
        out.push(Metric::new(
            format!("stm.{}.txn_ns_per_op", tm.name()),
            ns,
            "ns",
        ));
    }

    // Two threads on eight variables, half the operations
    // transactional: the contended point. On two shared cores this is
    // contention plus scheduling, and does not repeat within a tenth.
    let contended = WorkloadCfg {
        n_vars: 8,
        txn_pct: 50,
        read_pct: 80,
        txn_len: 4,
        ops: env.scale.size(400_000, 20_000),
    };
    let streams: Vec<Vec<Item>> = (0..2)
        .map(|t| generate(&contended, env.seed ^ (t + 1)))
        .collect();
    for tm in all_stms(contended.n_vars) {
        let span = tr.open("stm.contended2", NO_UNIT);
        let t0 = Instant::now();
        let stats: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(t, items)| {
                    let tm = tm.as_ref();
                    s.spawn(move || execute(tm, &mut Ctx::new(ProcId(t as u32), None), items))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        tr.close(span);
        let (mut commits, mut aborts) = (0u64, 0u64);
        for st in stats {
            let st = st.map_err(|_| format!("{}: contended worker panicked", tm.name()))?;
            commits += st.commits;
            aborts += st.aborts;
        }
        out.push(Metric::new(
            format!("stm.{}.contended2_ns_per_op", tm.name()),
            wall * 1e9 / (2 * contended.ops) as f64,
            "ns",
        ));
        out.push(Metric::new(
            format!("stm.{}.abort_frac", tm.name()),
            aborts as f64 / (commits + aborts).max(1) as f64,
            "frac",
        ));
    }

    // The live tap: one publish, and a tapped transaction against an
    // untapped one (global-lock TM, drop policy, nobody draining).
    let tap = Arc::new(StmTap::new(1 << 12, Backpressure::Drop));
    let span = tr.open("stm.StmTap::publish", NO_UNIT);
    let publish = ns_per(iters, |i| {
        tap.publish(
            ProcId(0),
            jungle_stm::TapOp::Write {
                var: 0,
                val: i as u64,
            },
        );
        if i & 0xFFF == 0xFFF {
            while tap.pop().is_some() {}
        }
    });
    tr.close(span);
    let tm = GlobalLockStm::new(N_VARS);
    let txn = |cx: &mut Ctx, i: usize| {
        atomically(&tm, cx, |tx| {
            let v = tx.read(i & (N_VARS - 1))?;
            tx.write((i + 1) & (N_VARS - 1), v + 1)
        })
    };
    let txns = iters / 4;
    let span = tr.open("stm.atomically", NO_UNIT);
    let mut plain_cx = Ctx::new(ProcId(0), None);
    let plain = ns_per(txns, |i| txn(&mut plain_cx, i));
    let mut tapped_cx = Ctx::new(ProcId(0), None).with_tap(tap.clone());
    let tapped = ns_per(txns, |i| txn(&mut tapped_cx, i));
    tr.close(span);
    out.push(Metric::new("stm.tap_publish_ns", publish, "ns"));
    out.push(Metric::new(
        "stm.tap_overhead_ratio",
        tapped / plain,
        "ratio",
    ));

    // obs: the ring under the tap, alone; then one producer thread
    // against one consumer thread.
    let ring: EventRing<u64> = EventRing::new(1 << 10, Backpressure::Block);
    let span = tr.open("obs.EventRing::push_pop", NO_UNIT);
    let push_pop = ns_per(iters, |i| {
        ring.push(i as u64);
        black_box(ring.pop());
    });
    tr.close(span);
    let n = env.scale.size(2_000_000, 100_000) as u64;
    let ring: EventRing<u64> = EventRing::new(1 << 12, Backpressure::Block);
    let done = AtomicBool::new(false);
    let span = tr.open("obs.EventRing::spsc2", NO_UNIT);
    let t0 = Instant::now();
    let got = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let mut got = 0u64;
            let mut buf = Vec::with_capacity(1024);
            loop {
                let k = ring.drain_into(&mut buf, 1024);
                got += k as u64;
                buf.clear();
                if k == 0 {
                    if done.load(Ordering::Acquire) && ring.is_empty() {
                        return got;
                    }
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..n {
            ring.push(i);
        }
        // Release: pairs with the consumer's Acquire load, so that it
        // sees every push before it sees `done`.
        done.store(true, Ordering::Release);
        consumer.join()
    })
    .map_err(|_| "ring consumer panicked".to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    tr.close(span);
    if got != n {
        return Err(format!("ring delivered {got} of {n} events under Block"));
    }
    out.push(Metric::new("obs.ring_push_pop_ns", push_pop, "ns"));
    out.push(Metric::new(
        "obs.ring_spsc2_events_per_s",
        n as f64 / wall,
        "1/s",
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpreter_matches_every_stm_batch_by_batch() {
        let c = cell(50, 30_000, 9);
        assert!(c.batches.len() >= 3);
        assert_eq!(c.batches.last().unwrap().0, c.items.len());
        for tm in all_stms(N_VARS) {
            let mut cx = Ctx::new(ProcId(0), None);
            let mut start = 0;
            for &(end, n, expected) in &c.batches {
                assert!(n >= BATCH_OPS || end == c.items.len());
                let st = execute(tm.as_ref(), &mut cx, &c.items[start..end]);
                assert_eq!(st.checksum, expected, "{}", tm.name());
                start = end;
            }
        }
    }

    #[test]
    fn smoke_passes_clean_and_sabotage_is_caught() {
        use crate::harness::{run_untraced, Scale};
        for sabotage in [false, true] {
            let mut w = StmMixed::setup(&Env::for_test(4, sabotage));
            let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
            assert_eq!(o.failed, u64::from(sabotage));
        }
    }

    #[test]
    fn stm_names_match_the_implementations() {
        let names: Vec<&str> = all_stms(4).iter().map(|t| t.name()).collect();
        assert_eq!(names, STM_NAMES);
    }
}
