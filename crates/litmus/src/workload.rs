//! Parameterized workload generators for the benchmark harness.
//!
//! The `jungle-bench` experiments sweep these knobs: the fraction of
//! operations that are transactional, the read percentage, transaction
//! size, and the number of variables (contention). Workloads are
//! generated deterministically from a seed so every STM sees the same
//! operation stream.

use jungle_core::ids::Val;
use jungle_stm::api::{Ctx, TmAlgo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Number of shared variables.
    pub n_vars: usize,
    /// Percent (0–100) of *operations* executed inside transactions.
    pub txn_pct: u32,
    /// Percent (0–100) of accesses that are reads.
    pub read_pct: u32,
    /// Operations per transaction.
    pub txn_len: usize,
    /// Total operation count per thread.
    pub ops: usize,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            n_vars: 64,
            txn_pct: 50,
            read_pct: 90,
            txn_len: 4,
            ops: 10_000,
        }
    }
}

/// One pre-generated access.
#[derive(Clone, Copy, Debug)]
pub enum Access {
    /// Read of a variable.
    Read(usize),
    /// Write of a value to a variable.
    Write(usize, Val),
}

/// One pre-generated workload item.
#[derive(Clone, Debug)]
pub enum Item {
    /// A transaction of several accesses.
    Txn(Vec<Access>),
    /// A single non-transactional access.
    Nt(Access),
}

/// Generate a deterministic operation stream.
pub fn generate(cfg: &WorkloadCfg, seed: u64) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::new();
    let mut remaining = cfg.ops;
    let mut fresh: Val = 1;
    while remaining > 0 {
        let access = |rng: &mut StdRng, fresh: &mut Val| {
            let var = rng.gen_range(0..cfg.n_vars);
            if rng.gen_range(0..100) < cfg.read_pct {
                Access::Read(var)
            } else {
                *fresh += 1;
                Access::Write(var, *fresh % 1_000_000)
            }
        };
        if rng.gen_range(0..100) < cfg.txn_pct {
            let k = cfg.txn_len.min(remaining);
            let ops = (0..k).map(|_| access(&mut rng, &mut fresh)).collect();
            items.push(Item::Txn(ops));
            remaining -= k;
        } else {
            items.push(Item::Nt(access(&mut rng, &mut fresh)));
            remaining -= 1;
        }
    }
    items
}

/// Execution statistics of one workload run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts (retried).
    pub aborts: u64,
    /// Non-transactional operations executed.
    pub nt_ops: u64,
    /// Checksum of read values (prevents dead-code elimination in
    /// benches).
    pub checksum: u64,
}

/// Execute a pre-generated workload on an STM with the given thread
/// context.
pub fn execute(tm: &dyn TmAlgo, cx: &mut Ctx, items: &[Item]) -> RunStats {
    let mut stats = RunStats::default();
    for item in items {
        match item {
            Item::Nt(Access::Read(v)) => {
                stats.checksum = stats.checksum.wrapping_add(tm.nt_read(cx, *v));
                stats.nt_ops += 1;
            }
            Item::Nt(Access::Write(v, val)) => {
                tm.nt_write(cx, *v, *val);
                stats.nt_ops += 1;
            }
            Item::Txn(ops) => loop {
                tm.txn_start(cx);
                let mut aborted = false;
                let mut sum = 0u64;
                for op in ops {
                    let res = match op {
                        Access::Read(v) => match tm.txn_read(cx, *v) {
                            Ok(val) => {
                                sum = sum.wrapping_add(val);
                                Ok(())
                            }
                            Err(e) => Err(e),
                        },
                        Access::Write(v, val) => tm.txn_write(cx, *v, *val),
                    };
                    if res.is_err() {
                        aborted = true;
                        break;
                    }
                }
                if !aborted && tm.txn_commit(cx).is_ok() {
                    stats.commits += 1;
                    stats.checksum = stats.checksum.wrapping_add(sum);
                    break;
                }
                if aborted {
                    tm.txn_abort(cx);
                }
                stats.aborts += 1;
            },
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::ProcId;
    use jungle_stm::{all_stms, StrongStm};

    #[test]
    fn generation_deterministic_and_sized() {
        let cfg = WorkloadCfg {
            ops: 100,
            ..WorkloadCfg::default()
        };
        let a = generate(&cfg, 1);
        let b = generate(&cfg, 1);
        assert_eq!(a.len(), b.len());
        let total: usize = a
            .iter()
            .map(|i| match i {
                Item::Txn(ops) => ops.len(),
                Item::Nt(_) => 1,
            })
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn pure_nontxn_workload() {
        let cfg = WorkloadCfg {
            txn_pct: 0,
            ops: 50,
            ..WorkloadCfg::default()
        };
        let items = generate(&cfg, 2);
        assert!(items.iter().all(|i| matches!(i, Item::Nt(_))));
    }

    #[test]
    fn executes_on_every_stm() {
        let cfg = WorkloadCfg {
            n_vars: 8,
            ops: 500,
            ..WorkloadCfg::default()
        };
        let items = generate(&cfg, 3);
        for tm in &all_stms(cfg.n_vars) {
            let mut cx = Ctx::new(ProcId(0), None);
            let stats = execute(tm.as_ref(), &mut cx, &items);
            assert!(stats.commits > 0, "{} committed nothing", tm.name());
            assert!(stats.nt_ops > 0);
            assert_eq!(stats.aborts, 0, "{} aborted single-threaded", tm.name());
        }
    }

    #[test]
    fn concurrent_execution_completes() {
        use std::sync::Arc;
        let cfg = WorkloadCfg {
            n_vars: 4,
            ops: 2_000,
            read_pct: 60,
            ..WorkloadCfg::default()
        };
        let tm = Arc::new(StrongStm::new(cfg.n_vars));
        let mut joins = Vec::new();
        for t in 0..3u32 {
            let tm = tm.clone();
            let items = generate(&cfg, u64::from(t));
            joins.push(std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(t), None);
                execute(tm.as_ref(), &mut cx, &items)
            }));
        }
        for j in joins {
            let stats = j.join().unwrap();
            assert!(stats.commits > 0);
        }
    }
}
