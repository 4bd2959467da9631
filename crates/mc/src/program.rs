//! The transactional-program DSL the TM driver runs.
//!
//! A [`Program`] is one [`ThreadProg`] per process; each thread is a
//! sequence of statements: transactions (a list of reads/writes followed
//! by commit or abort) and non-transactional accesses. Values are fixed
//! in the program; read results are whatever the execution produces (the
//! recorded trace carries them).

use jungle_core::ids::{Val, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation inside a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxOp {
    /// Transactional read of a variable.
    Read(Var),
    /// Transactional write of a value to a variable.
    Write(Var, Val),
}

/// One statement of a thread program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// A transaction: `start`, the listed operations, then `commit`
    /// (or `abort` when `abort` is true).
    Txn {
        /// The transactional operations, in order.
        ops: Vec<TxOp>,
        /// Whether the transaction aborts instead of committing.
        abort: bool,
    },
    /// A guarded transaction: `start`; transactionally read `guard`;
    /// if it equals `expect`, perform `ops`; commit either way. The
    /// conditional update at the heart of the privatization idiom.
    TxnGuard {
        /// The variable guarding the update.
        guard: Var,
        /// The value that enables the body.
        expect: Val,
        /// Operations performed when the guard matches.
        ops: Vec<TxOp>,
    },
    /// A non-transactional read.
    NtRead(Var),
    /// A non-transactional write.
    NtWrite(Var, Val),
}

impl Stmt {
    /// A committing transaction.
    pub fn txn(ops: Vec<TxOp>) -> Self {
        Stmt::Txn { ops, abort: false }
    }

    /// An aborting transaction.
    pub fn aborting_txn(ops: Vec<TxOp>) -> Self {
        Stmt::Txn { ops, abort: true }
    }
}

/// The statements one process executes, in order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ThreadProg(pub Vec<Stmt>);

/// A whole multiprocess program (index = process id = CPU id).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program(pub Vec<ThreadProg>);

impl Program {
    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.0.len()
    }
}

/// Configuration for random program generation (used by the positive
/// theorem sweeps and fuzz tests).
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Number of threads.
    pub threads: usize,
    /// Number of distinct variables.
    pub vars: u32,
    /// Maximum statements per thread.
    pub max_stmts: usize,
    /// Maximum operations per transaction.
    pub max_txn_ops: usize,
    /// Probability (0–100) that a statement is a transaction.
    pub txn_pct: u32,
    /// Probability (0–100) that a transaction aborts.
    pub abort_pct: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            threads: 2,
            vars: 2,
            max_stmts: 2,
            max_txn_ops: 2,
            txn_pct: 50,
            abort_pct: 15,
        }
    }
}

/// Generate a random program. Written values are distinct per
/// (thread, position) so that histories are unambiguous.
pub fn generate(cfg: &GenConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = 1u64;
    let mut threads = Vec::with_capacity(cfg.threads);
    for _ in 0..cfg.threads {
        let n = rng.gen_range(1..=cfg.max_stmts);
        let mut stmts = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.gen_range(0..100) < cfg.txn_pct {
                let k = rng.gen_range(1..=cfg.max_txn_ops);
                let ops = (0..k)
                    .map(|_| {
                        let v = Var(rng.gen_range(0..cfg.vars));
                        if rng.gen_bool(0.5) {
                            TxOp::Read(v)
                        } else {
                            fresh += 1;
                            TxOp::Write(v, fresh)
                        }
                    })
                    .collect();
                let abort = rng.gen_range(0..100) < cfg.abort_pct;
                stmts.push(Stmt::Txn { ops, abort });
            } else {
                let v = Var(rng.gen_range(0..cfg.vars));
                if rng.gen_bool(0.5) {
                    stmts.push(Stmt::NtRead(v));
                } else {
                    fresh += 1;
                    stmts.push(Stmt::NtWrite(v, fresh));
                }
            }
        }
        threads.push(ThreadProg(stmts));
    }
    Program(threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::{X, Y};

    #[test]
    fn program_metadata() {
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Read(Y)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtWrite(Y, 2)]),
        ]);
        assert_eq!(p.n_threads(), 2);
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let cfg = GenConfig::default();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a, b);
        assert_eq!(a.n_threads(), 2);
        for t in &a.0 {
            assert!(t.0.len() <= cfg.max_stmts && !t.0.is_empty());
            for s in &t.0 {
                if let Stmt::Txn { ops, .. } = s {
                    assert!(ops.len() <= cfg.max_txn_ops && !ops.is_empty());
                }
            }
        }
    }

    #[test]
    fn distinct_seeds_vary() {
        let cfg = GenConfig {
            max_stmts: 3,
            ..GenConfig::default()
        };
        let differs = (0..20).any(|s| generate(&cfg, s) != generate(&cfg, s + 100));
        assert!(differs);
    }

    #[test]
    fn written_values_are_distinct() {
        let cfg = GenConfig {
            max_stmts: 4,
            max_txn_ops: 3,
            ..GenConfig::default()
        };
        let p = generate(&cfg, 3);
        let mut vals = Vec::new();
        for t in &p.0 {
            for s in &t.0 {
                match s {
                    Stmt::Txn { ops, .. } => {
                        for o in ops {
                            if let TxOp::Write(_, v) = o {
                                vals.push(*v);
                            }
                        }
                    }
                    Stmt::NtWrite(_, v) => vals.push(*v),
                    _ => {}
                }
            }
        }
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), vals.len());
    }
}
