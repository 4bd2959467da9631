//! The figures' scenarios as thread programs, shared between the
//! `jungle-mc` simulator and the real-STM [`runner`](crate::runner).

use jungle_core::ids::{X, Y};
use jungle_mc::program::{Program, Stmt, ThreadProg, TxOp};

/// Figure 1 as a program: one transaction writing `x` then `y`, one
/// thread reading `y` then `x` non-transactionally.
pub fn fig1_program() -> Program {
    Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 1)])]),
        ThreadProg(vec![Stmt::NtRead(Y), Stmt::NtRead(X)]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_have_expected_shape() {
        assert_eq!(fig1_program().n_threads(), 2);
    }
}
