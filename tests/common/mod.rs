//! The brute-force opacity oracle shared by `oracle.rs` and
//! `saturate.rs`: the definition of §3.3 tested directly on one
//! permutation of a history's operations.

use jungle::core::history::{History, OpInstance};
use jungle::core::legal::every_op_legal;
use jungle::core::model::MemoryModel;

/// Does permutation `perm` of `th`'s operations satisfy all conditions
/// of parametrized opacity (as one shared witness)?
pub fn perm_is_witness(th: &History, perm: &[usize], model: &dyn MemoryModel) -> bool {
    // Respect ≺h (generating relation suffices) and the required view
    // pairs.
    let pos_of = {
        let mut v = vec![0usize; th.len()];
        for (pos, &i) in perm.iter().enumerate() {
            v[i] = pos;
        }
        v
    };
    for i in 0..th.len() {
        for j in 0..th.len() {
            if i == j {
                continue;
            }
            if th.precedes_rt(i, j) && pos_of[i] > pos_of[j] {
                return false;
            }
            let ops = th.ops();
            if i < j
                && !th.is_transactional(i)
                && !th.is_transactional(j)
                && ops[i].op.command().is_some()
                && ops[j].op.command().is_some()
                && ops[i].proc == ops[j].proc
                && model.required(th, i, j)
                && pos_of[i] > pos_of[j]
            {
                return false;
            }
        }
    }
    // Build the permuted history; it must be well-formed, sequential,
    // and have every operation legal.
    let ops: Vec<OpInstance> = perm.iter().map(|&i| th.ops()[i].clone()).collect();
    let Ok(s) = History::new(ops) else {
        return false;
    };
    if !s.is_sequential() {
        return false;
    }
    every_op_legal(&s)
}
