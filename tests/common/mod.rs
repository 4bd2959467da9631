//! The brute-force oracles' shared parts, used by `oracle.rs` and
//! `saturate.rs`: the definition of §3.3 tested directly on one
//! permutation of a history's operations, the units a sequential
//! permutation keeps together, and an enumerator of constrained orders.

use jungle::core::history::{History, OpInstance};
use jungle::core::legal::every_op_legal;
use jungle::core::model::MemoryModel;

/// Must every witness of `th` under `model` order `i` before `j` by the
/// model's view: non-transactional commands of one process, `i < j`?
pub fn view(th: &History, model: &dyn MemoryModel, i: usize, j: usize) -> bool {
    let ops = th.ops();
    i < j
        && !th.is_transactional(i)
        && !th.is_transactional(j)
        && ops[i].op.command().is_some()
        && ops[j].op.command().is_some()
        && ops[i].proc == ops[j].proc
        && model.required(th, i, j)
}

/// Does permutation `perm` of `th`'s operations satisfy all conditions
/// of parametrized opacity (as one shared witness)?
pub fn perm_is_witness(th: &History, perm: &[usize], model: &dyn MemoryModel) -> bool {
    // Respect ≺h (generating relation suffices) and the required view
    // pairs.
    let mut pos_of = vec![0usize; th.len()];
    for (pos, &i) in perm.iter().enumerate() {
        pos_of[i] = pos;
    }
    for i in 0..th.len() {
        for j in 0..th.len() {
            if (th.precedes_rt(i, j) || view(th, model, i, j)) && pos_of[i] > pos_of[j] {
                return false;
            }
        }
    }
    // Build the permuted history; it must be well-formed, sequential,
    // and have every operation legal.
    let ops: Vec<OpInstance> = perm.iter().map(|&i| th.ops()[i].clone()).collect();
    History::new(ops).is_ok_and(|s| s.is_sequential() && every_op_legal(&s))
}

/// `th`'s units: each transaction's operations in order, then each
/// non-transactional operation alone.
pub fn units(th: &History) -> Vec<Vec<usize>> {
    let txns = (0..th.txns().len()).map(|t| th.txn_ops(t).to_vec());
    let singles = (0..th.len()).filter(|&i| !th.is_transactional(i));
    txns.chain(singles.map(|i| vec![i])).collect()
}

/// Calls `leaf` on every permutation of `0..n` that places `j` only
/// after every `i` with `before[i][j]`, and only where `allowed` lets
/// it extend the prefix, until `leaf` returns true; returns whether one
/// did.
pub fn each_order(
    n: usize,
    before: &[Vec<bool>],
    allowed: &dyn Fn(&[usize], usize) -> bool,
    leaf: &mut dyn FnMut(&[usize]) -> bool,
) -> bool {
    fn go(
        seq: &mut Vec<usize>,
        placed: &mut [bool],
        before: &[Vec<bool>],
        allowed: &dyn Fn(&[usize], usize) -> bool,
        leaf: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        let n = placed.len();
        if seq.len() == n {
            return leaf(seq);
        }
        for j in 0..n {
            let ready = !placed[j] && (0..n).all(|i| placed[i] || !before[i][j]);
            if ready && allowed(seq, j) {
                placed[j] = true;
                seq.push(j);
                if go(seq, placed, before, allowed, leaf) {
                    return true;
                }
                seq.pop();
                placed[j] = false;
            }
        }
        false
    }
    go(&mut Vec::new(), &mut vec![false; n], before, allowed, leaf)
}
