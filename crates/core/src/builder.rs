//! Ergonomic construction of histories.
//!
//! [`HistoryBuilder`] appends operation instances in history order and
//! assigns operation identifiers `1, 2, 3, …` automatically (matching the
//! numbering used in the paper's figures). Every append method returns
//! the assigned [`OpId`] so that dependent commands can refer back to
//! earlier operations.

use crate::history::{History, HistoryError, OpInstance};
use crate::ids::{OpId, ProcId, Val, Var};
use crate::op::{Command, DepKind, Op};

/// Incremental builder for [`History`] values.
///
/// ```
/// use jungle_core::prelude::*;
///
/// let mut b = HistoryBuilder::new();
/// let p = ProcId(0);
/// b.start(p);
/// b.write(p, Var(0), 42);
/// b.commit(p);
/// let h = b.build().unwrap();
/// assert_eq!(h.len(), 3);
/// assert_eq!(h.txns().len(), 1);
/// ```
#[derive(Default, Debug)]
pub struct HistoryBuilder {
    ops: Vec<OpInstance>,
    next_id: u32,
}

impl HistoryBuilder {
    /// New empty builder; the first operation gets identifier 1.
    pub fn new() -> Self {
        HistoryBuilder {
            ops: Vec::new(),
            next_id: 1,
        }
    }

    /// [`new`](Self::new), with room for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        HistoryBuilder {
            ops: Vec::with_capacity(ops),
            next_id: 1,
        }
    }

    #[inline]
    fn push(&mut self, proc: ProcId, op: Op) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        self.ops.push(OpInstance { op, proc, id });
        id
    }

    /// Append an arbitrary operation. Inlined across crates: the
    /// monitor builds every window history through it, and the copy of
    /// `op` then folds into the append.
    #[inline]
    pub fn op(&mut self, proc: ProcId, op: Op) -> OpId {
        self.push(proc, op)
    }

    /// Append a `start` operation for `proc`.
    pub fn start(&mut self, proc: ProcId) -> OpId {
        self.push(proc, Op::Start)
    }

    /// Append a `commit` operation for `proc`.
    pub fn commit(&mut self, proc: ProcId) -> OpId {
        self.push(proc, Op::Commit)
    }

    /// Append an `abort` operation for `proc`.
    pub fn abort(&mut self, proc: ProcId) -> OpId {
        self.push(proc, Op::Abort)
    }

    /// Append a read `(rd, var, val)`.
    pub fn read(&mut self, proc: ProcId, var: Var, val: Val) -> OpId {
        self.push(proc, Op::Cmd(Command::Read { var, val }))
    }

    /// Append a write `(wr, var, val)`.
    pub fn write(&mut self, proc: ProcId, var: Var, val: Val) -> OpId {
        self.push(proc, Op::Cmd(Command::Write { var, val }))
    }

    /// Append a control/data-dependent read.
    pub fn dep_read(
        &mut self,
        proc: ProcId,
        var: Var,
        val: Val,
        kind: DepKind,
        deps: Vec<OpId>,
    ) -> OpId {
        self.push(
            proc,
            Op::Cmd(Command::DepRead {
                var,
                val,
                kind,
                deps,
            }),
        )
    }

    /// Append a control/data-dependent write.
    pub fn dep_write(
        &mut self,
        proc: ProcId,
        var: Var,
        val: Val,
        kind: DepKind,
        deps: Vec<OpId>,
    ) -> OpId {
        self.push(
            proc,
            Op::Cmd(Command::DepWrite {
                var,
                val,
                kind,
                deps,
            }),
        )
    }

    /// Append a `havoc` pseudo-operation (a test fixture: only the
    /// memory models' transformations emit one outside tests).
    #[cfg(test)]
    pub(crate) fn havoc(&mut self, proc: ProcId, var: Var) -> OpId {
        self.push(proc, Op::Cmd(Command::Havoc { var }))
    }

    /// Validate well-formedness and produce the history. The
    /// identifiers are unique by construction, so only the transaction
    /// structure and the dependency sets are checked.
    pub fn build(self) -> Result<History, HistoryError> {
        History::numbered(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TxnStatus;
    use crate::ids::{X, Y};

    #[test]
    fn ids_are_sequential_from_one() {
        let mut b = HistoryBuilder::new();
        let a = b.read(ProcId(0), X, 0);
        let c = b.write(ProcId(1), Y, 1);
        assert_eq!(a, OpId(1));
        assert_eq!(c, OpId(2));
        let h = b.build().unwrap();
        assert_eq!(h.ops()[0].id, OpId(1));
    }

    #[test]
    fn dependent_ops_reference_earlier_ids() {
        let mut b = HistoryBuilder::new();
        let p = ProcId(0);
        let r = b.read(p, X, 5);
        b.dep_write(p, Y, 5, DepKind::Data, vec![r]);
        let h = b.build().unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn live_txn_allowed() {
        let mut b = HistoryBuilder::new();
        let p = ProcId(0);
        b.start(p);
        b.write(p, X, 1);
        let h = b.build().unwrap();
        assert_eq!(h.txns().len(), 1);
        assert_eq!(h.txns()[0].status, TxnStatus::Live);
    }

    #[test]
    fn empty_builder_builds_empty_history() {
        let h = HistoryBuilder::new().build().unwrap();
        assert!(h.is_empty());
    }
}
