//! Traces and the correspondence between traces and histories (§4).
//!
//! A [`Trace`] is a sequence of instruction instances such that each
//! process's subsequence is a concatenation of *complete operation
//! traces* (`(., o) in₁ … inₘ (/, o)`), possibly ending in one
//! incomplete operation trace. A history **corresponds** to a trace when
//! every operation is assigned a linearization point between its
//! invocation and its response (operations whose intervals do not
//! overlap keep their order; overlapping operations may be ordered
//! either way). [`Trace::corresponding_histories`] enumerates all such
//! histories, and [`Trace::exists_corresponding`] is the early-exit form
//! used by the model checker to decide "∃ corresponding history that is
//! opaque" (the paper's definition of a TM implementation guaranteeing
//! parametrized opacity).

use crate::instr::{Instr, InstrInstance};
use jungle_core::history::{History, OpInstance};
use jungle_core::ids::{OpId, ProcId};
use jungle_core::op::Op;

/// Errors detected when validating a trace.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field names are self-describing
pub enum TraceError {
    /// An instruction appears outside any operation (before its
    /// invocation marker or after its response).
    InstrOutsideOperation { proc: ProcId, op: OpId },
    /// An operation's instructions are interleaved with another
    /// operation of the same process.
    InterleavedOperations { proc: ProcId, op: OpId },
    /// Response without matching invocation, or mismatched operation.
    UnmatchedResponse { proc: ProcId, op: OpId },
    /// A second invocation for an operation id already used by the
    /// same process.
    DuplicateOperation { proc: ProcId, op: OpId },
    /// The resulting history is not well-formed.
    IllFormedHistory(String),
}

/// One operation as it appears in a trace: its identifier, operation,
/// process, and the trace positions of its first and last instruction
/// instances.
#[derive(Clone, Debug)]
pub struct TraceOp {
    /// Operation identifier.
    pub id: OpId,
    /// The operation (from its invocation marker).
    pub op: Op,
    /// Issuing process.
    pub proc: ProcId,
    /// Trace index of the invocation marker.
    pub first: usize,
    /// Trace index of the response marker, or of the last instruction
    /// if the operation trace is incomplete.
    pub last: usize,
    /// Whether the operation trace is complete (has a response).
    pub complete: bool,
}

/// A well-formed trace.
#[derive(Debug, Default)]
pub struct Trace {
    instrs: Vec<InstrInstance>,
    ops: Vec<TraceOp>,
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            instrs: self.instrs.clone(),
            ops: self.ops.clone(),
        }
    }

    /// Copies into the buffers `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        self.instrs.clone_from(&src.instrs);
        self.ops.clone_from(&src.ops);
    }
}

impl Trace {
    /// Validate and construct a trace from instruction instances.
    pub fn new(instrs: Vec<InstrInstance>) -> Result<Self, TraceError> {
        let mut t = Trace {
            instrs,
            ops: Vec::new(),
        };
        t.index()?;
        Ok(t)
    }

    /// Make this the trace of `instrs`, validated as by [`Trace::new`],
    /// without allocating: the instructions are swapped in and the
    /// operation index is rebuilt in place. `instrs` is left empty,
    /// holding the buffer of the instructions this trace had before.
    pub fn rebuild(&mut self, instrs: &mut Vec<InstrInstance>) -> Result<(), TraceError> {
        std::mem::swap(&mut self.instrs, instrs);
        instrs.clear();
        self.index()
    }

    /// Derive `ops` from `instrs`, checking well-formedness.
    fn index(&mut self) -> Result<(), TraceError> {
        let Trace { instrs, ops } = self;
        ops.clear();
        // A process's open operation, if any, is its last one: an
        // invocation while one is open is rejected below.
        let open_of = |ops: &[TraceOp], p: ProcId| {
            ops.iter()
                .rposition(|o| o.proc == p)
                .filter(|&oi| !ops[oi].complete)
        };
        // Identifiers above every one invoked so far cannot repeat one
        // (the machine allocates them ascending); others are looked up.
        let mut max_id: Option<OpId> = None;

        for (i, ii) in instrs.iter().enumerate() {
            match &ii.instr {
                Instr::Inv(op) => {
                    if open_of(ops, ii.proc).is_some() {
                        return Err(TraceError::InterleavedOperations {
                            proc: ii.proc,
                            op: ii.op,
                        });
                    }
                    let fresh = max_id.is_none_or(|m| ii.op > m);
                    if !fresh && ops.iter().any(|o| o.proc == ii.proc && o.id == ii.op) {
                        return Err(TraceError::DuplicateOperation {
                            proc: ii.proc,
                            op: ii.op,
                        });
                    }
                    max_id = max_id.max(Some(ii.op));
                    ops.push(TraceOp {
                        id: ii.op,
                        op: op.clone(),
                        proc: ii.proc,
                        first: i,
                        last: i,
                        complete: false,
                    });
                }
                Instr::Resp(_) => {
                    let Some(oi) = open_of(ops, ii.proc) else {
                        return Err(TraceError::UnmatchedResponse {
                            proc: ii.proc,
                            op: ii.op,
                        });
                    };
                    if ops[oi].id != ii.op {
                        return Err(TraceError::UnmatchedResponse {
                            proc: ii.proc,
                            op: ii.op,
                        });
                    }
                    ops[oi].last = i;
                    ops[oi].complete = true;
                }
                _ => {
                    let Some(oi) = open_of(ops, ii.proc) else {
                        return Err(TraceError::InstrOutsideOperation {
                            proc: ii.proc,
                            op: ii.op,
                        });
                    };
                    if ops[oi].id != ii.op {
                        return Err(TraceError::InterleavedOperations {
                            proc: ii.proc,
                            op: ii.op,
                        });
                    }
                    ops[oi].last = i;
                }
            }
        }
        Ok(())
    }

    /// The raw instruction instances.
    pub fn instrs(&self) -> &[InstrInstance] {
        &self.instrs
    }

    /// The operations appearing in the trace, in invocation order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Whether the invocation of operation `k` is *transactional* in the
    /// trace: it occurs within a trace-level transaction
    /// (`(., start) … (/, commit|abort)` or running to the end of the
    /// process's instructions).
    pub(crate) fn is_transactional(&self, k: OpId) -> bool {
        let Some(op) = self.ops.iter().find(|o| o.id == k) else {
            return false;
        };
        // Scan the process's operations in order, tracking transaction
        // boundaries.
        let mut in_txn = false;
        for o in self.ops.iter().filter(|o| o.proc == op.proc) {
            match &o.op {
                Op::Start => in_txn = true,
                Op::Commit | Op::Abort => {
                    if o.id == k {
                        return true;
                    }
                    in_txn = false;
                    continue;
                }
                _ => {}
            }
            if o.id == k {
                return in_txn;
            }
        }
        false
    }

    /// Enumerate the histories corresponding to this trace, invoking
    /// `f` on each until it returns `true`; returns the first accepted
    /// history, if any.
    ///
    /// An operation `k` must precede `j` in a corresponding history iff
    /// `k`'s last instruction occurs before `j`'s first instruction
    /// (non-overlapping operation intervals keep their real-time order;
    /// overlapping ones may be ordered freely, subject to per-process
    /// program order, which is implied because a process's operation
    /// intervals never overlap).
    pub fn exists_corresponding(&self, mut f: impl FnMut(&History) -> bool) -> Option<History> {
        let n = self.ops.len();
        // Precedence: i -> j iff ops[i].last < ops[j].first.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        self.enum_corresponding(&mut order, &mut used, &mut f)
    }

    fn enum_corresponding(
        &self,
        order: &mut Vec<usize>,
        used: &mut Vec<bool>,
        f: &mut impl FnMut(&History) -> bool,
    ) -> Option<History> {
        let n = self.ops.len();
        if order.len() == n {
            let ops: Vec<OpInstance> = order
                .iter()
                .map(|&i| OpInstance {
                    op: self.ops[i].op.clone(),
                    proc: self.ops[i].proc,
                    id: self.ops[i].id,
                })
                .collect();
            if let Ok(h) = History::new(ops) {
                if f(&h) {
                    return Some(h);
                }
            }
            return None;
        }
        for i in 0..n {
            if used[i] {
                continue;
            }
            // All operations that must precede i are already placed.
            let ok = (0..n).all(|j| j == i || used[j] || self.ops[j].last >= self.ops[i].first);
            if !ok {
                continue;
            }
            used[i] = true;
            order.push(i);
            if let Some(h) = self.enum_corresponding(order, used, f) {
                return Some(h);
            }
            order.pop();
            used[i] = false;
        }
        None
    }

    /// Collect every history corresponding to this trace (for tests and
    /// small traces only — the count is exponential in the overlap).
    pub fn corresponding_histories(&self) -> Vec<History> {
        let mut out = Vec::new();
        self.exists_corresponding(|h| {
            out.push(h.clone());
            false
        });
        out
    }

    /// A stable 64-bit structural fingerprint of the trace, for
    /// deduplicating structurally identical interleavings in
    /// model-checking sweeps.
    ///
    /// The fingerprint covers exactly what the set of corresponding
    /// histories (and hence any "∃ corresponding history satisfying P"
    /// verdict) depends on: the operation sequence (process, identifier,
    /// operation, completeness) and the pairwise interval-precedence
    /// relation *`i` responds before `j` is invoked*. Two traces with
    /// equal fingerprints therefore have — modulo a vanishingly unlikely
    /// 64-bit collision — the same corresponding histories, even if
    /// their instruction-level interleavings differ. Exhaustive
    /// store-buffer scheduling produces such traces in bulk, which is
    /// what makes this key worth computing.
    pub fn cache_key(&self) -> u64 {
        use jungle_core::fingerprint::{fold_op, Fnv1a};
        let mut f = Fnv1a::new();
        let n = self.ops.len();
        f.word(n as u64);
        for o in &self.ops {
            f.word(u64::from(o.proc.0));
            f.word(u64::from(o.id.0));
            f.word(u64::from(o.complete));
            fold_op(&mut f, &o.op);
        }
        // The precedence relation, packed 64 pairs per word.
        let mut bits = 0u64;
        let mut filled = 0u32;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                bits = (bits << 1) | u64::from(self.ops[i].last < self.ops[j].first);
                filled += 1;
                if filled == 64 {
                    f.word(bits);
                    bits = 0;
                    filled = 0;
                }
            }
        }
        if filled > 0 {
            f.word(bits);
        }
        f.finish()
    }

    /// The canonical corresponding history: every operation linearized
    /// at its response (or last instruction). Useful as a cheap
    /// first-candidate before enumerating.
    pub fn canonical_history(&self) -> Result<History, TraceError> {
        let mut idx: Vec<usize> = (0..self.ops.len()).collect();
        idx.sort_by_key(|&i| self.ops[i].last);
        let ops = idx
            .into_iter()
            .map(|i| OpInstance {
                op: self.ops[i].op.clone(),
                proc: self.ops[i].proc,
                id: self.ops[i].id,
            })
            .collect();
        History::new(ops).map_err(|e| TraceError::IllFormedHistory(e.to_string()))
    }
}

/// Static instruction-cost statistics of a trace, grouped by operation
/// kind — the direct, deterministic measurement of a TM
/// implementation's instrumentation (§4: an uninstrumented
/// non-transactional read is exactly one `load`, Theorem 5's write
/// instrumentation is exactly one `store`, Theorem 4's is a lock
/// round-trip of three-plus instructions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Operations observed.
    pub count: usize,
    /// Total memory instructions (loads + stores + CAS) across them.
    pub instrs: usize,
    /// Maximum memory instructions in a single operation.
    pub max_instrs: usize,
}

impl OpCost {
    fn add(&mut self, n: usize) {
        self.count += 1;
        self.instrs += n;
        self.max_instrs = self.max_instrs.max(n);
    }
}

/// Instruction costs per operation class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Non-transactional reads.
    pub nt_read: OpCost,
    /// Non-transactional writes.
    pub nt_write: OpCost,
    /// Transactional reads.
    pub txn_read: OpCost,
    /// Transactional writes.
    pub txn_write: OpCost,
    /// `start` operations.
    pub start: OpCost,
    /// `commit` operations.
    pub commit: OpCost,
    /// `abort` operations.
    pub abort: OpCost,
}

impl Trace {
    /// Compute per-class instruction costs over the completed operations
    /// of this trace.
    pub fn cost_stats(&self) -> CostStats {
        use jungle_core::op::Op;
        let mut st = CostStats::default();
        for top in &self.ops {
            if !top.complete {
                continue;
            }
            let n = self.instrs[top.first..=top.last]
                .iter()
                .filter(|ii| ii.op == top.id && !ii.instr.is_marker())
                .count();
            let txnal = self.is_transactional(top.id);
            match (&top.op, txnal) {
                (Op::Start, _) => st.start.add(n),
                (Op::Commit, _) => st.commit.add(n),
                (Op::Abort, _) => st.abort.add(n),
                (Op::Cmd(c), true) if c.is_read() => st.txn_read.add(n),
                (Op::Cmd(c), true) if c.is_write() => st.txn_write.add(n),
                (Op::Cmd(c), false) if c.is_read() => st.nt_read.add(n),
                (Op::Cmd(c), false) if c.is_write() => st.nt_write.add(n),
                _ => {}
            }
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::Val;
    use jungle_core::op::Command;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// A trace of complete operations run one after another: each is
    /// its invocation, its body and its response, with ids `1, 2, …`.
    fn sequential(ops: Vec<(ProcId, Op, Vec<Instr>)>) -> Trace {
        let mut instrs = Vec::new();
        for (i, (proc, op, body)) in ops.into_iter().enumerate() {
            let id = OpId(i as u32 + 1);
            let ii = |instr| InstrInstance {
                instr,
                proc,
                op: id,
            };
            instrs.push(ii(Instr::Inv(op.clone())));
            instrs.extend(body.into_iter().map(ii));
            instrs.push(ii(Instr::Resp(op)));
        }
        Trace::new(instrs).unwrap()
    }

    fn rd(var: u32, val: Val) -> Op {
        Op::Cmd(Command::Read {
            var: jungle_core::ids::Var(var),
            val,
        })
    }

    fn wr(var: u32, val: Val) -> Op {
        Op::Cmd(Command::Write {
            var: jungle_core::ids::Var(var),
            val,
        })
    }

    /// Figure 4(a): p1 runs a transaction (start acquires a lock with a
    /// CAS on g, reads x, writes x, commit releases g); p2 issues a
    /// non-transactional read of x whose interval overlaps the start.
    fn fig4_trace() -> Trace {
        let g = 100;
        let ax = 0;
        let mut instrs = Vec::new();
        let mut push = |instr: Instr, proc: ProcId, op: u32| {
            instrs.push(InstrInstance {
                instr,
                proc,
                op: OpId(op),
            });
        };
        // Interleaving from the figure.
        push(Instr::Inv(Op::Start), p(1), 1);
        push(
            Instr::Cas {
                addr: g,
                expect: 0,
                new: 1,
                ok: true,
            },
            p(1),
            1,
        );
        push(Instr::Inv(rd(0, 1)), p(2), 2);
        push(Instr::Resp(Op::Start), p(1), 1);
        push(Instr::Load { addr: ax, val: 1 }, p(2), 2);
        push(Instr::Inv(wr(0, 1)), p(1), 3);
        push(Instr::Resp(rd(0, 1)), p(2), 2);
        push(Instr::Store { addr: ax, val: 1 }, p(1), 3);
        push(Instr::Resp(wr(0, 1)), p(1), 3);
        push(Instr::Inv(Op::Commit), p(1), 4);
        push(Instr::Store { addr: g, val: 0 }, p(1), 4);
        push(Instr::Resp(Op::Commit), p(1), 4);
        Trace::new(instrs).unwrap()
    }

    #[test]
    fn fig4_operations_parsed() {
        let r = fig4_trace();
        assert_eq!(r.ops().len(), 4);
        assert!(r.ops().iter().all(|o| o.complete));
    }

    #[test]
    fn fig4_transactional_classification() {
        // "The (single) invocation instance of process p2 is
        // non-transactional, while all invocation instances of process
        // p1 are transactional in r."
        let r = fig4_trace();
        assert!(r.is_transactional(OpId(1)));
        assert!(!r.is_transactional(OpId(2)));
        assert!(r.is_transactional(OpId(3)));
        assert!(r.is_transactional(OpId(4)));
    }

    #[test]
    fn fig4_corresponding_histories_include_h1_and_h2() {
        // h1: start, rd, wr, commit (p2's read after start)
        // h2: rd, start, wr, commit (p2's read before start)
        let r = fig4_trace();
        let hs = r.corresponding_histories();
        let render: Vec<String> = hs
            .iter()
            .map(|h| {
                h.ops()
                    .iter()
                    .map(|o| o.id.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        assert!(
            render.contains(&"1,2,3,4".to_string()),
            "h1 missing from {render:?}"
        );
        assert!(
            render.contains(&"2,1,3,4".to_string()),
            "h2 missing from {render:?}"
        );
        // p2's read interval ends before the commit begins: it can
        // never be ordered after operation 4.
        assert!(!render.contains(&"1,3,4,2".to_string()));
        assert!(render.iter().all(|s| !s.ends_with(",2")));
    }

    #[test]
    fn canonical_history_linearizes_at_response() {
        let r = fig4_trace();
        let h = r.canonical_history().unwrap();
        // Response order: start(1), rd(2), wr(3), commit(4).
        let ids: Vec<u32> = h.ops().iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn incomplete_operation_allowed_at_end() {
        let instrs = vec![
            InstrInstance {
                instr: Instr::Inv(rd(0, 0)),
                proc: p(1),
                op: OpId(1),
            },
            InstrInstance {
                instr: Instr::Load { addr: 0, val: 0 },
                proc: p(1),
                op: OpId(1),
            },
        ];
        let r = Trace::new(instrs).unwrap();
        assert_eq!(r.ops().len(), 1);
        assert!(!r.ops()[0].complete);
    }

    #[test]
    fn interleaved_ops_of_same_process_rejected() {
        let instrs = vec![
            InstrInstance {
                instr: Instr::Inv(rd(0, 0)),
                proc: p(1),
                op: OpId(1),
            },
            InstrInstance {
                instr: Instr::Inv(rd(1, 0)),
                proc: p(1),
                op: OpId(2),
            },
        ];
        assert!(matches!(
            Trace::new(instrs),
            Err(TraceError::InterleavedOperations { .. })
        ));
    }

    #[test]
    fn instr_outside_operation_rejected() {
        let instrs = vec![InstrInstance {
            instr: Instr::Load { addr: 0, val: 0 },
            proc: p(1),
            op: OpId(1),
        }];
        assert!(matches!(
            Trace::new(instrs),
            Err(TraceError::InstrOutsideOperation { .. })
        ));
    }

    #[test]
    fn duplicate_op_id_rejected() {
        let instrs = vec![
            InstrInstance {
                instr: Instr::Inv(rd(0, 0)),
                proc: p(1),
                op: OpId(1),
            },
            InstrInstance {
                instr: Instr::Resp(rd(0, 0)),
                proc: p(1),
                op: OpId(1),
            },
            InstrInstance {
                instr: Instr::Inv(rd(1, 0)),
                proc: p(1),
                op: OpId(1),
            },
        ];
        assert!(matches!(
            Trace::new(instrs),
            Err(TraceError::DuplicateOperation { .. })
        ));
    }

    #[test]
    fn builder_produces_sequential_trace() {
        let r = sequential(vec![
            (
                p(1),
                Op::Start,
                vec![Instr::Cas {
                    addr: 9,
                    expect: 0,
                    new: 1,
                    ok: true,
                }],
            ),
            (p(1), wr(0, 5), vec![Instr::Store { addr: 0, val: 5 }]),
            (p(1), Op::Commit, vec![Instr::Store { addr: 9, val: 0 }]),
        ]);
        assert_eq!(r.ops().len(), 3);
        assert_eq!(r.corresponding_histories().len(), 1);
    }

    #[test]
    fn cost_stats_classify_and_count() {
        let r = fig4_trace();
        let st = r.cost_stats();
        // p2's non-transactional read: one load.
        assert_eq!(st.nt_read.count, 1);
        assert_eq!(st.nt_read.instrs, 1);
        assert_eq!(st.nt_read.max_instrs, 1);
        // p1's transactional write: one store in this trace.
        assert_eq!(st.txn_write.count, 1);
        assert_eq!(st.txn_write.instrs, 1);
        // start = one CAS; commit = one store.
        assert_eq!(st.start.instrs, 1);
        assert_eq!(st.commit.instrs, 1);
        assert_eq!(st.abort.count, 0);
    }

    #[test]
    fn cache_key_ignores_instr_interleaving_but_not_overlap() {
        // Two interleavings of the same operations with the same
        // overlap structure fingerprint identically even though the
        // instruction streams differ.
        let mk = |swap: bool| {
            let mut instrs = Vec::new();
            let mut push = |instr: Instr, proc: ProcId, op: u32| {
                instrs.push(InstrInstance {
                    instr,
                    proc,
                    op: OpId(op),
                });
            };
            push(Instr::Inv(rd(0, 0)), p(1), 1);
            push(Instr::Inv(rd(1, 0)), p(2), 2);
            if swap {
                push(Instr::Load { addr: 1, val: 0 }, p(2), 2);
                push(Instr::Load { addr: 0, val: 0 }, p(1), 1);
            } else {
                push(Instr::Load { addr: 0, val: 0 }, p(1), 1);
                push(Instr::Load { addr: 1, val: 0 }, p(2), 2);
            }
            push(Instr::Resp(rd(0, 0)), p(1), 1);
            push(Instr::Resp(rd(1, 0)), p(2), 2);
            Trace::new(instrs).unwrap()
        };
        assert_eq!(mk(false).cache_key(), mk(true).cache_key());

        // Making the operations non-overlapping changes the precedence
        // relation — and the fingerprint.
        let seq = sequential(vec![
            (p(1), rd(0, 0), vec![Instr::Load { addr: 0, val: 0 }]),
            (p(2), rd(1, 0), vec![Instr::Load { addr: 1, val: 0 }]),
        ]);
        assert_ne!(mk(false).cache_key(), seq.cache_key());
    }

    #[test]
    fn exists_corresponding_early_exit() {
        let r = fig4_trace();
        let mut count = 0;
        let found = r.exists_corresponding(|_| {
            count += 1;
            true // accept the first
        });
        assert!(found.is_some());
        assert_eq!(count, 1);
    }
}
