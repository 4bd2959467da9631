//! Legality of (transactionally) sequential histories (§2).
//!
//! The paper defines: a sequential history `s` is *legal* if `s|x ∈ [[x]]`
//! for every object `x`, and an operation `k` is *legal in `s`* if
//! `visible(s′)` is legal, where `s′` is the prefix of `s` ending with
//! `k`. Both checkers ([`check_opacity`](crate::opacity::check_opacity)
//! and [`check_sgla`](crate::sgla::check_sgla)) need to evaluate
//! per-prefix legality incrementally while backtracking, so this module
//! provides two implementations:
//!
//! * [`op_legal_in`] — the direct, replay-based reference semantics
//!   (quadratic; used in tests and as ground truth), and
//! * [`PrefixChecker`] — an incremental state machine equivalent to the
//!   reference on (transactionally) sequential histories, maintaining per
//!   variable a *committed* state and a *live-transaction overlay*, each
//!   stamped with the history position of its latest update so that a
//!   commit merges writes in position order.
//!
//! [`CsChecker`] is the second incremental state machine, with SGLA's
//! critical-section semantics. The search drives either one through
//! the same three methods (`step`, `suspend_live`, `in_txn` — the
//! `Legality` trait of [`linearize`](crate::linearize)), and only
//! `Graph::place` there decides how a transaction's operations are fed
//! to them.
//!
//! Interpretation note: `visible(s)` keeps a non-committed transaction
//! `T` exactly when no operation instance outside `T` occurs *after the
//! last operation of `T`* in `s`. For sequential histories this coincides
//! with the paper's wording; for the transactionally sequential histories
//! of SGLA (§6.2), where non-transactional operations interleave *inside*
//! a transaction's span, it is the strictly stronger reading under which
//! a running transaction still sees its own writes. This matches the
//! behaviour of an actual global-lock implementation and is the
//! interpretation used throughout this crate.

use crate::history::History;
use crate::ids::Var;
use crate::op::{Command, Op};
use crate::spec::{SpecRegistry, SpecState};

/// Replay-based reference implementation of "operation `k` (at history
/// index `k_idx`) is legal in `s`": computes `visible` of the prefix
/// ending at `k_idx` and checks `s|x ∈ [[x]]` for every `x`.
pub fn op_legal_in(s: &History, k_idx: usize, specs: &SpecRegistry) -> bool {
    let prefix = s.prefix(k_idx);
    let vis = prefix.visible();
    vis.vars()
        .into_iter()
        .all(|x| specs.spec_of(x).check_sequence(vis.project(x).iter()))
}

/// Replay-based check of the paper's condition 3 ("every operation is
/// legal in s") for a complete history.
pub fn every_op_legal(s: &History, specs: &SpecRegistry) -> bool {
    (0..s.len()).all(|i| op_legal_in(s, i, specs))
}

/// One variable's tracked state: the state after the latest relevant
/// command together with the position (index in the sequence being
/// built) of the latest *state-changing* command.
#[derive(Clone, Copy, Debug)]
struct Slot {
    pos: usize,
    state: SpecState,
}

/// Per-variable state as a vector sorted by variable. A history touches
/// a handful of variables, so a lookup is a short binary search, the
/// search's per-node snapshot is one copy, and equal states list equal
/// entries in equal order — which is what lets the search use a state
/// as (part of) an exact memo key.
#[derive(Clone, Debug)]
struct VarMap<T>(Vec<(Var, T)>);

impl<T: Copy> VarMap<T> {
    fn new() -> Self {
        VarMap(Vec::new())
    }

    fn get(&self, var: Var) -> Option<T> {
        let at = self.0.binary_search_by_key(&var, |e| e.0).ok()?;
        Some(self.0[at].1)
    }

    fn insert(&mut self, var: Var, value: T) {
        match self.0.binary_search_by_key(&var, |e| e.0) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => self.0.insert(at, (var, value)),
        }
    }
}

/// Append `var` and `state` to a memo key, injectively.
fn key_entry(out: &mut Vec<u64>, var: Var, state: SpecState) {
    let (tag, val) = match state {
        SpecState::Val(v) => (0, v),
        SpecState::Junk => (1, 0),
    };
    out.extend([u64::from(var.0) << 1 | tag, val]);
}

/// Incremental per-prefix legality checker for sequential and
/// transactionally sequential histories.
///
/// Feed operations in order with [`PrefixChecker::step`]; it returns
/// `false` as soon as an operation would be illegal in the sense of the
/// paper's condition 3. The checker is cheap to [`Clone`], which is how
/// the backtracking searches snapshot it.
#[derive(Clone, Debug)]
pub struct PrefixChecker<'a> {
    specs: &'a SpecRegistry,
    committed: VarMap<Slot>,
    /// Overlay of the currently open transaction (if any).
    overlay: VarMap<Slot>,
    in_txn: bool,
    pos: usize,
}

impl<'a> PrefixChecker<'a> {
    /// New checker with all variables in their initial state.
    pub fn new(specs: &'a SpecRegistry) -> Self {
        PrefixChecker {
            specs,
            committed: VarMap::new(),
            overlay: VarMap::new(),
            in_txn: false,
            pos: 0,
        }
    }

    fn committed_state(&self, var: Var) -> SpecState {
        self.committed
            .get(var)
            .map(|s| s.state)
            .unwrap_or_else(|| self.specs.spec_of(var).init())
    }

    /// The state a *transactional* access observes: the later (by
    /// position) of the overlay and committed slots.
    fn txn_view(&self, var: Var) -> SpecState {
        match (self.overlay.get(var), self.committed.get(var)) {
            (Some(o), Some(c)) => {
                if o.pos >= c.pos {
                    o.state
                } else {
                    c.state
                }
            }
            (Some(o), None) => o.state,
            (None, Some(c)) => c.state,
            (None, None) => self.specs.spec_of(var).init(),
        }
    }

    /// True while a transaction is open (between `start` and
    /// `commit`/`abort`).
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Close a *live* transaction (one with no `commit`/`abort`
    /// operation) after its last operation has been applied: its writes
    /// are discarded — they never become visible to anyone else — and
    /// the checker is ready for subsequent operations.
    pub fn suspend_live(&mut self) {
        self.overlay.0.clear();
        self.in_txn = false;
    }

    /// Append this state to a memo key: two checkers that wrote equal
    /// keys accept exactly the same continuations. Outside a
    /// transaction the position stamps are left out — every later
    /// stamp exceeds every current one, so they can no longer decide
    /// anything and would only tell apart states that behave alike.
    pub(crate) fn key(&self, out: &mut Vec<u64>) {
        out.extend([u64::from(self.in_txn), self.committed.0.len() as u64]);
        for map in [&self.committed, &self.overlay] {
            for &(var, slot) in &map.0 {
                key_entry(out, var, slot.state);
                if self.in_txn {
                    out.push(slot.pos as u64);
                }
            }
        }
    }

    /// Apply the next operation of the sequence being built.
    /// `transactional` says whether this operation belongs to the
    /// currently open transaction (`false` for interleaved
    /// non-transactional operations, which only SGLA permits).
    ///
    /// Returns `false` if the operation is illegal; the checker must not
    /// be used further after a `false`.
    pub fn step(&mut self, op: &Op, transactional: bool) -> bool {
        self.pos += 1;
        let pos = self.pos;
        match op {
            Op::Start => {
                debug_assert!(!self.in_txn, "sequential history: no nested txns");
                self.in_txn = true;
                self.overlay.0.clear();
                true
            }
            Op::Commit => {
                // Merge overlay into committed, position-wise: a
                // non-transactional write that interleaved *after* the
                // transaction's last write to the same variable wins.
                for (var, slot) in self.overlay.0.drain(..) {
                    match self.committed.get(var) {
                        Some(c) if c.pos > slot.pos => {}
                        _ => self.committed.insert(var, slot),
                    }
                }
                self.in_txn = false;
                true
            }
            Op::Abort => {
                self.overlay.0.clear();
                self.in_txn = false;
                true
            }
            Op::Cmd(cmd) => {
                let var = cmd.var();
                let spec = self.specs.spec_of(var);
                if transactional {
                    debug_assert!(self.in_txn);
                    let st = self.txn_view(var);
                    match spec.apply(st, cmd) {
                        Some(next) => {
                            // Reads do not change the state; only record
                            // state-changing commands so that position
                            // stamps reflect writes.
                            if next != st || cmd.is_write() || matches!(cmd, Command::Havoc { .. })
                            {
                                self.overlay.insert(var, Slot { pos, state: next });
                            }
                            true
                        }
                        None => false,
                    }
                } else {
                    // Non-transactional accesses never observe the open
                    // transaction's overlay (its effects are not visible
                    // until commit).
                    let st = self.committed_state(var);
                    match spec.apply(st, cmd) {
                        Some(next) => {
                            if next != st || cmd.is_write() || matches!(cmd, Command::Havoc { .. })
                            {
                                self.committed.insert(var, Slot { pos, state: next });
                            }
                            true
                        }
                        None => false,
                    }
                }
            }
        }
    }
}

/// Incremental legality checker with **critical-section semantics**,
/// used by the SGLA checker (§6.2).
///
/// Under single global lock atomicity a transaction behaves exactly
/// like a critical section with in-place updates: its writes take
/// effect at their positions (interleaved non-transactional reads *do*
/// observe them — this is what makes the Theorem 7 proof go through for
/// the Figure 6 TM), and an abort rolls them back via an undo log, so a
/// non-transactional read may legitimately observe a value that is
/// later undone. For fully sequential histories these semantics
/// coincide with [`PrefixChecker`]'s, which is why parametrized opacity
/// still implies SGLA (Theorem 6).
#[derive(Clone, Debug)]
pub struct CsChecker<'a> {
    specs: &'a SpecRegistry,
    state: VarMap<SpecState>,
    /// Undo log of the open transaction: `(var, state before the
    /// transaction's first write to it)`.
    undo: Vec<(Var, SpecState)>,
    in_txn: bool,
}

impl<'a> CsChecker<'a> {
    /// New checker with all variables in their initial state.
    pub fn new(specs: &'a SpecRegistry) -> Self {
        CsChecker {
            specs,
            state: VarMap::new(),
            undo: Vec::new(),
            in_txn: false,
        }
    }

    fn get(&self, var: Var) -> SpecState {
        self.state
            .get(var)
            .unwrap_or_else(|| self.specs.spec_of(var).init())
    }

    /// True while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Close a live (never-completed) transaction: like a lock holder
    /// that never released, its in-place writes simply remain.
    pub fn suspend_live(&mut self) {
        self.undo.clear();
        self.in_txn = false;
    }

    /// Append this state to a memo key; see [`PrefixChecker::key`].
    pub(crate) fn key(&self, out: &mut Vec<u64>) {
        out.extend([u64::from(self.in_txn), self.state.0.len() as u64]);
        for &(var, state) in self.state.0.iter().chain(&self.undo) {
            key_entry(out, var, state);
        }
    }

    /// Apply the next operation of the transactionally sequential
    /// sequence being built. Returns `false` if it is illegal.
    pub fn step(&mut self, op: &Op, transactional: bool) -> bool {
        match op {
            Op::Start => {
                debug_assert!(!self.in_txn);
                self.in_txn = true;
                self.undo.clear();
                true
            }
            Op::Commit => {
                self.undo.clear();
                self.in_txn = false;
                true
            }
            Op::Abort => {
                // Roll back in reverse order.
                while let Some((var, st)) = self.undo.pop() {
                    self.state.insert(var, st);
                }
                self.in_txn = false;
                true
            }
            Op::Cmd(cmd) => {
                let var = cmd.var();
                let spec = self.specs.spec_of(var);
                let st = self.get(var);
                match spec.apply(st, cmd) {
                    Some(next) => {
                        if next != st || cmd.is_write() || matches!(cmd, Command::Havoc { .. }) {
                            if transactional && self.in_txn {
                                // First transactional mutation of this
                                // var: remember the pre-image.
                                if !self.undo.iter().any(|(v, _)| *v == var) {
                                    self.undo.push((var, st));
                                }
                            }
                            self.state.insert(var, next);
                        }
                        true
                    }
                    None => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X, Y};
    use crate::spec::Spec;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// Run a whole (transactionally sequential) history through the
    /// incremental checker, deriving `transactional` from the history.
    fn run_incremental(h: &History, specs: &SpecRegistry) -> bool {
        let mut c = PrefixChecker::new(specs);
        for (i, oi) in h.ops().iter().enumerate() {
            if !c.step(&oi.op, h.is_transactional(i)) {
                return false;
            }
        }
        true
    }

    #[test]
    fn simple_sequential_legal() {
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.start(p(2));
        b.read(p(2), X, 1);
        b.write(p(2), Y, 2);
        b.commit(p(2));
        b.read(p(1), Y, 2);
        let h = b.build().unwrap();
        let specs = SpecRegistry::registers();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));
    }

    #[test]
    fn txn_sees_own_writes() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.read(p(1), X, 7);
        b.commit(p(1));
        let h = b.build().unwrap();
        let specs = SpecRegistry::registers();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));
    }

    #[test]
    fn aborted_txn_writes_invisible() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.abort(p(1));
        b.read(p(2), X, 0);
        let h = b.build().unwrap();
        let specs = SpecRegistry::registers();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));

        // Reading the aborted value is illegal.
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.abort(p(1));
        b.read(p(2), X, 7);
        let h = b.build().unwrap();
        assert!(!run_incremental(&h, &specs));
        assert!(!every_op_legal(&h, &specs));
    }

    #[test]
    fn aborted_txn_reads_own_writes_before_abort() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.read(p(1), X, 7);
        b.abort(p(1));
        let h = b.build().unwrap();
        let specs = SpecRegistry::registers();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));
    }

    #[test]
    fn nontxn_read_does_not_see_open_txn() {
        // SGLA-style interleaving: the open transaction's write must not
        // be observed by a concurrent non-transactional read.
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 5);
        b.read(p(2), X, 0); // interleaved non-transactional read
        b.commit(p(1));
        b.read(p(2), X, 5); // after commit the value is visible
        let h = b.build().unwrap();
        let specs = SpecRegistry::registers();
        assert!(run_incremental(&h, &specs));
        // Known, documented divergence from the strict replay reading:
        // at the commit's prefix, visible() contains both the
        // transactional write of 5 and the earlier non-transactional read
        // of 0, which is jointly illegal as a projected sequence even
        // though each operation was legal at its own prefix. The
        // operational semantics (above) is normative for SGLA; a strict
        // witness exists by placing the read before the write.
        assert!(!every_op_legal(&h, &specs));

        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 5);
        b.read(p(2), X, 5); // illegal: sees uncommitted write
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(!run_incremental(&h, &specs));
        assert!(!every_op_legal(&h, &specs));
    }

    #[test]
    fn commit_merge_respects_position_order() {
        // txn writes x:=1, then a non-transactional write x:=2
        // interleaves; after commit the later (positional) write wins.
        let specs = SpecRegistry::registers();
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(2), X, 2); // interleaved non-transactional write
        b.commit(p(1));
        b.read(p(2), X, 2);
        let h = b.build().unwrap();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));

        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(2), X, 2);
        b.commit(p(1));
        b.read(p(2), X, 1); // stale: the non-txn write came later
        let h = b.build().unwrap();
        assert!(!run_incremental(&h, &specs));
        assert!(!every_op_legal(&h, &specs));
    }

    #[test]
    fn txn_read_sees_interleaved_nontxn_write() {
        // Under SGLA a transaction is not isolated from
        // non-transactional writes that interleave within it.
        let specs = SpecRegistry::registers();
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(2), X, 9); // interleaved non-transactional write
        b.read(p(1), X, 9); // the transaction observes it
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));
    }

    #[test]
    fn counter_in_txn() {
        let specs = SpecRegistry::with_default(Spec::Counter);
        let mut b = HistoryBuilder::new();
        b.fetch_add(p(1), X, 5, 0);
        b.start(p(2));
        b.fetch_add(p(2), X, 3, 5);
        b.read(p(2), X, 8);
        b.commit(p(2));
        b.read(p(1), X, 8);
        let h = b.build().unwrap();
        assert!(run_incremental(&h, &specs));
        assert!(every_op_legal(&h, &specs));
    }

    #[test]
    fn incremental_matches_reference_on_examples() {
        // A couple of tricky shapes, checked against the replay-based
        // reference implementation (extensively cross-validated by the
        // proptest suite at the crate root).
        let specs = SpecRegistry::registers();
        let shapes: Vec<History> = vec![
            {
                let mut b = HistoryBuilder::new();
                b.write(p(1), X, 1);
                b.start(p(1));
                b.read(p(2), Y, 0);
                b.write(p(1), Y, 1);
                b.commit(p(1));
                b.read(p(2), X, 1);
                b.build().unwrap()
            },
            {
                let mut b = HistoryBuilder::new();
                b.start(p(1));
                b.write(p(1), X, 1);
                b.abort(p(1));
                b.start(p(2));
                b.read(p(2), X, 0);
                b.commit(p(2));
                b.build().unwrap()
            },
        ];
        for h in &shapes {
            assert_eq!(run_incremental(h, &specs), every_op_legal(h, &specs));
        }
    }
}
