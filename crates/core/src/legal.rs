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
//! * `op_legal_in` — the direct, replay-based reference semantics
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
//! to them; the [`triage`](crate::triage) replay feeds a
//! [`PrefixChecker`] the same way, from its own operation stream.
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
use crate::ids::{IdMap, Val, Var};
use crate::op::{Command, Op};

/// The value every register holds before its first write (the paper's
/// initial value 0).
pub(crate) const INITIAL: Val = 0;

/// One register's contents while a sequence is replayed: every object
/// of the paper is a read/write register, so its sequential
/// specification `[[x]]` is [`Reg::apply`] replayed from [`Reg::INIT`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reg {
    /// The register holds a definite value.
    Val(Val),
    /// The register's value is unconstrained: a `havoc` was applied and
    /// no write has overwritten it yet (Junk-SC, §3.2). Any read is
    /// legal in this state.
    Junk,
}

impl Reg {
    /// The register before any command.
    const INIT: Reg = Reg::Val(INITIAL);

    /// The state after `cmd`, or `None` if `cmd` is illegal here (a
    /// read returning a value the register does not hold).
    fn apply(self, cmd: &Command) -> Option<Reg> {
        match cmd {
            Command::Read { val, .. } | Command::DepRead { val, .. } => match self {
                Reg::Val(v) if v != *val => None,
                _ => Some(self),
            },
            Command::Write { val, .. } | Command::DepWrite { val, .. } => Some(Reg::Val(*val)),
            Command::Havoc { .. } => Some(Reg::Junk),
        }
    }
}

/// Replay-based reference implementation of "operation `k` (at history
/// index `k_idx`) is legal in `s`": computes `visible` of the prefix
/// ending at `k_idx` and checks `s|x ∈ [[x]]` for every `x`.
fn op_legal_in(s: &History, k_idx: usize) -> bool {
    let prefix = s.prefix(k_idx);
    let vis = prefix.visible();
    vis.vars().into_iter().all(|x| {
        let cmds = vis.project(x);
        cmds.iter()
            .try_fold(Reg::INIT, |r, cmd| r.apply(cmd))
            .is_some()
    })
}

/// Replay-based check of the paper's condition 3 ("every operation is
/// legal in s") for a complete history.
pub fn every_op_legal(s: &History) -> bool {
    (0..s.len()).all(|i| op_legal_in(s, i))
}

/// One variable's tracked state: the state after the latest relevant
/// command together with the position (index in the sequence being
/// built) of the latest *state-changing* command.
#[derive(Clone, Copy, Debug)]
struct Slot {
    pos: usize,
    state: Reg,
}

/// Append variable number `x` and `state` to a memo key, injectively.
fn key_entry(out: &mut Vec<u64>, x: usize, state: Reg) {
    let (tag, val) = match state {
        Reg::Val(v) => (0, v),
        Reg::Junk => (1, 0),
    };
    out.extend([(x as u64) << 1 | tag, val]);
}

/// The number of `var` among the variables `names` has seen, numbering
/// it next if it is new.
fn number(names: &mut IdMap<Var, u32>, var: Var) -> usize {
    let next = names.len() as u32;
    *names.entry(var).or_insert(next) as usize
}

/// The set entries of a table indexed by variable number.
fn set<T: Copy>(table: &[Option<T>]) -> impl Iterator<Item = (usize, T)> + '_ {
    let entries = table.iter().enumerate();
    entries.filter_map(|(x, e)| Some((x, (*e)?)))
}

/// Grow `table` to hold index `x`.
fn cell<T: Default + Clone>(table: &mut Vec<T>, x: usize) -> &mut T {
    if x >= table.len() {
        table.resize(x + 1, T::default());
    }
    &mut table[x]
}

/// Incremental per-prefix legality checker for sequential and
/// transactionally sequential histories.
///
/// Feed operations in order with [`PrefixChecker::step`]; it returns
/// `false` as soon as an operation would be illegal in the sense of the
/// paper's condition 3. The checker is cheap to [`Clone`], which is how
/// the backtracking searches snapshot it.
///
/// Its table is indexed by variable *number*: the search numbers a
/// history's variables once, densely (`Graph` in
/// [`linearize`](crate::linearize)), and hands each access its number,
/// so an access is one index, not a search. [`step`](Self::step)
/// numbers the variables it meets itself.
#[derive(Debug, Default)]
pub struct PrefixChecker {
    /// By variable number: the committed state, once a command changed
    /// it.
    committed: Vec<Option<Slot>>,
    /// By variable number, the open transaction's changes: empty but
    /// for the entries `written` lists.
    overlay: Vec<Option<Slot>>,
    /// The numbers whose `overlay` is set.
    written: Vec<usize>,
    /// The numbers [`step`](Self::step) gave the variables it met.
    names: IdMap<Var, u32>,
    in_txn: bool,
    pos: usize,
}

impl Clone for PrefixChecker {
    fn clone(&self) -> Self {
        let mut c = PrefixChecker::new();
        c.clone_from(self);
        c
    }

    /// Into `self`'s buffers: the search snapshots a checker per node.
    /// Of the overlay only the written entries are copied — the rest is
    /// empty in both.
    fn clone_from(&mut self, src: &Self) {
        self.committed.clone_from(&src.committed);
        self.clear_overlay();
        for &x in &src.written {
            *cell(&mut self.overlay, x) = src.overlay[x];
        }
        self.written.clone_from(&src.written);
        self.names.clone_from(&src.names);
        self.in_txn = src.in_txn;
        self.pos = src.pos;
    }
}

impl PrefixChecker {
    /// New checker with all variables in their initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while a transaction is open (between `start` and
    /// `commit`/`abort`).
    #[inline]
    pub(crate) fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Back to the initial state, keeping the tables' buffers: the
    /// triage tier replays every window through one checker.
    pub(crate) fn clear(&mut self) {
        self.committed.clear();
        self.clear_overlay();
        self.names.clear();
        self.in_txn = false;
        self.pos = 0;
    }

    /// Drop the open transaction's writes.
    fn clear_overlay(&mut self) {
        for x in self.written.drain(..) {
            self.overlay[x] = None;
        }
    }

    /// Close a *live* transaction (one with no `commit`/`abort`
    /// operation) after its last operation has been applied: its writes
    /// are discarded — they never become visible to anyone else — and
    /// the checker is ready for subsequent operations.
    #[inline]
    pub(crate) fn suspend_live(&mut self) {
        self.clear_overlay();
        self.in_txn = false;
    }

    /// Append this state to a memo key: two checkers whose variables
    /// are numbered alike and that wrote equal keys accept exactly the
    /// same continuations. Outside a transaction the position stamps
    /// are left out — every later stamp exceeds every current one, so
    /// they can no longer decide anything and would only tell apart
    /// states that behave alike.
    pub(crate) fn key(&self, out: &mut Vec<u64>) {
        let count = set(&self.committed).count() as u64;
        out.extend([u64::from(self.in_txn), count]);
        for (x, slot) in set(&self.committed).chain(set(&self.overlay)) {
            key_entry(out, x, slot.state);
            if self.in_txn {
                out.push(slot.pos as u64);
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
        let x = op.command().map_or(0, |c| number(&mut self.names, c.var()));
        self.step_var(x, op, transactional)
    }

    /// [`step`](Self::step), `x` being the number of the variable `op`
    /// accesses (ignored for `start`, `commit` and `abort`). Always
    /// inlined: the triage replay builds `op` on the spot, and inlined
    /// the building and this match fold into one.
    #[inline(always)]
    pub(crate) fn step_var(&mut self, x: usize, op: &Op, transactional: bool) -> bool {
        self.pos += 1;
        let pos = self.pos;
        match op {
            Op::Start => {
                debug_assert!(!self.in_txn, "sequential history: no nested txns");
                self.in_txn = true;
                self.clear_overlay();
                true
            }
            Op::Commit => {
                // Merge overlay into committed, position-wise: a
                // non-transactional write that interleaved *after* the
                // transaction's last write to the same variable wins.
                for x in self.written.drain(..) {
                    let o = self.overlay[x].take();
                    let done = cell(&mut self.committed, x);
                    match (*done, o) {
                        (Some(d), Some(o)) if d.pos > o.pos => {}
                        (_, o) => *done = o,
                    }
                }
                self.in_txn = false;
                true
            }
            Op::Abort => {
                self.clear_overlay();
                self.in_txn = false;
                true
            }
            Op::Cmd(cmd) => {
                let slot = |table: &[Option<Slot>]| table.get(x).copied().flatten();
                // A transactional access observes the later (by
                // position) of the overlay and committed slots; a
                // non-transactional one never observes the open
                // transaction's overlay (its effects are not visible
                // until commit).
                let seen = match (transactional, slot(&self.overlay), slot(&self.committed)) {
                    (true, Some(o), Some(done)) if o.pos < done.pos => Some(done),
                    (true, Some(o), _) => Some(o),
                    (_, _, done) => done,
                };
                debug_assert!(!transactional || self.in_txn);
                let st = seen.map_or(Reg::INIT, |s| s.state);
                let Some(next) = st.apply(cmd) else {
                    return false;
                };
                // Reads do not change the state; only record
                // state-changing commands so that position stamps
                // reflect writes.
                if !cmd.is_read() {
                    let slot = Slot { pos, state: next };
                    if !transactional {
                        *cell(&mut self.committed, x) = Some(slot);
                    } else if cell(&mut self.overlay, x).replace(slot).is_none() {
                        self.written.push(x);
                    }
                }
                true
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
/// still implies SGLA (Theorem 6). Its table is indexed by variable
/// number, like [`PrefixChecker`]'s.
#[derive(Debug, Default)]
pub struct CsChecker {
    /// The state of each variable a command changed, by number.
    state: Vec<Option<Reg>>,
    /// Undo log of the open transaction: `(number, state before the
    /// transaction's first write to it)`.
    undo: Vec<(usize, Reg)>,
    /// The numbers [`step`](Self::step) gave the variables it met.
    names: IdMap<Var, u32>,
    in_txn: bool,
}

impl Clone for CsChecker {
    fn clone(&self) -> Self {
        CsChecker {
            state: self.state.clone(),
            undo: self.undo.clone(),
            names: self.names.clone(),
            in_txn: self.in_txn,
        }
    }

    /// Into `self`'s buffers, as [`PrefixChecker`]'s.
    fn clone_from(&mut self, src: &Self) {
        self.state.clone_from(&src.state);
        self.undo.clone_from(&src.undo);
        self.names.clone_from(&src.names);
        self.in_txn = src.in_txn;
    }
}

impl CsChecker {
    /// New checker with all variables in their initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while a transaction is open.
    #[inline]
    pub(crate) fn in_txn(&self) -> bool {
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
        out.extend([u64::from(self.in_txn), set(&self.state).count() as u64]);
        for (x, state) in set(&self.state).chain(self.undo.iter().copied()) {
            key_entry(out, x, state);
        }
    }

    /// Apply the next operation of the transactionally sequential
    /// sequence being built. Returns `false` if it is illegal.
    pub fn step(&mut self, op: &Op, transactional: bool) -> bool {
        let x = op.command().map_or(0, |c| number(&mut self.names, c.var()));
        self.step_var(x, op, transactional)
    }

    /// [`step`](Self::step), `x` being the number of the variable `op`
    /// accesses (ignored for `start`, `commit` and `abort`).
    pub(crate) fn step_var(&mut self, x: usize, op: &Op, transactional: bool) -> bool {
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
                while let Some((x, st)) = self.undo.pop() {
                    self.state[x] = Some(st);
                }
                self.in_txn = false;
                true
            }
            Op::Cmd(cmd) => {
                let st = self.state.get(x).copied().flatten().unwrap_or(Reg::INIT);
                match st.apply(cmd) {
                    Some(next) => {
                        if !cmd.is_read() {
                            if transactional && self.in_txn {
                                // First transactional mutation of this
                                // var: remember the pre-image.
                                if !self.undo.iter().any(|&(y, _)| y == x) {
                                    self.undo.push((x, st));
                                }
                            }
                            *cell(&mut self.state, x) = Some(next);
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

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// Run a whole (transactionally sequential) history through the
    /// incremental checker, deriving `transactional` from the history.
    fn run_incremental(h: &History) -> bool {
        let mut c = PrefixChecker::new();
        for (i, oi) in h.ops().iter().enumerate() {
            if !c.step(&oi.op, h.is_transactional(i)) {
                return false;
            }
        }
        true
    }

    /// Replay `cmds` on one register from its initial state.
    fn replays(cmds: &[Command]) -> bool {
        cmds.iter().try_fold(Reg::INIT, |r, c| r.apply(c)).is_some()
    }

    fn rd(val: Val) -> Command {
        Command::Read { var: X, val }
    }

    fn wr(val: Val) -> Command {
        Command::Write { var: X, val }
    }

    #[test]
    fn register_reads_last_written() {
        assert!(replays(&[rd(0), wr(5), rd(5), rd(5), wr(2), rd(2)]));
        assert!(!replays(&[wr(5), rd(4)]));
        assert!(!replays(&[rd(1)])); // initial value is 0
    }

    #[test]
    fn havoc_makes_any_read_legal() {
        assert!(replays(&[Command::Havoc { var: X }, rd(123), rd(9)]));
        // A write after havoc re-constrains the value.
        assert!(!replays(&[Command::Havoc { var: X }, wr(1), rd(2)]));
    }

    #[test]
    fn dependent_commands_behave_like_plain() {
        use crate::ids::OpId;
        use crate::op::DepKind;
        let dw = Command::DepWrite {
            var: X,
            val: 3,
            kind: DepKind::Data,
            deps: vec![OpId(1)],
        };
        let dr = Command::DepRead {
            var: X,
            val: 3,
            kind: DepKind::Control,
            deps: vec![OpId(1)],
        };
        assert!(replays(&[dw, dr.clone()]));
        assert!(!replays(&[dr]));
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
        assert!(run_incremental(&h));
        assert!(every_op_legal(&h));
    }

    #[test]
    fn txn_sees_own_writes() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.read(p(1), X, 7);
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(run_incremental(&h));
        assert!(every_op_legal(&h));
    }

    #[test]
    fn aborted_txn_writes_invisible() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.abort(p(1));
        b.read(p(2), X, 0);
        let h = b.build().unwrap();
        assert!(run_incremental(&h));
        assert!(every_op_legal(&h));

        // Reading the aborted value is illegal.
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.abort(p(1));
        b.read(p(2), X, 7);
        let h = b.build().unwrap();
        assert!(!run_incremental(&h));
        assert!(!every_op_legal(&h));
    }

    #[test]
    fn aborted_txn_reads_own_writes_before_abort() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 7);
        b.read(p(1), X, 7);
        b.abort(p(1));
        let h = b.build().unwrap();
        assert!(run_incremental(&h));
        assert!(every_op_legal(&h));
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
        assert!(run_incremental(&h));
        // Known, documented divergence from the strict replay reading:
        // at the commit's prefix, visible() contains both the
        // transactional write of 5 and the earlier non-transactional read
        // of 0, which is jointly illegal as a projected sequence even
        // though each operation was legal at its own prefix. The
        // operational semantics (above) is normative for SGLA; a strict
        // witness exists by placing the read before the write.
        assert!(!every_op_legal(&h));

        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 5);
        b.read(p(2), X, 5); // illegal: sees uncommitted write
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(!run_incremental(&h));
        assert!(!every_op_legal(&h));
    }

    #[test]
    fn commit_merge_respects_position_order() {
        // txn writes x:=1, then a non-transactional write x:=2
        // interleaves; after commit the later (positional) write wins.
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(2), X, 2); // interleaved non-transactional write
        b.commit(p(1));
        b.read(p(2), X, 2);
        let h = b.build().unwrap();
        assert!(run_incremental(&h));
        assert!(every_op_legal(&h));

        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(2), X, 2);
        b.commit(p(1));
        b.read(p(2), X, 1); // stale: the non-txn write came later
        let h = b.build().unwrap();
        assert!(!run_incremental(&h));
        assert!(!every_op_legal(&h));
    }

    #[test]
    fn txn_read_sees_interleaved_nontxn_write() {
        // Under SGLA a transaction is not isolated from
        // non-transactional writes that interleave within it.
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(2), X, 9); // interleaved non-transactional write
        b.read(p(1), X, 9); // the transaction observes it
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(run_incremental(&h));
        assert!(every_op_legal(&h));
    }

    #[test]
    fn incremental_matches_reference_on_examples() {
        // A couple of tricky shapes, checked against the replay-based
        // reference implementation (extensively cross-validated by the
        // proptest suite at the crate root).
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
            assert_eq!(run_incremental(h), every_op_legal(h));
        }
    }
}
