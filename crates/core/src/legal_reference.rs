//! The numbered legality checkers against the ones they replaced, kept
//! here verbatim as the reference: per-variable state in a vector
//! sorted by variable, found by binary search.
//!
//! Seeded operation sequences — sequential ones, and transactionally
//! sequential ones whose transactions admit non-transactional accesses
//! inside their span — over four variables (one at the top of the
//! `u32` range), reads, writes, `havoc`s, aborts and live
//! transactions suspended, drive a reference checker and two numbered
//! ones: one numbered by the caller, as the search numbers a history's
//! variables, one by its own public `step`. Every step's result and
//! `in_txn` must agree; the caller-numbered checkers' keys must be
//! equal exactly when the reference keys are; and a clone must go its
//! own way without moving its source.

use crate::ids::{Val, Var};
use crate::op::{Command, Op};

/// A register's abstract state while a command sequence is replayed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// The register holds a definite value.
    Val(Val),
    /// After a `havoc` and before the next write (Junk-SC, §3.2): any
    /// read is legal.
    Junk,
}

/// The initial state (value 0 in the paper).
const INIT: State = State::Val(0);

/// Apply one command to a register in state `st`: the successor state,
/// or `None` if the command is illegal (a read returning a value the
/// register does not hold).
fn apply(st: State, cmd: &Command) -> Option<State> {
    match cmd {
        Command::Read { val, .. } | Command::DepRead { val, .. } => match st {
            State::Val(v) if v == *val => Some(st),
            State::Val(_) => None,
            State::Junk => Some(st),
        },
        Command::Write { val, .. } | Command::DepWrite { val, .. } => Some(State::Val(*val)),
        Command::Havoc { .. } => Some(State::Junk),
    }
}

/// One variable's tracked state: the state after the latest relevant
/// command together with the position (index in the sequence being
/// built) of the latest *state-changing* command.
#[derive(Clone, Copy, Debug)]
struct Slot {
    pos: usize,
    state: State,
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
fn key_entry(out: &mut Vec<u64>, var: Var, state: State) {
    let (tag, val) = match state {
        State::Val(v) => (0, v),
        State::Junk => (1, 0),
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
pub(crate) struct PrefixChecker {
    committed: VarMap<Slot>,
    /// Overlay of the currently open transaction (if any).
    overlay: VarMap<Slot>,
    in_txn: bool,
    pos: usize,
}

impl PrefixChecker {
    /// New checker with all variables in their initial state.
    pub(crate) fn new() -> Self {
        PrefixChecker {
            committed: VarMap::new(),
            overlay: VarMap::new(),
            in_txn: false,
            pos: 0,
        }
    }

    fn committed_state(&self, var: Var) -> State {
        self.committed.get(var).map_or(INIT, |s| s.state)
    }

    /// The state a *transactional* access observes: the later (by
    /// position) of the overlay and committed slots.
    fn txn_view(&self, var: Var) -> State {
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
            (None, None) => INIT,
        }
    }

    /// True while a transaction is open (between `start` and
    /// `commit`/`abort`).
    pub(crate) fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Close a *live* transaction (one with no `commit`/`abort`
    /// operation) after its last operation has been applied: its writes
    /// are discarded — they never become visible to anyone else — and
    /// the checker is ready for subsequent operations.
    pub(crate) fn suspend_live(&mut self) {
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
    pub(crate) fn step(&mut self, op: &Op, transactional: bool) -> bool {
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
                if transactional {
                    debug_assert!(self.in_txn);
                    let st = self.txn_view(var);
                    match apply(st, cmd) {
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
                    match apply(st, cmd) {
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
pub(crate) struct CsChecker {
    state: VarMap<State>,
    /// Undo log of the open transaction: `(var, state before the
    /// transaction's first write to it)`.
    undo: Vec<(Var, State)>,
    in_txn: bool,
}

impl CsChecker {
    /// New checker with all variables in their initial state.
    pub(crate) fn new() -> Self {
        CsChecker {
            state: VarMap::new(),
            undo: Vec::new(),
            in_txn: false,
        }
    }

    fn get(&self, var: Var) -> State {
        self.state.get(var).unwrap_or(INIT)
    }

    /// True while a transaction is open.
    pub(crate) fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Close a live (never-completed) transaction: like a lock holder
    /// that never released, its in-place writes simply remain.
    pub(crate) fn suspend_live(&mut self) {
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
    pub(crate) fn step(&mut self, op: &Op, transactional: bool) -> bool {
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
                let st = self.get(var);
                match apply(st, cmd) {
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

// ---- the differential ----

mod tests {
    use super::{CsChecker as RefCs, PrefixChecker as RefPrefix};
    use crate::ids::Var;
    use crate::legal::{CsChecker, PrefixChecker};
    use crate::op::{Command, Op};
    use std::collections::HashMap;

    /// The variables, in the order the caller numbers them.
    const VARS: [Var; 4] = [Var(7), Var(3), Var(1_000_000), Var(u32::MAX)];

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 33) % n
        }
    }

    /// One step of a sequence: an operation and whether it belongs to
    /// the open transaction, or the suspension of a live transaction
    /// after its last operation.
    #[derive(Clone)]
    enum Step {
        Op(Op, bool),
        Suspend,
    }

    /// A command on `VARS[x]`; a read returns `val`.
    fn command(rng: &mut Rng, x: usize, val: u64) -> Command {
        let var = VARS[x];
        match rng.below(20) {
            10..=16 => Command::Write {
                var,
                val: rng.below(3),
            },
            17 => Command::Havoc { var },
            _ => Command::Read { var, val },
        }
    }

    /// Everything one reference step is compared on, and the numbered
    /// checkers' key beside the reference's.
    struct Tally {
        steps: usize,
        illegal: usize,
        inside: usize,
        keys: Vec<(Vec<u64>, Vec<u64>)>,
    }

    fn key_of<T>(key: impl Fn(&T, &mut Vec<u64>), c: &T) -> Vec<u64> {
        let mut out = Vec::new();
        key(c, &mut out);
        out
    }

    /// Drive both kinds of checker over seeded sequences; `interleave`
    /// lets non-transactional accesses into a transaction's span.
    fn run(interleave: bool) -> Tally {
        let mut t = Tally {
            steps: 0,
            illegal: 0,
            inside: 0,
            keys: Vec::new(),
        };
        for seed in 0..600u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut r = RefPrefix::new();
            let (mut n, mut p) = (PrefixChecker::new(), PrefixChecker::new());
            let mut rc = RefCs::new();
            let (mut nc, mut pc) = (CsChecker::new(), CsChecker::new());
            let (mut prefix_live, mut cs_live) = (true, true);
            let mut in_txn = false;
            for i in 0..80 {
                let x = rng.below(VARS.len() as u64) as usize;
                // Mostly a value the reference accepts, so sequences
                // run long; sometimes any value.
                let val = (0..3)
                    .find(|&v| {
                        let mut probe = r.clone();
                        let cmd = Command::Read {
                            var: VARS[x],
                            val: v,
                        };
                        // Once the reference has refused a step it stops
                        // following the transactions; outside one, both
                        // kinds of read see its committed state.
                        let txl = in_txn && probe.in_txn();
                        probe.step(&Op::Cmd(cmd), txl)
                    })
                    .filter(|_| rng.below(16) != 0)
                    .unwrap_or_else(|| rng.below(3));
                let step = match (in_txn, rng.below(16)) {
                    (false, 0..=3) => Step::Op(Op::Start, true),
                    (false, _) => Step::Op(Op::Cmd(command(&mut rng, x, val)), false),
                    (true, 0 | 1) => Step::Op(Op::Commit, true),
                    (true, 2) => Step::Op(Op::Abort, true),
                    (true, 3) => Step::Suspend,
                    (true, 4..=6) if interleave => {
                        t.inside += 1;
                        Step::Op(Op::Cmd(command(&mut rng, x, val)), false)
                    }
                    (true, _) => Step::Op(Op::Cmd(command(&mut rng, x, val)), true),
                };
                let ctx = format!("interleave {interleave}, seed {seed}, step {i}");
                match &step {
                    Step::Op(op, txl) => {
                        in_txn = match op {
                            Op::Start => true,
                            Op::Commit | Op::Abort => false,
                            Op::Cmd(_) => in_txn,
                        };
                        if prefix_live {
                            let ok = r.step(op, *txl);
                            assert_eq!(n.step_var(x, op, *txl), ok, "{ctx}: prefix");
                            assert_eq!(p.step(op, *txl), ok, "{ctx}: prefix, public step");
                            t.illegal += usize::from(!ok);
                            prefix_live = ok;
                        }
                        if cs_live {
                            let ok = rc.step(op, *txl);
                            assert_eq!(nc.step_var(x, op, *txl), ok, "{ctx}: cs");
                            assert_eq!(pc.step(op, *txl), ok, "{ctx}: cs, public step");
                            cs_live = ok;
                        }
                    }
                    Step::Suspend => {
                        in_txn = false;
                        for c in [&mut n, &mut p] {
                            c.suspend_live();
                        }
                        r.suspend_live();
                        for c in [&mut nc, &mut pc] {
                            c.suspend_live();
                        }
                        rc.suspend_live();
                    }
                }
                if !prefix_live && !cs_live {
                    break;
                }
                t.steps += 1;
                if prefix_live {
                    assert_eq!(n.in_txn(), r.in_txn(), "{ctx}: prefix in_txn");
                    assert_eq!(p.in_txn(), r.in_txn(), "{ctx}: prefix in_txn");
                    t.keys
                        .push((key_of(PrefixChecker::key, &n), key_of(RefPrefix::key, &r)));
                }
                if cs_live {
                    assert_eq!(nc.in_txn(), rc.in_txn(), "{ctx}: cs in_txn");
                    assert_eq!(pc.in_txn(), rc.in_txn(), "{ctx}: cs in_txn");
                    let (new, old) = (key_of(CsChecker::key, &nc), key_of(RefCs::key, &rc));
                    // Tagged apart from the prefix checkers' keys.
                    t.keys.push((
                        [&[u64::MAX][..], &new].concat(),
                        [&[u64::MAX][..], &old].concat(),
                    ));
                }
                // A clone goes its own way; its source does not move.
                if rng.below(8) == 0 {
                    let before = key_of(PrefixChecker::key, &n);
                    let mut twin = n.clone();
                    let mut reused = PrefixChecker::new();
                    reused.clone_from(&n);
                    for c in [&mut twin, &mut reused] {
                        // Transactions do not nest: join an open one.
                        if !c.in_txn() {
                            c.step_var(x, &Op::Start, true);
                        }
                        c.step_var(
                            x,
                            &Op::Cmd(Command::Write {
                                var: VARS[x],
                                val: 9,
                            }),
                            true,
                        );
                        c.step_var(x, &Op::Commit, true);
                    }
                    assert_eq!(
                        key_of(PrefixChecker::key, &n),
                        before,
                        "{ctx}: source moved"
                    );
                    let after = key_of(PrefixChecker::key, &twin);
                    assert_eq!(key_of(PrefixChecker::key, &reused), after, "{ctx}");
                    let mut cs_twin = nc.clone();
                    let cs_before = key_of(CsChecker::key, &nc);
                    cs_twin.step_var(
                        x,
                        &Op::Cmd(Command::Write {
                            var: VARS[x],
                            val: 9,
                        }),
                        false,
                    );
                    assert_eq!(
                        key_of(CsChecker::key, &nc),
                        cs_before,
                        "{ctx}: source moved"
                    );
                }
            }
        }
        t
    }

    /// Keys are equal exactly when the reference's are.
    fn same_classes(keys: &[(Vec<u64>, Vec<u64>)]) -> usize {
        let (mut by_new, mut by_old) = (HashMap::new(), HashMap::new());
        for (new, old) in keys {
            assert_eq!(
                by_new.entry(new).or_insert(old),
                &old,
                "one key, two reference keys"
            );
            assert_eq!(
                by_old.entry(old).or_insert(new),
                &new,
                "one reference key, two keys"
            );
        }
        by_old.len()
    }

    #[test]
    fn numbered_checkers_agree_with_the_sorted_vector_ones() {
        for interleave in [false, true] {
            let t = run(interleave);
            let classes = same_classes(&t.keys);
            assert!(t.steps > 10_000, "{} steps", t.steps);
            assert!(t.illegal > 100, "{} illegal steps", t.illegal);
            assert!(classes > 1_000, "{classes} states");
            assert!(!interleave || t.inside > 500, "{} interleaved", t.inside);
        }
    }
}
