//! Memory models `M = (τ, R)` (§3.1) and the concrete instances of §3.2.
//!
//! A memory model is a *transformation function* `τ` mapping each
//! operation to a sequence of operations (identity for all models here
//! except Junk-SC, which prefixes every write with `havoc`), together
//! with a *reordering function* `R` mapping a history to a set of
//! per-process views — partial orders over the non-transactional
//! operations that every witness sequence must respect.
//!
//! For every model in the paper, `R(h)` is **upward closed**: it is
//! defined by a set of *required* pairs, and any view containing them is
//! a member. The checkers therefore only need the minimal view, which
//! [`MemoryModel::required`] describes pointwise: given two
//! non-transactional operations `i` (earlier) and `j` (later) of the
//! *same process*, must every view order `i` before `j`? (No model in
//! the paper constrains cross-process pairs; well-formedness already
//! forbids anti-program-order pairs.) The answer does not depend on
//! which process views the history, so one minimal view serves every
//! process.
//!
//! The concrete models:
//!
//! | model | required `i → j` (same process, different variables) |
//! |-------|------------------------------------------------------|
//! | [`Sc`]      | always |
//! | [`Tso`]     | unless `i` write, `j` read (write→read relaxes) |
//! | [`TsoForwarding`] | as TSO, and read→read relaxes when `i` was store-forwarded |
//! | [`Pso`]     | only if `i` is a read (write→read, write→write relax) |
//! | [`Rmo`]     | only if `j` is control/data-dependent on `i` (`i ∈ K`) |
//! | [`Alpha`]   | only if `j` is a *write* dependent on `i` |
//! | [`Relaxed`] | never (the idealized model of Theorem 3) |
//! | [`JunkSc`]  | as SC, with `τ(wr x v) = havoc(x) · (wr x v)` |
//!
//! Same-variable pairs are required by every model (program order per
//! location). See [`crate::classes`] for the `Mrr`/`Mrw`/`Mwr`/`Mww`
//! classification and the property tests validating the table above.

use crate::classes::ClassSet;
use crate::history::{History, OpInstance};
use crate::ids::OpId;
use crate::op::{Command, Op};
use std::borrow::Cow;

/// A memory model `M = (τ, R)`.
///
/// Implementations provide the transformation function via
/// [`MemoryModel::transform`] (default: identity) and the minimal view of
/// the reordering function via [`MemoryModel::required`].
pub trait MemoryModel: Sync {
    /// Human-readable name (e.g. `"SC"`).
    fn name(&self) -> &'static str;

    /// The transformation function `τ`, lifted to histories: replaces
    /// each operation instance by its expansion. The default is the
    /// identity transformation `τ_I`, which borrows `h` — seven of the
    /// eight bundled models check the history they were handed, not a
    /// copy of it.
    ///
    /// Implementations must preserve well-formedness (the paper's
    /// condition on well-formed transformation functions).
    fn transform<'h>(&self, h: &'h History) -> Cow<'h, History> {
        Cow::Borrowed(h)
    }

    /// Minimal-view membership: must every view in `R(h)` order the
    /// operation at history index `i` before the one at index `j`?
    ///
    /// Callers guarantee: `i < j` in history order, both operations are
    /// non-transactional commands, and both are by the same process.
    /// (Views of the paper's models never constrain other pairs, and
    /// every process gets the same one.)
    fn required(&self, h: &History, i: usize, j: usize) -> bool;

    /// The reorder-restriction classes this model belongs to (§3.2).
    /// Validated against [`MemoryModel::required`] by the property tests
    /// in [`crate::classes`].
    fn classes(&self) -> ClassSet;
}

fn cmd(h: &History, i: usize) -> &Command {
    h.ops()[i]
        .op
        .command()
        .expect("required() is only called on object operations")
}

/// True if `j`'s dependency set contains `i`'s operation id.
fn depends_on(h: &History, i: usize, j: usize) -> bool {
    match cmd(h, j).deps() {
        Some((_, deps)) => {
            let id = h.ops()[i].id;
            deps.contains(&id)
        }
        None => false,
    }
}

/// Sequential consistency `M_SC`: program order is preserved entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sc;

impl MemoryModel for Sc {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn required(&self, _h: &History, _i: usize, _j: usize) -> bool {
        true
    }

    fn classes(&self) -> ClassSet {
        ClassSet {
            rr_i: true,
            rr_c: true,
            rr_d: true,
            rw_i: true,
            rw_c: true,
            rw_d: true,
            wr: true,
            ww: true,
        }
    }
}

/// Total store order `M_tso`: relaxes only write→read to a different
/// variable (FIFO store buffer).
///
/// Following the paper's classification of TSO (`M_tso ∈ M^i_rr ∩ M^i_rw
/// ∩ M_ww`, `M_tso ∉ M_wr`), read→read order is always required; see
/// [`TsoForwarding`] for the variant in which a store-forwarded read may
/// reorder with a later read, as discussed in the paper's prose.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tso;

impl MemoryModel for Tso {
    fn name(&self) -> &'static str {
        "TSO"
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        let (ci, cj) = (cmd(h, i), cmd(h, j));
        if ci.var() == cj.var() {
            return true;
        }
        // Only write→read (different variables) is relaxed.
        !(ci.is_write() && cj.is_read())
    }

    fn classes(&self) -> ClassSet {
        ClassSet {
            rr_i: true,
            rr_c: true,
            rr_d: true,
            rw_i: true,
            rw_c: true,
            rw_d: true,
            wr: false,
            ww: true,
        }
    }
}

/// TSO with store-to-load forwarding made visible: two reads of
/// different variables may reorder if the first read obtained its value
/// from the process's own latest preceding write (it was served from the
/// store buffer), per the paper's discussion of `M_tso`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TsoForwarding;

impl TsoForwarding {
    /// Did the read at index `i` take its value from the same process's
    /// latest preceding write to the same variable in `h`?
    fn forwarded(h: &History, i: usize) -> bool {
        let ci = cmd(h, i);
        if !ci.is_read() {
            return false;
        }
        let var = ci.var();
        let proc = h.ops()[i].proc;
        let last_write = h.ops()[..i]
            .iter()
            .rev()
            .find(|o| {
                o.proc == proc
                    && o.op
                        .command()
                        .map(|c| c.is_write() && c.var() == var)
                        .unwrap_or(false)
            })
            .and_then(|o| o.op.command().and_then(Command::written_val));
        match last_write {
            Some(v) => ci.read_val() == Some(v),
            None => false,
        }
    }
}

impl MemoryModel for TsoForwarding {
    fn name(&self) -> &'static str {
        "TSO+fwd"
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        let (ci, cj) = (cmd(h, i), cmd(h, j));
        if ci.var() == cj.var() {
            return true;
        }
        if ci.is_write() && cj.is_read() {
            return false;
        }
        if ci.is_read() && cj.is_read() && Self::forwarded(h, i) {
            return false;
        }
        true
    }

    fn classes(&self) -> ClassSet {
        // Not read-read restrictive in general (forwarded reads may
        // reorder), hence outside M^i_rr unlike plain `Tso`.
        ClassSet {
            rr_i: false,
            rr_c: false,
            rr_d: false,
            rw_i: true,
            rw_c: true,
            rw_d: true,
            wr: false,
            ww: true,
        }
    }
}

/// Partial store order `M_pso`: relaxes write→read and write→write to
/// different variables (per-variable store buffers).
#[derive(Clone, Copy, Debug, Default)]
pub struct Pso;

impl MemoryModel for Pso {
    fn name(&self) -> &'static str {
        "PSO"
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        let (ci, cj) = (cmd(h, i), cmd(h, j));
        ci.var() == cj.var() || ci.is_read()
    }

    fn classes(&self) -> ClassSet {
        ClassSet {
            rr_i: true,
            rr_c: true,
            rr_d: true,
            rw_i: true,
            rw_c: true,
            rw_d: true,
            wr: false,
            ww: false,
        }
    }
}

/// Relaxed memory order `M_rmo` (SPARC v9): all pairs to different
/// variables may reorder unless the later operation is a
/// control/data-dependent write, or a data-dependent read, depending on
/// the earlier read (`i ∈ K`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rmo;

impl MemoryModel for Rmo {
    fn name(&self) -> &'static str {
        "RMO"
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        let (ci, cj) = (cmd(h, i), cmd(h, j));
        if ci.var() == cj.var() {
            return true;
        }
        if !ci.is_read() {
            return false;
        }
        match cj {
            // Dependent writes (control or data) must stay after the
            // read they depend on.
            Command::DepWrite { .. } => depends_on(h, i, j),
            // Dependent reads: only *data*-dependent reads are ordered.
            Command::DepRead {
                kind: crate::op::DepKind::Data,
                ..
            } => depends_on(h, i, j),
            _ => false,
        }
    }

    fn classes(&self) -> ClassSet {
        ClassSet {
            rr_i: false,
            rr_c: false,
            rr_d: true,
            rw_i: false,
            rw_c: true,
            rw_d: true,
            wr: false,
            ww: false,
        }
    }
}

/// The Alpha memory model: the weakest hardware model in the paper —
/// even data-dependent reads may reorder; only dependent *writes* are
/// ordered after the reads they depend on.
#[derive(Clone, Copy, Debug, Default)]
pub struct Alpha;

impl MemoryModel for Alpha {
    fn name(&self) -> &'static str {
        "Alpha"
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        let (ci, cj) = (cmd(h, i), cmd(h, j));
        if ci.var() == cj.var() {
            return true;
        }
        ci.is_read() && matches!(cj, Command::DepWrite { .. }) && depends_on(h, i, j)
    }

    fn classes(&self) -> ClassSet {
        ClassSet {
            rr_i: false,
            rr_c: false,
            rr_d: false,
            rw_i: false,
            rw_c: true,
            rw_d: true,
            wr: false,
            ww: false,
        }
    }
}

/// The idealized fully relaxed model of Theorem 3: any two operations on
/// different variables may reorder. Outside all four restriction
/// classes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Relaxed;

impl MemoryModel for Relaxed {
    fn name(&self) -> &'static str {
        "Relaxed"
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        cmd(h, i).var() == cmd(h, j).var()
    }

    fn classes(&self) -> ClassSet {
        ClassSet::default()
    }
}

/// Junk-SC (§3.2): sequentially consistent ordering, but writes carry no
/// out-of-thin-air guarantee — `τ(wr, x, v) = havoc(x) · (wr, x, v)`, so
/// a read racing between the `havoc` and the write may return any value.
#[derive(Clone, Copy, Debug, Default)]
pub struct JunkSc;

impl MemoryModel for JunkSc {
    fn name(&self) -> &'static str {
        "Junk-SC"
    }

    fn transform<'h>(&self, h: &'h History) -> Cow<'h, History> {
        let mut next_id: u32 = h.ops().iter().map(|o| o.id.0).max().unwrap_or(0) + 1;
        let mut ops = Vec::with_capacity(h.len() * 2);
        for oi in h.ops() {
            if let Op::Cmd(c) = &oi.op {
                if c.is_write() {
                    ops.push(OpInstance {
                        op: Op::Cmd(Command::Havoc { var: c.var() }),
                        proc: oi.proc,
                        id: OpId(next_id),
                    });
                    next_id += 1;
                }
            }
            ops.push(oi.clone());
        }
        Cow::Owned(History::new(ops).expect("havoc expansion preserves well-formedness"))
    }

    fn required(&self, _h: &History, _i: usize, _j: usize) -> bool {
        true
    }

    fn classes(&self) -> ClassSet {
        ClassSet {
            rr_i: true,
            rr_c: true,
            rr_d: true,
            rw_i: true,
            rw_c: true,
            rw_d: true,
            wr: true,
            ww: true,
        }
    }
}

/// The [`registry`](crate::registry::registry)'s checker-side models,
/// in registry order, for sweeping tests and litmus harnesses.
pub fn all_models() -> Vec<&'static dyn MemoryModel> {
    crate::registry::registry()
        .iter()
        .map(|e| e.model)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X, Y};
    use crate::op::DepKind;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// History with two non-transactional ops by the same process, to
    /// probe `required` on the pair (0, 1).
    fn pair(a: Command, b: Command) -> History {
        let mut bld = HistoryBuilder::new();
        bld.op(p(1), Op::Cmd(a));
        bld.op(p(1), Op::Cmd(b));
        bld.build().unwrap()
    }

    fn rd(var: crate::ids::Var, val: u64) -> Command {
        Command::Read { var, val }
    }

    fn wr(var: crate::ids::Var, val: u64) -> Command {
        Command::Write { var, val }
    }

    #[test]
    fn sc_orders_everything() {
        for (a, b) in [
            (rd(X, 0), rd(Y, 0)),
            (rd(X, 0), wr(Y, 1)),
            (wr(X, 1), rd(Y, 0)),
            (wr(X, 1), wr(Y, 1)),
        ] {
            let h = pair(a, b);
            assert!(Sc.required(&h, 0, 1));
        }
    }

    #[test]
    fn tso_relaxes_only_write_read() {
        let h = pair(wr(X, 1), rd(Y, 0));
        assert!(!Tso.required(&h, 0, 1));
        for (a, b) in [
            (rd(X, 0), rd(Y, 0)),
            (rd(X, 0), wr(Y, 1)),
            (wr(X, 1), wr(Y, 1)),
        ] {
            let h = pair(a, b);
            assert!(Tso.required(&h, 0, 1));
        }
        // Same variable always ordered.
        let h = pair(wr(X, 1), rd(X, 1));
        assert!(Tso.required(&h, 0, 1));
    }

    #[test]
    fn tso_forwarding_relaxes_forwarded_read_read() {
        // write x 1; read x 1 (forwarded); read y 0 — the two reads may
        // reorder under TSO+fwd but not under plain TSO.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.read(p(1), X, 1);
        b.read(p(1), Y, 0);
        let h = b.build().unwrap();
        assert!(!TsoForwarding.required(&h, 1, 2));
        assert!(Tso.required(&h, 1, 2));
        // A non-forwarded read (value mismatch) stays ordered.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.read(p(1), X, 2);
        b.read(p(1), Y, 0);
        let h = b.build().unwrap();
        assert!(TsoForwarding.required(&h, 1, 2));
    }

    #[test]
    fn pso_relaxes_write_write() {
        let h = pair(wr(X, 1), wr(Y, 1));
        assert!(!Pso.required(&h, 0, 1));
        assert!(Tso.required(&h, 0, 1));
        let h = pair(rd(X, 0), wr(Y, 1));
        assert!(Pso.required(&h, 0, 1));
    }

    #[test]
    fn rmo_orders_only_dependencies() {
        let h = pair(rd(X, 0), rd(Y, 0));
        assert!(!Rmo.required(&h, 0, 1));
        let h = pair(rd(X, 0), wr(Y, 1));
        assert!(!Rmo.required(&h, 0, 1));

        // Data-dependent write after read: ordered.
        let mut b = HistoryBuilder::new();
        let r = b.read(p(1), X, 0);
        b.dep_write(p(1), Y, 0, DepKind::Data, vec![r]);
        let h = b.build().unwrap();
        assert!(Rmo.required(&h, 0, 1));

        // Control-dependent write: ordered.
        let mut b = HistoryBuilder::new();
        let r = b.read(p(1), X, 0);
        b.dep_write(p(1), Y, 0, DepKind::Control, vec![r]);
        let h = b.build().unwrap();
        assert!(Rmo.required(&h, 0, 1));

        // Data-dependent read: ordered; control-dependent read: not.
        let mut b = HistoryBuilder::new();
        let r = b.read(p(1), X, 0);
        b.dep_read(p(1), Y, 0, DepKind::Data, vec![r]);
        let h = b.build().unwrap();
        assert!(Rmo.required(&h, 0, 1));
        let mut b = HistoryBuilder::new();
        let r = b.read(p(1), X, 0);
        b.dep_read(p(1), Y, 0, DepKind::Control, vec![r]);
        let h = b.build().unwrap();
        assert!(!Rmo.required(&h, 0, 1));
    }

    #[test]
    fn alpha_orders_only_dependent_writes() {
        // Even data-dependent reads may reorder on Alpha.
        let mut b = HistoryBuilder::new();
        let r = b.read(p(1), X, 0);
        b.dep_read(p(1), Y, 0, DepKind::Data, vec![r]);
        let h = b.build().unwrap();
        assert!(!Alpha.required(&h, 0, 1));

        let mut b = HistoryBuilder::new();
        let r = b.read(p(1), X, 0);
        b.dep_write(p(1), Y, 0, DepKind::Data, vec![r]);
        let h = b.build().unwrap();
        assert!(Alpha.required(&h, 0, 1));
    }

    #[test]
    fn relaxed_orders_same_variable_only() {
        let h = pair(wr(X, 1), rd(X, 1));
        assert!(Relaxed.required(&h, 0, 1));
        let h = pair(wr(X, 1), rd(Y, 0));
        assert!(!Relaxed.required(&h, 0, 1));
    }

    #[test]
    fn junk_sc_transform_inserts_havoc() {
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.read(p(1), X, 1);
        let h = b.build().unwrap();
        let t = JunkSc.transform(&h);
        assert_eq!(t.len(), 3);
        assert!(matches!(t.ops()[0].op, Op::Cmd(Command::Havoc { .. })));
        assert!(matches!(t.ops()[1].op, Op::Cmd(Command::Write { .. })));
        // Identifiers remain unique.
        let ids: std::collections::HashSet<_> = t.ops().iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn junk_sc_transform_preserves_txn_structure() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.commit(p(1));
        let h = b.build().unwrap();
        let t = JunkSc.transform(&h);
        assert_eq!(t.txns().len(), 1);
        assert_eq!(t.txn_ops(0).len(), 4); // start havoc wr commit
    }

    #[test]
    fn identity_transform_by_default() {
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        let h = b.build().unwrap();
        assert_eq!(Sc.transform(&h).len(), h.len());
        assert_eq!(Rmo.transform(&h).len(), h.len());
    }

    #[test]
    fn all_models_enumerates_eight() {
        assert_eq!(all_models().len(), 8);
    }
}
