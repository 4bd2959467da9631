//! Classification of memory models by the reorderings they forbid
//! (§3.2, *Classes of memory models*).
//!
//! The paper defines four classes over memory models with identity
//! transformation:
//!
//! * `Mrr = M^i_rr ∪ M^c_rr ∪ M^d_rr` — *read-read restrictive*: every
//!   view must order a read before a later (independent / control-
//!   dependent / data-dependent) read of a different variable by the
//!   same process.
//! * `Mrw = M^i_rw ∪ M^c_rw ∪ M^d_rw` — *read-write restrictive*.
//! * `Mwr` — *write-read restrictive*.
//! * `Mww` — *write-write restrictive*.
//!
//! [`ClassSet`] records membership in the eight primitive classes; the
//! union classes are disjunctions of them. The key
//! theorems quantify over these unions: Theorem 1 shows uninstrumented
//! parametrized opacity is impossible whenever the model is in *any* of
//! the four, Theorem 4 needs `M ∉ Mrr`, and Theorem 5 needs
//! `M ∉ Mrr ∪ Mwr`.
//!
//! Membership is a semantic property (a universally quantified statement
//! about `required` pairs over all histories); each
//! [`MemoryModel`](crate::model::MemoryModel) *declares* its membership,
//! and this module's tests check every declaration against the model's
//! `required` function on a family of witness histories — positive
//! claims are spot-checked on canonical pattern pairs, negative claims
//! are confirmed by a concrete counterexample pair.

/// Membership in the paper's eight primitive reorder-restriction
/// classes. `rr_i` is `M^i_rr`, `rr_c` is `M^c_rr`, and so on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[allow(missing_docs)]
pub struct ClassSet {
    pub rr_i: bool,
    pub rr_c: bool,
    pub rr_d: bool,
    pub rw_i: bool,
    pub rw_c: bool,
    pub rw_d: bool,
    pub wr: bool,
    pub ww: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::history::History;
    use crate::ids::{ProcId, Var};
    use crate::model::MemoryModel;
    use crate::op::DepKind;

    impl ClassSet {
        /// `M ∈ Mrr = M^i_rr ∪ M^c_rr ∪ M^d_rr`.
        fn in_mrr(&self) -> bool {
            self.rr_i || self.rr_c || self.rr_d
        }

        /// `M ∈ Mrw = M^i_rw ∪ M^c_rw ∪ M^d_rw`.
        fn in_mrw(&self) -> bool {
            self.rw_i || self.rw_c || self.rw_d
        }

        /// `M ∈ Mwr`.
        fn in_mwr(&self) -> bool {
            self.wr
        }

        /// `M ∈ Mww`.
        fn in_mww(&self) -> bool {
            self.ww
        }

        /// `M ∈ Mrr ∪ Mrw ∪ Mwr ∪ Mww` — the hypothesis of Theorem 1:
        /// uninstrumented TM implementations cannot guarantee opacity
        /// parametrized by any such model.
        fn in_any(&self) -> bool {
            self.in_mrr() || self.in_mrw() || self.in_mwr() || self.in_mww()
        }
    }

    /// The canonical same-process, different-variable operation pattern
    /// for each primitive class.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Pattern {
        /// read x; read y (independent).
        RrIndep,
        /// read x; control-dependent read y.
        RrCtrl,
        /// read x; data-dependent read y.
        RrData,
        /// read x; write y (independent).
        RwIndep,
        /// read x; control-dependent write y.
        RwCtrl,
        /// read x; data-dependent write y.
        RwData,
        /// write x; read y.
        WrPat,
        /// write x; write y.
        WwPat,
    }

    /// Build the two-operation witness history for a pattern. With
    /// `forwarded`, the pattern's first operation (a read of `x`) is
    /// preceded by the process's own write of the same value, making it
    /// a *store-forwarded* read: class membership quantifies over all
    /// histories, and models such as
    /// [`TsoForwarding`](crate::model::TsoForwarding) treat forwarded
    /// reads specially, so read-first patterns are probed in both
    /// contexts. A write-first pattern has no forwarded variant.
    fn pattern_history(pat: Pattern, forwarded: bool) -> Option<History> {
        let p = ProcId(1);
        let (x, y) = (Var(0), Var(1));
        let mut b = HistoryBuilder::new();
        if forwarded {
            if matches!(pat, Pattern::WrPat | Pattern::WwPat) {
                return None;
            }
            b.write(p, x, 0); // makes the subsequent read of x forwarded
        }
        match pat {
            Pattern::RrIndep => {
                b.read(p, x, 0);
                b.read(p, y, 0);
            }
            Pattern::RrCtrl => {
                let r = b.read(p, x, 0);
                b.dep_read(p, y, 0, DepKind::Control, vec![r]);
            }
            Pattern::RrData => {
                let r = b.read(p, x, 0);
                b.dep_read(p, y, 0, DepKind::Data, vec![r]);
            }
            Pattern::RwIndep => {
                b.read(p, x, 0);
                b.write(p, y, 1);
            }
            Pattern::RwCtrl => {
                let r = b.read(p, x, 0);
                b.dep_write(p, y, 1, DepKind::Control, vec![r]);
            }
            Pattern::RwData => {
                let r = b.read(p, x, 0);
                b.dep_write(p, y, 1, DepKind::Data, vec![r]);
            }
            Pattern::WrPat => {
                b.write(p, x, 1);
                b.read(p, y, 0);
            }
            Pattern::WwPat => {
                b.write(p, x, 1);
                b.write(p, y, 1);
            }
        }
        Some(b.build().unwrap())
    }

    /// Probe a model's `required` function on the eight canonical
    /// patterns (each read-first pattern in both the plain and the
    /// store-forwarded context), returning the observed [`ClassSet`].
    ///
    /// For the paper's models (whose ordering requirements depend only
    /// on the local shape of the operation pair), the observed set
    /// coincides with the semantic class membership.
    fn probe_classes(model: &dyn MemoryModel) -> ClassSet {
        let probe = |pat: Pattern| {
            let plain = model.required(&pattern_history(pat, false).unwrap(), 0, 1);
            let fwd = match pattern_history(pat, true) {
                Some(h) => model.required(&h, 1, 2),
                None => true,
            };
            plain && fwd
        };
        ClassSet {
            rr_i: probe(Pattern::RrIndep),
            rr_c: probe(Pattern::RrCtrl),
            rr_d: probe(Pattern::RrData),
            rw_i: probe(Pattern::RwIndep),
            rw_c: probe(Pattern::RwCtrl),
            rw_d: probe(Pattern::RwData),
            wr: probe(Pattern::WrPat),
            ww: probe(Pattern::WwPat),
        }
    }
    use crate::model::{all_models, Alpha, Pso, Relaxed, Rmo, Sc, Tso};

    #[test]
    fn declared_classes_match_probed() {
        for m in all_models() {
            assert_eq!(
                m.classes(),
                probe_classes(m),
                "declared vs probed classes disagree for {}",
                m.name()
            );
        }
    }

    #[test]
    fn paper_classification_table() {
        // §3.2: "We classify some well-known memory models…"
        let sc = Sc.classes();
        assert!(sc.rr_i && sc.rw_i && sc.wr && sc.ww);

        let tso = Tso.classes();
        assert!(tso.rr_i && tso.rw_i && tso.ww && !tso.wr);

        let pso = Pso.classes();
        assert!(pso.rr_i && pso.rw_i && !pso.ww && !pso.wr);

        let rmo = Rmo.classes();
        assert!(rmo.rr_d && rmo.in_mrw() && !rmo.ww && !rmo.wr);
        assert!(!rmo.rr_i && !rmo.rw_i);

        let alpha = Alpha.classes();
        assert!(alpha.in_mrw() && !alpha.in_mrr() && !alpha.wr && !alpha.ww);

        let relaxed = Relaxed.classes();
        assert!(!relaxed.in_any());
    }

    #[test]
    fn union_class_helpers() {
        let c = ClassSet {
            rr_d: true,
            ..ClassSet::default()
        };
        assert!(c.in_mrr() && !c.in_mrw() && c.in_any());
        let c = ClassSet {
            wr: true,
            ..ClassSet::default()
        };
        assert!(c.in_mwr() && c.in_any());
        assert!(!ClassSet::default().in_any());
    }

    #[test]
    fn implication_rr_i_subsumes_dependent_variants_for_identity_models() {
        // "Generally, if a memory model M is in M^i_rr, then M ∈ M^c_rr
        // and M ∈ M^d_rr": dependent reads are reads, so a model that
        // orders all read→read pairs orders dependent ones too. Verify
        // for the declared sets of all bundled models.
        for m in all_models() {
            let c = m.classes();
            if c.rr_i {
                assert!(
                    c.rr_c && c.rr_d,
                    "{} violates M^i_rr ⊆ M^c_rr ∩ M^d_rr",
                    m.name()
                );
            }
            if c.rw_i {
                assert!(
                    c.rw_c && c.rw_d,
                    "{} violates M^i_rw ⊆ M^c_rw ∩ M^d_rw",
                    m.name()
                );
            }
        }
    }
}
