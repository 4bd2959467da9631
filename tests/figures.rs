//! Integration: every figure of the paper, end to end.
//!
//! Figures 1–2 via the litmus tables, Figure 3 via legality of s1/s2
//! and the parametrized verdicts, Figure 4 via trace correspondence
//! (tested in jungle-isa), Figure 6 via the executable STMs.

use jungle::core::legal::every_op_legal;
use jungle::core::model::{all_models, Alpha, Pso, Relaxed, Rmo, Sc, Tso, TsoForwarding};
use jungle::core::opacity::check_opacity;
use jungle::litmus::figures::{all_litmus, fig1, fig2a, fig2b, fig2c, fig3, fig3_s1, fig3_s2};

#[test]
fn fig1_full_model_matrix() {
    let l = fig1();
    // The anomalous outcome r1=1, r2=0: forbidden by every read-read
    // restrictive model, allowed by the rest.
    let anomaly = "r1=1 r2=0";
    assert_eq!(l.judge(anomaly, &Sc), Some(false));
    assert_eq!(l.judge(anomaly, &Tso), Some(false));
    assert_eq!(l.judge(anomaly, &TsoForwarding), Some(false));
    assert_eq!(l.judge(anomaly, &Pso), Some(false));
    assert_eq!(l.judge(anomaly, &Rmo), Some(true));
    assert_eq!(l.judge(anomaly, &Alpha), Some(true));
    assert_eq!(l.judge(anomaly, &Relaxed), Some(true));
    // All sequentially-explainable outcomes allowed everywhere.
    for label in ["r1=0 r2=0", "r1=0 r2=1", "r1=1 r2=1"] {
        for m in all_models() {
            assert_eq!(l.judge(label, m), Some(true), "{label} under {}", m.name());
        }
    }
}

#[test]
fn fig2a_z_never_negative() {
    let l = fig2a();
    // z = x − y < 0 requires a snapshot with y fresher than x: all the
    // (x,y) snapshots that would make z negative are forbidden under
    // every model (transactional-only history: the memory model plays
    // no role).
    for m in all_models() {
        assert_eq!(l.judge("x=0 y=2", m), Some(false), "under {}", m.name());
        assert_eq!(l.judge("x=1 y=2", m), Some(false), "under {}", m.name());
        assert_eq!(l.judge("x=2 y=0", m), Some(true), "under {}", m.name());
    }
}

#[test]
fn fig2b_nontransactional_relaxation_table() {
    let l = fig2b();
    let anomaly = "r1=1 r2=0";
    // Requires either write-write or read-read reordering.
    assert_eq!(l.judge(anomaly, &Sc), Some(false));
    assert_eq!(l.judge(anomaly, &Tso), Some(false));
    assert_eq!(l.judge(anomaly, &Pso), Some(true)); // w→w relaxes
    assert_eq!(l.judge(anomaly, &Rmo), Some(true));
    assert_eq!(l.judge(anomaly, &Alpha), Some(true));
    assert_eq!(l.judge(anomaly, &Relaxed), Some(true));
}

#[test]
fn fig2c_isolation_for_all_models() {
    let l = fig2c();
    for m in all_models() {
        if m.name() == "Junk-SC" {
            continue;
        }
        assert_eq!(
            l.judge("z=1", m),
            Some(false),
            "intermediate leak under {}",
            m.name()
        );
        assert_eq!(
            l.judge("r1=0 r2=5", m),
            Some(false),
            "torn txn reads under {}",
            m.name()
        );
    }
}

#[test]
fn fig3_verdicts_and_witness_legality() {
    // Opacity of h per the paper's §3.3 analysis.
    assert!(check_opacity(&fig3(1), &Sc).is_opaque());
    assert!(!check_opacity(&fig3(0), &Sc).is_opaque());
    assert!(check_opacity(&fig3(0), &Rmo).is_opaque());
    assert!(check_opacity(&fig3(1), &Rmo).is_opaque());

    // Legality of the two sequential histories from Figure 3(b,c).
    assert!(every_op_legal(&fig3_s1(1, 1)));
    assert!(every_op_legal(&fig3_s2(0, 1)));
    assert!(!every_op_legal(&fig3_s1(0, 1)));
    assert!(!every_op_legal(&fig3_s2(1, 1)));
}

#[test]
fn all_litmus_tables_are_total() {
    // Every (outcome, model) pair gets a verdict — no panics, no gaps.
    for l in all_litmus() {
        let rows = l.table();
        assert_eq!(rows.len(), l.outcomes.len() * all_models().len());
    }
}

#[test]
fn junk_sc_permits_strictly_more() {
    use jungle::core::model::JunkSc;
    // Junk-SC's havoc can only make more histories opaque than SC.
    for l in all_litmus() {
        for o in &l.outcomes {
            let sc = l.judge(&o.label, &Sc).unwrap();
            let junk = l.judge(&o.label, &JunkSc).unwrap();
            assert!(
                !sc || junk,
                "{}::{} opaque under SC but not Junk-SC",
                l.name,
                o.label
            );
        }
    }
}
