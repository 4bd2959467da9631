//! The model registry: one source of truth for memory-model semantics.
//!
//! The paper uses each memory model `M = (τ, R)` twice: as the
//! *specification* a checker enforces (the view of required pairs, see
//! [`crate::model`]) and as the *hardware* a TM implementation executes
//! on. Historically this workspace kept those two facades apart — the
//! checkers in [`crate::model`] covered the full §3.2 zoo while the
//! simulator's ad-hoc `HwModel` enum could execute only SC/TSO/PSO, and
//! nothing tied a checker model to the machine discipline that realizes
//! it. This module unifies them: a [`ModelEntry`] bundles the
//! checker-side [`MemoryModel`] with the execution-side
//! [`ExecSemantics`] the simulated machine must implement, and
//! [`registry`] enumerates the canonical pairings.
//!
//! ## Execution disciplines
//!
//! [`ExecSemantics`] describes a machine, not a view. Its fields map
//! onto the §3.2 table as follows (mirrored in `DESIGN.md`, "One model,
//! two facades"):
//!
//! | entry     | stores             | forwarding | load window | dep loads ordered |
//! |-----------|--------------------|------------|-------------|-------------------|
//! | `SC`      | immediate          | —          | 0           | yes               |
//! | `TSO`     | FIFO buffer        | no         | 0           | yes               |
//! | `TSO+fwd` | FIFO buffer        | yes        | 0           | yes               |
//! | `PSO`     | per-address queues | no         | 0           | yes               |
//! | `RMO`     | per-address queues | yes        | 2           | yes               |
//! | `Alpha`   | per-address queues | yes        | 2           | no                |
//! | `Relaxed` | per-address queues | yes        | 3           | no                |
//! | `Junk-SC` | immediate          | —          | 0           | yes               |
//!
//! Store-side relaxations come from the buffer discipline (what may
//! drain next); load-side relaxations come from a bounded *staleness
//! window*: a CPU may read one of the last `load_window` overwritten
//! values of an address, provided per-CPU coherence floors are
//! respected (own writes and previously observed values are never
//! un-seen). Reading a stale value is exactly a load that *performed
//! early* — the machine-level realization of read→read reordering.
//! Every discipline preserves per-address store order, because **every**
//! model in §3.2 requires same-variable program order (coherence); a
//! "fully free" drain that inverted same-address stores would produce
//! executions even the fully relaxed model rejects.
//!
//! Two honest caveats, both documented sound *under*-approximations
//! (the machine produces a subset of the model-allowed executions, so
//! positive verdicts over machine traces never overclaim):
//!
//! * read→write reordering (load-buffering shapes) is not realizable in
//!   a reactive simulator without value speculation;
//! * `Junk-SC`'s `havoc` transformation is checker-side only — the
//!   machine executes plain SC.

use crate::model::{Alpha, JunkSc, MemoryModel, Pso, Relaxed, Rmo, Sc, Tso, TsoForwarding};

/// When a buffered store may leave a CPU's reorder engine for global
/// memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreDiscipline {
    /// No buffering: stores apply to global memory immediately (SC).
    Immediate,
    /// One FIFO queue: only the oldest buffered store may drain (TSO).
    Fifo,
    /// FIFO per address: the oldest store *per address* may drain, so
    /// stores to different addresses reorder freely while same-address
    /// order (coherence) is preserved (PSO, RMO, Alpha, Relaxed).
    PerAddress,
}

/// The execution-side semantics of a memory model: the buffer/reorder
/// discipline a simulated machine implements.
///
/// This is the machine-facing half of a [`ModelEntry`]; the
/// checker-facing half is the [`MemoryModel`]. `jungle-memsim`'s
/// `HwModel` is a type alias for this struct.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ExecSemantics {
    /// Display name, e.g. `"RMO"`; recorded in machine statistics.
    pub name: &'static str,
    /// Store-buffer drain discipline.
    pub stores: StoreDiscipline,
    /// May a load be served from the CPU's own buffered store to the
    /// same address (store-to-load forwarding)? When `false`, a load
    /// whose address has buffered stores first drains them (the load
    /// *waits* for the store to become globally visible, as the plain
    /// formal TSO/PSO models demand).
    pub forwarding: bool,
    /// How many overwritten values of an address a load may still
    /// observe (0 = loads always read the current value). This is the
    /// load/store reorder window: a stale read is a load that performed
    /// early.
    pub load_window: u8,
    /// Must dependency-marked loads (`LoadDep`) read the current value
    /// even when `load_window > 0`? `true` models RMO (dependent loads
    /// are ordered), `false` models Alpha (even data-dependent loads
    /// reorder).
    pub order_dep_loads: bool,
}

impl ExecSemantics {
    /// Linearizable memory: the paper's baseline hardware assumption.
    pub const SC: ExecSemantics = ExecSemantics {
        name: "SC",
        stores: StoreDiscipline::Immediate,
        forwarding: false,
        load_window: 0,
        order_dep_loads: true,
    };

    /// Plain formal TSO: FIFO store buffer, **no** forwarding. Matches
    /// the checker-side [`Tso`] (which keeps read→read order; a
    /// forwarded early read would violate it — see `TSO_FWD`).
    pub const TSO: ExecSemantics = ExecSemantics {
        name: "TSO",
        stores: StoreDiscipline::Fifo,
        forwarding: false,
        load_window: 0,
        order_dep_loads: true,
    };

    /// TSO with store-to-load forwarding (x86-style). Matches the
    /// checker-side [`TsoForwarding`], which relaxes read→read order
    /// for forwarded reads.
    pub const TSO_FWD: ExecSemantics = ExecSemantics {
        name: "TSO+fwd",
        stores: StoreDiscipline::Fifo,
        forwarding: true,
        load_window: 0,
        order_dep_loads: true,
    };

    /// Plain formal PSO: per-address store queues, no forwarding.
    pub const PSO: ExecSemantics = ExecSemantics {
        name: "PSO",
        stores: StoreDiscipline::PerAddress,
        forwarding: false,
        load_window: 0,
        order_dep_loads: true,
    };

    /// PSO with store-to-load forwarding — what the pre-registry
    /// simulator executed under the name "PSO". Not paired with a
    /// checker in the [`registry`]: forwarding admits read→read
    /// reorderings that the formal [`Pso`] (which is read-read
    /// restrictive) rejects; only the RMO-and-weaker checkers absolve
    /// them.
    pub const PSO_FWD: ExecSemantics = ExecSemantics {
        name: "PSO+fwd",
        stores: StoreDiscipline::PerAddress,
        forwarding: true,
        load_window: 0,
        order_dep_loads: true,
    };

    /// SPARC RMO: per-address store queues, forwarding, a load reorder
    /// window of 2, and dependency-ordered loads.
    pub const RMO: ExecSemantics = ExecSemantics {
        name: "RMO",
        stores: StoreDiscipline::PerAddress,
        forwarding: true,
        load_window: 2,
        order_dep_loads: true,
    };

    /// Alpha: as RMO, but even dependency-marked loads may read stale
    /// values.
    pub const ALPHA: ExecSemantics = ExecSemantics {
        name: "Alpha",
        stores: StoreDiscipline::PerAddress,
        forwarding: true,
        load_window: 2,
        order_dep_loads: false,
    };

    /// The idealized fully relaxed machine: free drains across
    /// addresses and the widest staleness window.
    pub const RELAXED: ExecSemantics = ExecSemantics {
        name: "Relaxed",
        stores: StoreDiscipline::PerAddress,
        forwarding: true,
        load_window: 3,
        order_dep_loads: false,
    };

    /// Largest admissible [`ExecSemantics::load_window`] across the
    /// registry — bounds how much per-address value history a machine
    /// must retain.
    pub const MAX_LOAD_WINDOW: u8 = 3;
}

/// One registry entry: a memory model's two facades plus a provenance
/// note.
#[derive(Clone, Copy)]
pub struct ModelEntry {
    /// Registry key, e.g. `"RMO"` (equals `model.name()` for canonical
    /// entries).
    pub key: &'static str,
    /// The checker-side model `M = (τ, R)`.
    pub model: &'static dyn MemoryModel,
    /// The execution-side discipline realizing `M` on the simulator.
    pub exec: ExecSemantics,
    /// Short provenance / soundness note.
    pub note: &'static str,
}

impl ModelEntry {
    /// Construct an entry (for custom pairings outside the canonical
    /// [`registry`]).
    pub const fn new(
        key: &'static str,
        model: &'static dyn MemoryModel,
        exec: ExecSemantics,
        note: &'static str,
    ) -> Self {
        ModelEntry {
            key,
            model,
            exec,
            note,
        }
    }

    /// The paper's game for the negative constructions: check traces of
    /// an **SC execution** against an arbitrary model's view. (The
    /// paper's TM implementations assume linearizable hardware; the
    /// memory model parametrizes only the *property*.) The entry's key
    /// is the model's name.
    pub fn checker_game(model: &'static dyn MemoryModel) -> Self {
        ModelEntry {
            key: model.name(),
            model,
            exec: ExecSemantics::SC,
            note: "checker-side game over SC executions (paper's setting)",
        }
    }
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("key", &self.key)
            .field("model", &self.model.name())
            .field("exec", &self.exec)
            .finish()
    }
}

/// The canonical model zoo: every §3.2 checker model paired with the
/// execution discipline that realizes it.
static REGISTRY: [ModelEntry; 8] = [
    ModelEntry::new(
        "SC",
        &Sc,
        ExecSemantics::SC,
        "linearizable memory; the paper's baseline hardware",
    ),
    ModelEntry::new(
        "TSO",
        &Tso,
        ExecSemantics::TSO,
        "formal TSO keeps read-read order, so the machine must not forward",
    ),
    ModelEntry::new(
        "TSO+fwd",
        &TsoForwarding,
        ExecSemantics::TSO_FWD,
        "x86-style TSO; forwarded reads may reorder with later reads",
    ),
    ModelEntry::new(
        "PSO",
        &Pso,
        ExecSemantics::PSO,
        "per-address store queues; no forwarding (PSO is read-read restrictive)",
    ),
    ModelEntry::new(
        "RMO",
        &Rmo,
        ExecSemantics::RMO,
        "store queues + load window; dependency-marked loads stay ordered",
    ),
    ModelEntry::new(
        "Alpha",
        &Alpha,
        ExecSemantics::ALPHA,
        "as RMO but even dependent loads may read stale values",
    ),
    ModelEntry::new(
        "Relaxed",
        &Relaxed,
        ExecSemantics::RELAXED,
        "idealized fully relaxed model (Theorem 3); widest load window",
    ),
    ModelEntry::new(
        "Junk-SC",
        &JunkSc,
        ExecSemantics::SC,
        "havoc is checker-side (τ); the machine executes SC — a sound subset",
    ),
];

/// The canonical registry, in the paper's §3.2 order (strongest first).
pub fn registry() -> &'static [ModelEntry] {
    &REGISTRY
}

/// Look up a canonical entry by key (`"SC"`, `"TSO"`, `"TSO+fwd"`,
/// `"PSO"`, `"RMO"`, `"Alpha"`, `"Relaxed"`, `"Junk-SC"`).
pub fn entry(key: &str) -> Option<&'static ModelEntry> {
    REGISTRY.iter().find(|e| e.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_unique_and_resolvable() {
        let keys: std::collections::HashSet<_> = registry().iter().map(|e| e.key).collect();
        assert_eq!(keys.len(), registry().len());
        for e in registry() {
            assert!(std::ptr::eq(entry(e.key).unwrap(), e));
        }
        assert!(entry("no-such-model").is_none());
    }

    #[test]
    fn canonical_entries_pair_matching_names() {
        // Every canonical entry's key equals its checker model's name;
        // the exec name may differ only where documented (Junk-SC
        // executes SC).
        for e in registry() {
            assert_eq!(e.key, e.model.name());
            if e.key != "Junk-SC" {
                assert_eq!(e.exec.name, e.key);
            } else {
                assert_eq!(e.exec, ExecSemantics::SC);
            }
        }
    }

    #[test]
    fn windows_are_bounded_by_max() {
        for e in registry() {
            assert!(e.exec.load_window <= ExecSemantics::MAX_LOAD_WINDOW);
        }
    }

    #[test]
    fn strong_models_have_no_load_window() {
        for key in ["SC", "TSO", "TSO+fwd", "PSO", "Junk-SC"] {
            assert_eq!(entry(key).unwrap().exec.load_window, 0, "{key}");
        }
        for key in ["RMO", "Alpha", "Relaxed"] {
            assert!(entry(key).unwrap().exec.load_window > 0, "{key}");
        }
    }

    #[test]
    fn forwarding_only_where_the_view_absolves_it() {
        // A forwarding machine is paired only with checkers that relax
        // read→read order for forwarded reads (TSO+fwd) or in general
        // (RMO and weaker) — never with the read-read restrictive
        // SC/TSO/PSO/Junk-SC views.
        for e in registry() {
            if e.exec.forwarding {
                assert!(
                    !e.model.classes().rr_i,
                    "{}: forwarding paired with a read-read restrictive model",
                    e.key
                );
            }
        }
    }

    #[test]
    fn checker_game_executes_sc() {
        let e = ModelEntry::checker_game(&Relaxed);
        assert_eq!(e.key, "Relaxed");
        assert_eq!(e.exec, ExecSemantics::SC);
    }
}
