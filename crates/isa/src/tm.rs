//! Instrumentation taxonomy of TM implementations (§4, §5).
//!
//! The paper distinguishes TM implementations by how their
//! *non-transactional* operations are implemented:
//!
//! * **uninstrumented** — `I_N(rd x) = {⟨load aₓ⟩}` and
//!   `I_N(wr x v) = {⟨store aₓ, v⟩}` (plain memory accesses);
//! * instrumented writes with **unbounded** sequences (Theorem 4: each
//!   non-transactional write is a little transaction that spins on a
//!   lock);
//! * instrumented writes with **constant-time** instrumentation
//!   (Theorem 5: a bounded number of instructions per write);
//! * **fully instrumented** reads and writes (the strong-atomicity STM
//!   of §6.1).
//!
//! Every TM here exists twice, as a model in `jungle-mc` and on real
//! atomics in `jungle-stm`. This module declares, once, what the two
//! copies share:
//!
//! * the three variants of Figure 6's global-lock TM ([`GlobalLock`],
//!   [`WriteTxn`], [`Versioned`]), which differ only in their
//!   non-transactional write ([`NtWrite`]); each variant's §4 class
//!   follows from that write ([`Fig6Variant::class`]);
//! * the four word formats: Figure 6's lock word ([`LOCK_FREE`],
//!   [`lock_owner`]), Theorem 5's [`packed`] data word, the §6.1
//!   strong-atomicity [`record`], and TL2's version lock ([`vlock`]).

use jungle_core::ids::ProcId;
use std::fmt;

/// How a TM implementation instruments non-transactional operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instrumentation {
    /// Plain loads and stores for non-transactional accesses.
    Uninstrumented,
    /// Reads are plain loads; writes execute a bounded extra instruction
    /// sequence of length at most `bound` (Theorem 5's constant-time
    /// write instrumentation).
    ConstantTimeWrites {
        /// Maximum number of instructions a non-transactional write may
        /// execute.
        bound: usize,
    },
    /// Reads are plain loads; writes may execute unboundedly many
    /// instructions (e.g. lock acquisition loops — Theorem 4).
    UnboundedWrites,
    /// Both reads and writes are instrumented (strong-atomicity STMs).
    Full,
}

impl Instrumentation {
    /// Are non-transactional reads plain loads?
    pub fn reads_uninstrumented(&self) -> bool {
        !matches!(self, Instrumentation::Full)
    }

    /// Are non-transactional writes plain stores?
    pub fn writes_uninstrumented(&self) -> bool {
        matches!(self, Instrumentation::Uninstrumented)
    }

    /// Do non-transactional writes complete in a bounded number of
    /// instructions?
    pub fn writes_constant_time(&self) -> bool {
        matches!(
            self,
            Instrumentation::Uninstrumented | Instrumentation::ConstantTimeWrites { .. }
        )
    }
}

impl fmt::Display for Instrumentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instrumentation::Uninstrumented => write!(f, "uninstrumented"),
            Instrumentation::ConstantTimeWrites { bound } => {
                write!(f, "constant-time writes (≤{bound} instrs)")
            }
            Instrumentation::UnboundedWrites => write!(f, "unbounded writes"),
            Instrumentation::Full => write!(f, "fully instrumented"),
        }
    }
}

/// How a Figure 6 TM writes outside a transaction: the one thing its
/// variants differ in. Non-transactional reads are plain loads in all
/// three.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NtWrite {
    /// One plain store (Theorems 3 and 7).
    Plain,
    /// Acquire the global lock, store, release: a one-write transaction,
    /// unbounded because the acquisition spins (Theorem 4).
    Locked,
    /// One store of a fresh [`packed`] word; every data word is packed
    /// (Theorem 5).
    Packed,
}

/// One variant of Figure 6's global-lock TM, as both executors build it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fig6Variant {
    /// Display name.
    pub name: &'static str,
    /// How it writes outside a transaction.
    pub nt_write: NtWrite,
}

impl Fig6Variant {
    /// The §4 class, which the non-transactional write decides
    /// (reads are plain loads).
    pub const fn class(self) -> Instrumentation {
        match self.nt_write {
            NtWrite::Plain => Instrumentation::Uninstrumented,
            NtWrite::Locked => Instrumentation::UnboundedWrites,
            NtWrite::Packed => Instrumentation::ConstantTimeWrites { bound: 1 },
        }
    }

    /// The program value a data word holds.
    #[inline]
    pub fn decode(self, word: u64) -> u64 {
        match self.nt_write {
            NtWrite::Packed => packed::value(word),
            NtWrite::Plain | NtWrite::Locked => word,
        }
    }

    /// A fresh data word holding `val`, written by `pid`, whose version
    /// counter is `version` (advanced when the word is packed).
    #[inline]
    pub fn encode(self, val: u64, pid: ProcId, version: &mut u32) -> u64 {
        match self.nt_write {
            NtWrite::Packed => {
                *version = version.wrapping_add(1);
                packed::pack(val, pid, *version)
            }
            NtWrite::Plain | NtWrite::Locked => val,
        }
    }
}

/// A type that names one [`Fig6Variant`], so that an executor picks the
/// variant at compile time.
pub trait Fig6 {
    /// The variant.
    const VARIANT: Fig6Variant;
}

/// Figure 6 as published: uninstrumented non-transactional accesses.
/// Parametrized opacity for fully relaxed models (Theorem 3), SGLA for
/// every model (Theorem 7).
#[derive(Clone, Copy, Debug)]
pub struct GlobalLock;

impl Fig6 for GlobalLock {
    const VARIANT: Fig6Variant = Fig6Variant {
        name: "global-lock",
        nt_write: NtWrite::Plain,
    };
}

/// Non-transactional writes as one-write transactions: parametrized
/// opacity for every `M ∉ Mrr` (Theorem 4).
#[derive(Clone, Copy, Debug)]
pub struct WriteTxn;

impl Fig6 for WriteTxn {
    const VARIANT: Fig6Variant = Fig6Variant {
        name: "write-txn",
        nt_write: NtWrite::Locked,
    };
}

/// Constant-time write instrumentation over packed words: parametrized
/// opacity for every `M ∉ Mrr ∪ Mwr`, e.g. Alpha (Theorem 5).
#[derive(Clone, Copy, Debug)]
pub struct Versioned;

impl Fig6 for Versioned {
    const VARIANT: Fig6Variant = Fig6Variant {
        name: "versioned",
        nt_write: NtWrite::Packed,
    };
}

/// Figure 6's global-lock word when no process holds it.
pub const LOCK_FREE: u64 = 0;

/// The lock word naming holder `p`: `p + 1`, so that process 0 differs
/// from [`LOCK_FREE`].
#[inline]
pub fn lock_owner(p: ProcId) -> u64 {
    u64::from(p.0) + 1
}

/// Theorem 5's data word `value:32 | pid:8 | version:24`. A
/// non-transactional write stores a fresh one, so a commit-time CAS keyed
/// on the whole word fails after any intervening write, even of the same
/// value.
pub mod packed {
    use super::ProcId;

    /// Pack a value with its writer and the writer's version.
    ///
    /// # Panics
    ///
    /// If `value` exceeds `u32::MAX`: the word has 32 bits for it, and a
    /// wider value would come back truncated.
    #[inline]
    pub fn pack(value: u64, pid: ProcId, version: u32) -> u64 {
        assert!(
            value <= u64::from(u32::MAX),
            "a packed word stores values of at most 32 bits, not {value}"
        );
        (value << 32) | (u64::from(pid.0 & 0xFF) << 24) | u64::from(version & 0x00FF_FFFF)
    }

    /// The value.
    #[inline]
    pub fn value(word: u64) -> u64 {
        word >> 32
    }

    /// The writer.
    #[inline]
    pub fn pid(word: u64) -> ProcId {
        ProcId(((word >> 24) & 0xFF) as u32)
    }

    /// The writer-local version.
    #[inline]
    pub fn version(word: u64) -> u32 {
        (word & 0x00FF_FFFF) as u32
    }
}

/// The §6.1 transactional record: a tag in the top two bits over the
/// reader count ([`SHARED`](record::SHARED)) or the owner's
/// [`lock_owner`] word (the other three states).
pub mod record {
    use super::{lock_owner, ProcId};

    /// Where the tag starts.
    const TAG_SHIFT: u32 = 62;
    /// Held by readers (possibly none).
    pub const SHARED: u64 = 0;
    /// Owned by a writing transaction.
    pub const EXCL: u64 = 1;
    /// Owned by a non-transactional write in flight.
    pub const ANON: u64 = 2;
    /// Privatized by one thread.
    pub const PRIVATE: u64 = 3;

    /// The record's state.
    #[inline]
    pub fn tag(w: u64) -> u64 {
        w >> TAG_SHIFT
    }

    /// The reader count of a shared record.
    #[inline]
    pub fn readers(w: u64) -> u64 {
        w & !(3 << TAG_SHIFT)
    }

    /// A shared record with `n` readers (0: free).
    #[inline]
    pub fn shared(n: u64) -> u64 {
        n
    }

    /// A record in state `tag` owned by `p`.
    #[inline]
    pub fn owned(tag: u64, p: ProcId) -> u64 {
        (tag << TAG_SHIFT) | lock_owner(p)
    }
}

/// TL2's per-variable version lock `version << 1 | locked`.
pub mod vlock {
    /// Is the lock held?
    #[inline]
    pub fn locked(w: u64) -> bool {
        w & 1 == 1
    }

    /// The version.
    #[inline]
    pub fn version(w: u64) -> u64 {
        w >> 1
    }

    /// The lock word for `version`, held or not.
    #[inline]
    pub fn encode(version: u64, locked: bool) -> u64 {
        (version << 1) | u64::from(locked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_predicates() {
        let u = Instrumentation::Uninstrumented;
        assert!(u.reads_uninstrumented() && u.writes_uninstrumented() && u.writes_constant_time());

        let c = Instrumentation::ConstantTimeWrites { bound: 3 };
        assert!(c.reads_uninstrumented());
        assert!(!c.writes_uninstrumented());
        assert!(c.writes_constant_time());

        let w = Instrumentation::UnboundedWrites;
        assert!(w.reads_uninstrumented());
        assert!(!w.writes_constant_time());

        let f = Instrumentation::Full;
        assert!(!f.reads_uninstrumented());
        assert!(!f.writes_uninstrumented());
    }

    #[test]
    fn lock_owner_is_never_free() {
        assert_ne!(lock_owner(ProcId(0)), LOCK_FREE);
        assert_eq!(lock_owner(ProcId(3)), 4);
    }

    #[test]
    fn distinct_writes_produce_distinct_packed_words() {
        // What defeats ABA for the commit-time CAS: the same value written
        // by another process or at another version is another word.
        let a = packed::pack(5, ProcId(1), 1);
        assert_ne!(a, packed::pack(5, ProcId(2), 1));
        assert_ne!(a, packed::pack(5, ProcId(1), 2));
    }

    #[test]
    fn record_states_are_distinct() {
        use record::*;
        assert_eq!(tag(shared(5)), SHARED);
        assert_eq!(readers(shared(7)), 7);
        assert_eq!(tag(owned(EXCL, ProcId(0))), EXCL);
        assert_eq!(tag(owned(ANON, ProcId(3))), ANON);
        assert_eq!(tag(owned(PRIVATE, ProcId(3))), PRIVATE);
        assert_ne!(owned(EXCL, ProcId(0)), owned(ANON, ProcId(0)));
        assert_ne!(owned(EXCL, ProcId(0)), shared(0));
    }

    #[test]
    fn version_lock_roundtrips() {
        for (v, l) in [(5, true), (9, false), (0, false)] {
            let w = vlock::encode(v, l);
            assert_eq!((vlock::version(w), vlock::locked(w)), (v, l));
        }
    }

    #[test]
    fn display() {
        assert_eq!(
            Instrumentation::Uninstrumented.to_string(),
            "uninstrumented"
        );
        assert_eq!(
            Instrumentation::ConstantTimeWrites { bound: 2 }.to_string(),
            "constant-time writes (≤2 instrs)"
        );
    }
}
