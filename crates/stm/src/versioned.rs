//! Theorem 5's STM: constant-time write instrumentation.
//!
//! Every heap cell holds a packed word `value:32 | pid:8 | version:24`.
//! A non-transactional write increments the thread's *local* version
//! counter and issues **one store** of a fresh packed word — the
//! constant-time instrumentation of the theorem. A non-transactional
//! read is a plain load (the decode is register arithmetic, not an
//! instruction the memory model can reorder). Transactions run under
//! the Figure 6 global lock and publish with CAS keyed on the *whole
//! packed word* latched at first read, so any intervening
//! non-transactional write — which necessarily changes `(pid, version)`
//! even when it stores the same value — makes the CAS fail and
//! serializes after the transaction. This is what defeats the ABA
//! window that Theorem 2 exploits against plain stores.
//!
//! Guarantees opacity parametrized by any `M ∉ Mrr ∪ Mwr` (e.g. Alpha).

use crate::api::{Aborted, Ctx, Protocol};
use crate::global_lock::{Codec, Fig6Core};
use jungle_isa::tm::{packed, Instrumentation};

struct PackedCodec;

impl Codec for PackedCodec {
    fn decode(&self, word: u64) -> u64 {
        packed::value(word)
    }
    fn encode(&self, cx: &mut Ctx, val: u64) -> u64 {
        cx.version = cx.version.wrapping_add(1);
        packed::pack(val, cx.pid, cx.version)
    }
}

/// The Theorem 5 STM.
pub struct VersionedStm {
    core: Fig6Core<PackedCodec>,
}

impl VersionedStm {
    /// An STM over `n_vars` packed-word variables (values ≤ `u32::MAX`).
    pub fn new(n_vars: usize) -> Self {
        VersionedStm {
            core: Fig6Core::new(n_vars, PackedCodec),
        }
    }
}

impl Protocol for VersionedStm {
    fn class(&self) -> (&'static str, Instrumentation) {
        (
            "versioned",
            Instrumentation::ConstantTimeWrites { bound: 1 },
        )
    }

    #[inline]
    fn start(&self, cx: &mut Ctx) {
        self.core.start(cx);
    }

    #[inline]
    fn read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
        Ok(self.core.read(cx, var))
    }

    #[inline]
    fn write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
        debug_assert!(val <= packed::MAX_VALUE);
        self.core.write(cx, var, val);
        Ok(())
    }

    #[inline]
    fn commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
        self.core.commit(cx);
        Ok(())
    }

    #[inline]
    fn abort(&self, cx: &mut Ctx) {
        self.core.abort(cx);
    }

    #[inline]
    fn nontxn_read(&self, _cx: &mut Ctx, var: usize) -> u64 {
        self.core.nontxn_read(var)
    }

    #[inline]
    fn nontxn_write(&self, cx: &mut Ctx, var: usize, val: u64) {
        debug_assert!(val <= packed::MAX_VALUE);
        // One store of a fresh packed word — constant-time, but still
        // instrumentation relative to a bare store.
        self.core.nontxn_write(cx, var, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, TmAlgo};
    use jungle_core::ids::ProcId;

    #[test]
    fn values_roundtrip_through_txn_and_nt() {
        let tm = VersionedStm::new(3);
        let mut cx = Ctx::new(ProcId(0), None);
        tm.nt_write(&mut cx, 0, 41);
        assert_eq!(tm.nt_read(&mut cx, 0), 41);
        let v = atomically(&tm, &mut cx, |tx| {
            let v = tx.read(0)?;
            tx.write(1, v + 1)?;
            tx.read(1)
        });
        assert_eq!(v, 42);
        assert_eq!(tm.nt_read(&mut cx, 1), 42);
    }

    #[test]
    fn same_value_nt_write_defeats_aba() {
        // Theorem 2's scenario: a transaction reads x (latching word w),
        // another thread writes the *same value* non-transactionally,
        // then the transaction commits. With raw words the CAS would
        // succeed (ABA); with packed words it must fail, so the
        // non-transactional write survives.
        let tm = VersionedStm::new(1);
        let mut cx0 = Ctx::new(ProcId(0), None);
        let mut cx1 = Ctx::new(ProcId(1), None);

        tm.txn_start(&mut cx0);
        let v = tm.txn_read(&mut cx0, 0).unwrap();
        assert_eq!(v, 0);
        tm.txn_write(&mut cx0, 0, 7).unwrap();
        // Concurrent non-transactional write of the same value (0) that
        // the transaction read.
        tm.nt_write(&mut cx1, 0, 0);
        tm.txn_commit(&mut cx0).unwrap();
        // The commit CAS failed (word changed), so the cell holds the
        // non-transactional write's 0, not the transactional 7.
        assert_eq!(tm.nt_read(&mut cx1, 0), 0);
    }

    #[test]
    fn concurrent_mixed_traffic_values_stay_in_domain() {
        use std::sync::Arc;
        let tm = Arc::new(VersionedStm::new(4));
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(t), None);
                for i in 0..300u64 {
                    if t % 2 == 0 {
                        atomically(tm.as_ref(), &mut cx, |tx| {
                            let v = tx.read((i % 4) as usize)?;
                            assert!(v <= 1000, "decoded value out of domain: {v}");
                            tx.write(((i + 1) % 4) as usize, i % 1000)
                        });
                    } else {
                        tm.nt_write(&mut cx, (i % 4) as usize, i % 1000);
                        let v = tm.nt_read(&mut cx, ((i + 2) % 4) as usize);
                        assert!(v <= 1000, "decoded value out of domain: {v}");
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
