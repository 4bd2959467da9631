//! Figure 6's global-lock STM, one text for its three variants
//! (Theorems 3–5 and 7).
//!
//! Transactions serialize on one global lock; reads are latched into a
//! read set on first access; writes are buffered and published at commit
//! with one CAS per variable, keyed on the word latched by the earlier
//! transactional read (Figure 6). Non-transactional reads are plain
//! loads. The variant — a [`jungle_isa::tm::Fig6`] type, the declaration
//! the models in `jungle-mc` read too — picks the non-transactional
//! write at compile time:
//!
//! * [`GlobalLockStm`]: a plain store. Opacity only parametrized by fully
//!   relaxed models (Theorem 3), SGLA for every model (Theorem 7).
//! * [`WriteTxnStm`]: lock, store, unlock — "treating every
//!   non-transactional write as a transaction in itself". Opacity for
//!   any `M ∉ Mrr` (Theorem 4), at the price of a write that spins on
//!   the global lock, unboundedly.
//! * [`VersionedStm`]: every heap cell holds a packed word `value:32 |
//!   pid:8 | version:24`, and a write increments the thread's *local*
//!   version counter and issues **one store** of a fresh packed word —
//!   constant-time instrumentation. The commit CAS is keyed on the whole
//!   packed word, so any intervening non-transactional write, which
//!   changes `(pid, version)` even when it stores the same value, makes
//!   the CAS fail and serializes after the transaction: the ABA window
//!   that Theorem 2 exploits against plain stores is closed. Opacity for
//!   any `M ∉ Mrr ∪ Mwr`, e.g. Alpha (Theorem 5). Values are at most
//!   `u32::MAX`; a wider one panics.

use crate::api::{Aborted, Ctx, Protocol};
use crate::cell::Heap;
use jungle_isa::tm::{
    lock_owner, Fig6, GlobalLock, Instrumentation, NtWrite, Versioned, WriteTxn, LOCK_FREE,
};
use jungle_obs::trace::{self, EventKind};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Figure 6's global-lock STM in variant `V`.
pub struct Fig6Stm<V> {
    heap: Heap,
    lock: AtomicU64,
    variant: PhantomData<fn() -> V>,
}

/// Figure 6 as published: uninstrumented non-transactional operations.
pub type GlobalLockStm = Fig6Stm<GlobalLock>;

/// Theorem 4's STM: non-transactional writes as one-write transactions.
pub type WriteTxnStm = Fig6Stm<WriteTxn>;

/// Theorem 5's STM: constant-time write instrumentation.
pub type VersionedStm = Fig6Stm<Versioned>;

impl<V: Fig6> Fig6Stm<V> {
    /// An STM over `n_vars` word variables.
    pub fn new(n_vars: usize) -> Self {
        Fig6Stm {
            heap: Heap::new(n_vars),
            lock: AtomicU64::new(LOCK_FREE),
            variant: PhantomData,
        }
    }

    fn acquire(&self, cx: &Ctx) {
        loop {
            if self
                .lock
                .compare_exchange(
                    LOCK_FREE,
                    lock_owner(cx.pid),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return;
            }
            let mut spins = 0u32;
            while self.lock.load(Ordering::Relaxed) != LOCK_FREE {
                std::hint::spin_loop();
                spins += 1;
                if spins > 64 {
                    // Uniprocessor-friendly: the holder cannot release
                    // while we burn its timeslice.
                    std::thread::yield_now();
                    spins = 0;
                }
            }
        }
    }

    fn release(&self) {
        self.lock.store(LOCK_FREE, Ordering::SeqCst);
    }
}

impl<V: Fig6> Protocol for Fig6Stm<V> {
    fn class(&self) -> (&'static str, Instrumentation) {
        (V::VARIANT.name, V::VARIANT.class())
    }

    #[inline]
    fn start(&self, cx: &mut Ctx) {
        self.acquire(cx);
        cx.reset_txn();
    }

    #[inline]
    fn read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
        Ok(if let Some(v) = cx.ws_get(var) {
            v
        } else if let Some(w) = cx.rs_get(var) {
            V::VARIANT.decode(w)
        } else {
            let w = self.heap.load(var);
            cx.readset.push((var, w));
            V::VARIANT.decode(w)
        })
    }

    #[inline]
    fn write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
        // Figure 6: a transactional write first latches the current
        // word (a transactional read) for the commit-time CAS.
        if cx.rs_get(var).is_none() && cx.ws_get(var).is_none() {
            let w = self.heap.load(var);
            cx.readset.push((var, w));
        }
        cx.ws_put(var, val);
        Ok(())
    }

    #[inline]
    fn commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
        for i in 0..cx.writeset.len() {
            let (var, val) = cx.writeset[i];
            let expected = cx
                .rs_get(var)
                .expect("Figure 6: every written variable was read first");
            let new = V::VARIANT.encode(val, cx.pid, &mut cx.version);
            // The CAS result is deliberately ignored (Figure 6): a
            // failure means a non-transactional write intervened and
            // serializes after this transaction.
            if !self.heap.cas(var, expected, new) {
                trace::emit(EventKind::StmCasFail, u64::from(cx.pid.0), var as u64);
            }
        }
        self.release();
        cx.reset_txn();
        Ok(())
    }

    #[inline]
    fn abort(&self, cx: &mut Ctx) {
        self.release();
        cx.reset_txn();
    }

    #[inline]
    fn nontxn_read(&self, _cx: &mut Ctx, var: usize) -> u64 {
        V::VARIANT.decode(self.heap.load(var))
    }

    #[inline]
    fn nontxn_write(&self, cx: &mut Ctx, var: usize, val: u64) {
        match V::VARIANT.nt_write {
            NtWrite::Locked => {
                self.acquire(cx);
                self.heap.store(var, val);
                self.release();
            }
            NtWrite::Plain | NtWrite::Packed => {
                let word = V::VARIANT.encode(val, cx.pid, &mut cx.version);
                self.heap.store(var, word);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, TmAlgo};
    use crate::tap::{trace_of, StmTap};
    use jungle_core::ids::ProcId;
    use jungle_obs::ring::Backpressure;
    use std::sync::Arc;
    use std::time::Duration;

    type Shared = Arc<dyn TmAlgo + Send + Sync>;

    /// The three variants over `n_vars` variables, each with its
    /// non-transactional write.
    fn variants(n_vars: usize) -> [(Shared, NtWrite); 3] {
        [
            (Arc::new(GlobalLockStm::new(n_vars)), NtWrite::Plain),
            (Arc::new(WriteTxnStm::new(n_vars)), NtWrite::Locked),
            (Arc::new(VersionedStm::new(n_vars)), NtWrite::Packed),
        ]
    }

    #[test]
    fn single_thread_txn_and_nt_semantics() {
        for (tm, _) in variants(4) {
            let tm = tm.as_ref();
            let mut cx = Ctx::new(ProcId(0), None);
            let out = atomically(tm, &mut cx, |tx| {
                tx.write(0, 7)?;
                let v = tx.read(0)?; // read-own-write
                tx.write(1, v + 1)?;
                tx.read(2) // initial value
            });
            assert_eq!(out, 0, "{}", tm.name());
            assert_eq!(tm.nt_read(&mut cx, 0), 7);
            assert_eq!(tm.nt_read(&mut cx, 1), 8);
            // An explicit abort discards the buffered write.
            tm.txn_start(&mut cx);
            tm.txn_write(&mut cx, 3, 99).unwrap();
            tm.txn_abort(&mut cx);
            assert_eq!(tm.nt_read(&mut cx, 3), 0, "{}", tm.name());
            // Non-transactional values round-trip, and a transaction
            // reads them.
            tm.nt_write(&mut cx, 3, 41);
            let v = atomically(tm, &mut cx, |tx| tx.read(3));
            assert_eq!(v, 41, "{}", tm.name());
        }
    }

    #[test]
    fn tapped_history_shape() {
        for (tm, _) in variants(2) {
            let tap = Arc::new(StmTap::new(16, Backpressure::Block));
            let mut cx = Ctx::new(ProcId(0), Some(tap.clone()));
            atomically(tm.as_ref(), &mut cx, |tx| {
                tx.write(0, 5)?;
                tx.read(1)
            });
            tm.nt_read(&mut cx, 0);
            let mut evs = Vec::new();
            tap.drain_into(&mut evs, usize::MAX);
            let trace = trace_of(&evs).unwrap();
            // start, write, read, commit, nt-read = 5 operations.
            assert_eq!(trace.ops().len(), 5, "{}", tm.name());
            let h = trace.canonical_history().unwrap();
            assert_eq!(h.txns().len(), 1);
        }
    }

    #[test]
    fn same_value_nt_write_during_a_transaction() {
        // Theorem 2's scenario: a transaction reads x (latching word w)
        // and writes 7; another thread writes the value it read (0)
        // non-transactionally; then the transaction commits.
        for (tm, nt_write) in variants(1) {
            let mut cx0 = Ctx::new(ProcId(0), None);
            tm.txn_start(&mut cx0);
            assert_eq!(tm.txn_read(&mut cx0, 0), Ok(0));
            tm.txn_write(&mut cx0, 0, 7).unwrap();
            let writer = {
                let tm = tm.clone();
                std::thread::spawn(move || tm.nt_write(&mut Ctx::new(ProcId(1), None), 0, 0))
            };
            if nt_write == NtWrite::Locked {
                // The write is a transaction: it waits for the lock.
                std::thread::sleep(Duration::from_millis(20));
                assert!(!writer.is_finished(), "{} wrote under the lock", tm.name());
            } else {
                while !writer.is_finished() {
                    std::thread::yield_now();
                }
            }
            tm.txn_commit(&mut cx0).unwrap();
            writer.join().unwrap();
            let last = tm.nt_read(&mut cx0, 0);
            // Plain words: the commit CAS cannot tell the write happened
            // (ABA) and overwrites it. Packed words: the word changed, the
            // CAS fails, and the non-transactional write survives. Locked:
            // the write lands after the commit.
            let expected = if nt_write == NtWrite::Plain { 7 } else { 0 };
            assert_eq!(last, expected, "{}", tm.name());
        }
    }

    #[test]
    fn concurrent_counter_increments_all_applied() {
        for (tm, _) in variants(1) {
            let (threads, per) = (4, 200);
            let joins: Vec<_> = (0..threads)
                .map(|t| {
                    let tm = tm.clone();
                    std::thread::spawn(move || {
                        let mut cx = Ctx::new(ProcId(t), None);
                        for _ in 0..per {
                            atomically(tm.as_ref(), &mut cx, |tx| {
                                let v = tx.read(0)?;
                                tx.write(0, v + 1)
                            });
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
            let mut cx = Ctx::new(ProcId(9), None);
            assert_eq!(tm.nt_read(&mut cx, 0), u64::from(threads) * per);
        }
    }

    #[test]
    fn concurrent_mixed_traffic_reads_only_written_values() {
        for (tm, _) in variants(4) {
            let joins: Vec<_> = (0..4u32)
                .map(|t| {
                    let tm = tm.clone();
                    std::thread::spawn(move || {
                        let mut cx = Ctx::new(ProcId(t), None);
                        for i in 0..300u64 {
                            let v = if t % 2 == 0 {
                                atomically(tm.as_ref(), &mut cx, |tx| {
                                    let v = tx.read((i % 4) as usize)?;
                                    tx.write(((i + 1) % 4) as usize, i % 1000)?;
                                    Ok(v)
                                })
                            } else {
                                tm.nt_write(&mut cx, (i % 4) as usize, i % 1000);
                                tm.nt_read(&mut cx, ((i + 2) % 4) as usize)
                            };
                            assert!(v < 1000, "{} read {v}, never written", tm.name());
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 bits")]
    fn versioned_rejects_a_value_wider_than_32_bits() {
        let tm = VersionedStm::new(1);
        tm.nt_write(&mut Ctx::new(ProcId(0), None), 0, (1 << 32) + 5);
    }
}
