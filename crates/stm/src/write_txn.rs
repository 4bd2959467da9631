//! Theorem 4's STM: non-transactional writes as one-write transactions.
//!
//! Identical to the Figure 6 global-lock STM except that a
//! non-transactional write acquires the global lock, stores, and
//! releases — "treating every non-transactional write as a transaction
//! in itself". Reads remain plain loads, so the STM guarantees opacity
//! parametrized by any `M ∉ Mrr`. The cost (measured by
//! `jungle-bench`): a non-transactional write spins on the global lock
//! and is *unbounded* — the motivation for Theorem 5's constant-time
//! scheme.

use crate::api::{Aborted, Ctx, Protocol};
use crate::global_lock::{Fig6Core, RawCodec};
use jungle_isa::tm::Instrumentation;

/// The Theorem 4 STM.
pub struct WriteTxnStm {
    core: Fig6Core<RawCodec>,
}

impl WriteTxnStm {
    /// An STM over `n_vars` word variables.
    pub fn new(n_vars: usize) -> Self {
        WriteTxnStm {
            core: Fig6Core::new(n_vars, RawCodec),
        }
    }
}

impl Protocol for WriteTxnStm {
    fn class(&self) -> (&'static str, Instrumentation) {
        ("write-txn", Instrumentation::UnboundedWrites)
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
        self.core.acquire(cx);
        self.core.heap.store(var, val);
        self.core.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, TmAlgo};
    use jungle_core::ids::ProcId;

    #[test]
    fn nt_write_respects_running_txn() {
        // A non-transactional write cannot land in the middle of a
        // transaction's commit: it waits for the lock.
        use std::sync::Arc;
        let tm = Arc::new(WriteTxnStm::new(2));
        let tm2 = tm.clone();
        let writer = std::thread::spawn(move || {
            let mut cx = Ctx::new(ProcId(1), None);
            for i in 0..500 {
                tm2.nt_write(&mut cx, 0, i);
                tm2.nt_write(&mut cx, 1, i);
            }
        });
        let mut cx = Ctx::new(ProcId(0), None);
        for _ in 0..500 {
            let (a, b) = atomically(tm.as_ref(), &mut cx, |tx| Ok((tx.read(0)?, tx.read(1)?)));
            // Both variables written under the lock by the same loop
            // iteration or a mix of adjacent ones; values never exceed
            // 500 and reads see committed values only.
            assert!(a < 500 && b < 500);
        }
        writer.join().unwrap();
    }

    #[test]
    fn basic_txn_path_unchanged() {
        let tm = WriteTxnStm::new(2);
        let mut cx = Ctx::new(ProcId(0), None);
        atomically(&tm, &mut cx, |tx| tx.write(0, 3));
        assert_eq!(tm.nt_read(&mut cx, 0), 3);
        assert_eq!(tm.instrumentation(), Instrumentation::UnboundedWrites);
    }
}
