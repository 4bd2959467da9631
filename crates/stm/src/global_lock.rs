//! The uninstrumented global-lock STM of Figure 6 (Theorems 3 and 7),
//! plus the shared machinery (`Fig6Core`) reused by the Theorem 4 and
//! Theorem 5 variants.
//!
//! Transactions serialize on one global lock; reads are latched into a
//! read set on first access; writes are buffered and published at commit
//! with one CAS per variable, keyed on the word latched by the earlier
//! transactional read (Figure 6). Non-transactional operations are plain
//! atomic loads and stores — uninstrumented — so this STM guarantees
//! opacity only parametrized by fully relaxed models (Theorem 3), and
//! SGLA for every model (Theorem 7).

use crate::api::{Aborted, Ctx, Protocol};
use crate::cell::Heap;
use jungle_isa::tm::{lock_owner, Instrumentation, LOCK_FREE};
use jungle_obs::trace::{self, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Value/word codec: how program values map to heap words. The plain
/// STMs store values directly; the versioned STM packs metadata in.
pub(crate) trait Codec: Sync {
    /// Decode a heap word into a program value.
    fn decode(&self, word: u64) -> u64;
    /// Encode a program value into a fresh heap word (may consume a
    /// per-thread version number).
    fn encode(&self, cx: &mut Ctx, val: u64) -> u64;
}

/// Identity codec for the raw-word STMs.
pub(crate) struct RawCodec;

impl Codec for RawCodec {
    fn decode(&self, word: u64) -> u64 {
        word
    }
    fn encode(&self, _cx: &mut Ctx, val: u64) -> u64 {
        val
    }
}

/// Shared implementation of the Figure 6 transactional protocol.
pub(crate) struct Fig6Core<C: Codec> {
    pub heap: Heap,
    lock: AtomicU64,
    pub codec: C,
}

impl<C: Codec> Fig6Core<C> {
    pub(crate) fn new(n_vars: usize, codec: C) -> Self {
        Fig6Core {
            heap: Heap::new(n_vars),
            lock: AtomicU64::new(LOCK_FREE),
            codec,
        }
    }

    pub(crate) fn acquire(&self, cx: &Ctx) {
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

    pub(crate) fn release(&self) {
        self.lock.store(LOCK_FREE, Ordering::SeqCst);
    }

    pub(crate) fn start(&self, cx: &mut Ctx) {
        self.acquire(cx);
        cx.reset_txn();
    }

    pub(crate) fn read(&self, cx: &mut Ctx, var: usize) -> u64 {
        if let Some(v) = cx.ws_get(var) {
            v
        } else if let Some(w) = cx.rs_get(var) {
            self.codec.decode(w)
        } else {
            let w = self.heap.load(var);
            cx.readset.push((var, w));
            self.codec.decode(w)
        }
    }

    pub(crate) fn write(&self, cx: &mut Ctx, var: usize, val: u64) {
        // Figure 6: a transactional write first latches the current
        // word (a transactional read) for the commit-time CAS.
        if cx.rs_get(var).is_none() && cx.ws_get(var).is_none() {
            let w = self.heap.load(var);
            cx.readset.push((var, w));
        }
        cx.ws_put(var, val);
    }

    pub(crate) fn commit(&self, cx: &mut Ctx) {
        for i in 0..cx.writeset.len() {
            let (var, val) = cx.writeset[i];
            let expected = cx
                .rs_get(var)
                .expect("Figure 6: every written variable was read first");
            let new = self.codec.encode(cx, val);
            // The CAS result is deliberately ignored (Figure 6): a
            // failure means a non-transactional write intervened and
            // serializes after this transaction.
            if !self.heap.cas(var, expected, new) {
                trace::emit(EventKind::StmCasFail, u64::from(cx.pid.0), var as u64);
            }
        }
        self.release();
        cx.reset_txn();
    }

    pub(crate) fn abort(&self, cx: &mut Ctx) {
        self.release();
        cx.reset_txn();
    }

    pub(crate) fn nontxn_read(&self, var: usize) -> u64 {
        self.codec.decode(self.heap.load(var))
    }

    /// Uninstrumented (or codec-packed) non-transactional write: a
    /// single store.
    pub(crate) fn nontxn_write(&self, cx: &mut Ctx, var: usize, val: u64) {
        let w = self.codec.encode(cx, val);
        self.heap.store(var, w);
    }
}

/// The Figure 6 STM: uninstrumented non-transactional operations.
pub struct GlobalLockStm {
    core: Fig6Core<RawCodec>,
}

impl GlobalLockStm {
    /// An STM over `n_vars` word variables.
    pub fn new(n_vars: usize) -> Self {
        GlobalLockStm {
            core: Fig6Core::new(n_vars, RawCodec),
        }
    }
}

impl Protocol for GlobalLockStm {
    fn class(&self) -> (&'static str, Instrumentation) {
        ("global-lock", Instrumentation::Uninstrumented)
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
        self.core.nontxn_write(cx, var, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, TmAlgo};
    use jungle_core::ids::ProcId;

    #[test]
    fn single_thread_txn_semantics() {
        let tm = GlobalLockStm::new(4);
        let mut cx = Ctx::new(ProcId(0), None);
        let out = atomically(&tm, &mut cx, |tx| {
            tx.write(0, 7)?;
            let v = tx.read(0)?; // read-own-write
            tx.write(1, v + 1)?;
            tx.read(2) // initial value
        });
        assert_eq!(out, 0);
        assert_eq!(tm.nt_read(&mut cx, 0), 7);
        assert_eq!(tm.nt_read(&mut cx, 1), 8);
    }

    #[test]
    fn explicit_abort_discards() {
        let tm = GlobalLockStm::new(2);
        let mut cx = Ctx::new(ProcId(0), None);
        tm.txn_start(&mut cx);
        tm.txn_write(&mut cx, 0, 99).unwrap();
        tm.txn_abort(&mut cx);
        assert_eq!(tm.nt_read(&mut cx, 0), 0);
    }

    #[test]
    fn nt_ops_are_plain() {
        let tm = GlobalLockStm::new(2);
        let mut cx = Ctx::new(ProcId(0), None);
        tm.nt_write(&mut cx, 1, 42);
        assert_eq!(tm.nt_read(&mut cx, 1), 42);
        assert_eq!(tm.instrumentation(), Instrumentation::Uninstrumented);
    }

    #[test]
    fn concurrent_counter_increments_all_applied() {
        use std::sync::Arc;
        let tm = Arc::new(GlobalLockStm::new(1));
        let threads = 4;
        let per = 200;
        let mut joins = Vec::new();
        for t in 0..threads {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(t), None);
                for _ in 0..per {
                    atomically(tm.as_ref(), &mut cx, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut cx = Ctx::new(ProcId(9), None);
        assert_eq!(tm.nt_read(&mut cx, 0), u64::from(threads) * per);
    }

    #[test]
    fn recorded_history_shape() {
        use crate::recorder::Recorder;
        let rec = std::sync::Arc::new(Recorder::new());
        let tm = GlobalLockStm::new(2);
        let mut cx = Ctx::new(ProcId(0), Some(rec.clone()));
        atomically(&tm, &mut cx, |tx| {
            tx.write(0, 5)?;
            tx.read(1)
        });
        tm.nt_read(&mut cx, 0);
        drop(cx);
        let trace = std::sync::Arc::try_unwrap(rec)
            .unwrap()
            .into_trace()
            .unwrap();
        // start, write, read, commit, nt-read = 5 operations.
        assert_eq!(trace.ops().len(), 5);
        let h = trace.canonical_history().unwrap();
        assert_eq!(h.txns().len(), 1);
    }
}
