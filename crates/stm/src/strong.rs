//! The strong-atomicity STM of §6.1 (after Shpeisman et al., PLDI'07).
//!
//! Every variable has a *transactional record* alongside its data word.
//! A record is **shared** (holding a reader count), **exclusive**
//! (owned by a writing transaction), or **exclusive anonymous** (owned
//! by a non-transactional write in flight) — the states described in
//! §6.1. (The paper's fourth state, *private*, is a compiler-assisted
//! optimization for provably thread-local data; privatization is instead
//! demonstrated dynamically in the workspace's `privatization` example.)
//!
//! * Transactions acquire records at encounter time — shared for reads,
//!   exclusive for writes (upgrading if needed) — buffer their writes,
//!   publish at commit while still holding every record, and only then
//!   release (strict two-phase locking ⇒ opacity). Contention aborts the
//!   transaction after a bounded spin; [`atomically`](crate::atomically)
//!   retries with backoff.
//! * A **non-transactional write** waits for the record to be free and
//!   takes it in exclusive-anonymous mode around its store.
//! * A **non-transactional read** waits while the record is
//!   transactionally exclusive — this is the read instrumentation that
//!   makes the STM *strongly atomic* (opacity parametrized by SC). The
//!   `optimized_reads` variant drops that check — §6.1's observation
//!   that for memory models allowing read reordering (`M ∉ Mrr ∪ Mwr`)
//!   non-transactional reads can stay uninstrumented — and
//!   `jungle-bench` measures exactly what that saves.

use crate::api::{Aborted, Ctx, Protocol};
use crate::cell::Heap;
use jungle_isa::tm::record::{owned, readers, shared, tag, ANON, EXCL, PRIVATE, SHARED};
use jungle_isa::tm::Instrumentation;
use jungle_obs::trace::{self, EventKind};

/// Bounded spin budget before a transaction gives up and aborts.
const TXN_SPIN: usize = 256;

/// The §6.1 strong-atomicity STM.
pub struct StrongStm {
    data: Heap,
    meta: Heap,
    optimized_reads: bool,
}

impl StrongStm {
    /// Fully instrumented variant: strong atomicity — opacity
    /// parametrized by sequential consistency.
    pub fn new(n_vars: usize) -> Self {
        StrongStm {
            data: Heap::new(n_vars),
            meta: Heap::new(n_vars),
            optimized_reads: false,
        }
    }

    /// Read-optimized variant (§6.1): non-transactional reads are plain
    /// loads; correct for models that may reorder reads
    /// (`M ∉ Mrr ∪ Mwr`).
    pub fn new_optimized(n_vars: usize) -> Self {
        StrongStm {
            data: Heap::new(n_vars),
            meta: Heap::new(n_vars),
            optimized_reads: true,
        }
    }

    /// Take `var` into the **private** record state (§6.1's fourth
    /// state): the calling thread gains protocol-free access via
    /// [`StrongStm::private_read`] / [`StrongStm::private_write`] until
    /// it calls [`StrongStm::publish`]. Waits for the record to be
    /// free (no readers, no owner). Never call from inside a
    /// transaction.
    pub fn privatize(&self, cx: &mut Ctx, var: usize) {
        let mut spins = 0u32;
        loop {
            let w = self.meta.load(var);
            if w == shared(0) && self.meta.cas(var, w, owned(PRIVATE, cx.pid)) {
                return;
            }
            std::hint::spin_loop();
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
                spins = 0;
            }
        }
    }

    /// Release a privatized variable back to the shared state.
    pub fn publish(&self, cx: &mut Ctx, var: usize) {
        assert_eq!(
            self.meta.load(var),
            owned(PRIVATE, cx.pid),
            "publish of a variable this thread did not privatize"
        );
        self.meta.store(var, shared(0));
    }

    /// Protocol-free read of a variable this thread privatized.
    pub fn private_read(&self, cx: &Ctx, var: usize) -> u64 {
        debug_assert_eq!(self.meta.load(var), owned(PRIVATE, cx.pid));
        self.data.load(var)
    }

    /// Protocol-free write to a variable this thread privatized.
    pub fn private_write(&self, cx: &Ctx, var: usize, val: u64) {
        debug_assert_eq!(self.meta.load(var), owned(PRIVATE, cx.pid));
        self.data.store(var, val);
    }

    #[inline]
    fn release_all(&self, cx: &mut Ctx) {
        for &var in &cx.locks {
            self.meta.store(var, shared(0));
        }
        for &var in &cx.shared {
            loop {
                let w = self.meta.load(var);
                debug_assert_eq!(tag(w), SHARED);
                if self.meta.cas(var, w, shared(readers(w) - 1)) {
                    break;
                }
            }
        }
        cx.reset_txn();
    }

    /// Acquire `var`'s record in shared mode; `Err` aborts (rollback
    /// already done).
    #[inline]
    fn acquire_shared(&self, cx: &mut Ctx, var: usize) -> Result<(), Aborted> {
        for _ in 0..TXN_SPIN {
            let w = self.meta.load(var);
            match tag(w) {
                SHARED => {
                    if self.meta.cas(var, w, shared(readers(w) + 1)) {
                        cx.shared.push(var);
                        return Ok(());
                    }
                    trace::emit(EventKind::StmCasFail, u64::from(cx.pid.0), var as u64);
                }
                // Anonymous owners finish in O(1); exclusive owners may
                // hold until commit — spin a bounded amount for both.
                _ => std::hint::spin_loop(),
            }
        }
        self.release_all(cx);
        Err(Aborted)
    }

    /// Acquire `var`'s record exclusively (upgrading a shared hold).
    #[inline]
    fn acquire_excl(&self, cx: &mut Ctx, var: usize) -> Result<(), Aborted> {
        let upgrading = cx.shared.contains(&var);
        let free = shared(u64::from(upgrading));
        for _ in 0..TXN_SPIN {
            let w = self.meta.load(var);
            if w != free {
                std::hint::spin_loop(); // other readers or an owner present
                continue;
            }
            if self.meta.cas(var, w, owned(EXCL, cx.pid)) {
                if upgrading {
                    cx.shared.retain(|&v| v != var);
                }
                cx.locks.push(var);
                return Ok(());
            }
            trace::emit(EventKind::StmCasFail, u64::from(cx.pid.0), var as u64);
        }
        self.release_all(cx);
        Err(Aborted)
    }
}

impl Protocol for StrongStm {
    fn class(&self) -> (&'static str, Instrumentation) {
        if self.optimized_reads {
            // Reads de-instrumented; writes still acquire ownership.
            ("strong-optimized", Instrumentation::UnboundedWrites)
        } else {
            ("strong", Instrumentation::Full)
        }
    }

    #[inline]
    fn start(&self, cx: &mut Ctx) {
        cx.reset_txn();
    }

    #[inline]
    fn read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
        if let Some(v) = cx.ws_get(var) {
            return Ok(v);
        }
        if let Some(v) = cx.rs_get(var) {
            return Ok(v);
        }
        if !cx.locks.contains(&var) && !cx.shared.contains(&var) {
            self.acquire_shared(cx, var)?;
        }
        let v = self.data.load(var);
        cx.readset.push((var, v));
        Ok(v)
    }

    #[inline]
    fn write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
        if !cx.locks.contains(&var) {
            self.acquire_excl(cx, var)?;
        }
        cx.ws_put(var, val);
        Ok(())
    }

    #[inline]
    fn commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
        for i in 0..cx.writeset.len() {
            let (var, val) = cx.writeset[i];
            debug_assert!(cx.locks.contains(&var));
            self.data.store(var, val);
        }
        self.release_all(cx);
        Ok(())
    }

    #[inline]
    fn abort(&self, cx: &mut Ctx) {
        self.release_all(cx);
    }

    #[inline]
    fn nontxn_read(&self, _cx: &mut Ctx, var: usize) -> u64 {
        if !self.optimized_reads {
            // Wait while a transaction holds the record exclusively.
            let mut spins = 0u32;
            while tag(self.meta.load(var)) == EXCL {
                std::hint::spin_loop();
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                    spins = 0;
                }
            }
        }
        self.data.load(var)
    }

    #[inline]
    fn nontxn_write(&self, cx: &mut Ctx, var: usize, val: u64) {
        // Gain exclusive-anonymous ownership.
        let mut spins = 0u32;
        loop {
            let w = self.meta.load(var);
            if w == shared(0) && self.meta.cas(var, w, owned(ANON, cx.pid)) {
                break;
            }
            std::hint::spin_loop();
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
                spins = 0;
            }
        }
        self.data.store(var, val);
        self.meta.store(var, shared(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, TmAlgo};
    use jungle_core::ids::ProcId;
    use std::sync::Arc;

    #[test]
    fn single_thread_semantics() {
        let tm = StrongStm::new(3);
        let mut cx = Ctx::new(ProcId(0), None);
        let v = atomically(&tm, &mut cx, |tx| {
            tx.write(0, 10)?;
            let a = tx.read(0)?; // own write
            tx.write(1, a + 1)?;
            tx.read(2)
        });
        assert_eq!(v, 0);
        assert_eq!(tm.nt_read(&mut cx, 0), 10);
        assert_eq!(tm.nt_read(&mut cx, 1), 11);
        // All records free after commit.
        assert_eq!(tm.meta.load(0), shared(0));
        assert_eq!(tm.meta.load(1), shared(0));
    }

    #[test]
    fn upgrade_read_to_write() {
        let tm = StrongStm::new(1);
        let mut cx = Ctx::new(ProcId(0), None);
        atomically(&tm, &mut cx, |tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 5)
        });
        assert_eq!(tm.nt_read(&mut cx, 0), 5);
        assert_eq!(tm.meta.load(0), shared(0));
    }

    #[test]
    fn conflicting_txns_serialize_via_abort_retry() {
        let tm = Arc::new(StrongStm::new(1));
        let threads = 4;
        let per = 200u64;
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
    fn nt_write_waits_for_readers() {
        // A transaction holds a shared record; a concurrent nt write
        // must not land until the transaction finishes.
        let tm = Arc::new(StrongStm::new(2));
        let mut cx = Ctx::new(ProcId(0), None);
        tm.txn_start(&mut cx);
        let _ = tm.txn_read(&mut cx, 0).unwrap();
        let tm2 = tm.clone();
        let h = std::thread::spawn(move || {
            let mut cx1 = Ctx::new(ProcId(1), None);
            tm2.nt_write(&mut cx1, 0, 99); // blocks until record free
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "nt write must wait for the shared record");
        tm.txn_commit(&mut cx).unwrap();
        h.join().unwrap();
        assert_eq!(tm.nt_read(&mut cx, 0), 99);
    }

    #[test]
    fn strong_reads_never_see_mid_commit_reorder() {
        // Writer transactions keep x == y; instrumented nt reads must
        // never observe y's new value with x's old one when read y-
        // then-x (the Figure 1 anomaly under SC).
        let tm = Arc::new(StrongStm::new(2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let tm = tm.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(0), None);
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    i += 1;
                    atomically(tm.as_ref(), &mut cx, |tx| {
                        tx.write(0, i)?;
                        tx.write(1, i)
                    });
                }
            })
        };
        let mut cx = Ctx::new(ProcId(1), None);
        for _ in 0..3000 {
            let y = tm.nt_read(&mut cx, 1);
            let x = tm.nt_read(&mut cx, 0);
            assert!(
                x >= y,
                "strong atomicity violated: y={y} fresh but x={x} stale"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        w.join().unwrap();
    }

    #[test]
    fn privatize_publish_roundtrip() {
        let tm = StrongStm::new(2);
        let mut cx = Ctx::new(ProcId(0), None);
        tm.nt_write(&mut cx, 0, 5);
        tm.privatize(&mut cx, 0);
        assert_eq!(tm.private_read(&cx, 0), 5);
        tm.private_write(&cx, 0, 6);
        tm.private_write(&cx, 0, 7);
        tm.publish(&mut cx, 0);
        assert_eq!(tm.nt_read(&mut cx, 0), 7);
    }

    #[test]
    fn private_blocks_other_threads() {
        let tm = Arc::new(StrongStm::new(1));
        let mut cx = Ctx::new(ProcId(0), None);
        tm.privatize(&mut cx, 0);
        let tm2 = tm.clone();
        let h = std::thread::spawn(move || {
            let mut cx1 = Ctx::new(ProcId(1), None);
            tm2.nt_write(&mut cx1, 0, 99); // must wait for publish
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !h.is_finished(),
            "nt write must wait for the private record"
        );
        tm.private_write(&cx, 0, 42);
        tm.publish(&mut cx, 0);
        h.join().unwrap();
        assert_eq!(tm.nt_read(&mut cx, 0), 99);
    }

    #[test]
    fn private_blocks_transactions() {
        let tm = Arc::new(StrongStm::new(1));
        let mut cx = Ctx::new(ProcId(0), None);
        tm.privatize(&mut cx, 0);
        let tm2 = tm.clone();
        let h = std::thread::spawn(move || {
            let mut cx1 = Ctx::new(ProcId(1), None);
            // Conflicting transaction aborts and retries until publish.
            atomically(tm2.as_ref(), &mut cx1, |tx| {
                let v = tx.read(0)?;
                tx.write(0, v + 1)
            });
            cx1.aborts
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        tm.private_write(&cx, 0, 10);
        tm.publish(&mut cx, 0);
        let aborts = h.join().unwrap();
        assert_eq!(tm.nt_read(&mut cx, 0), 11);
        assert!(
            aborts >= 1,
            "the transaction should have aborted while private"
        );
    }

    #[test]
    fn ctx_counts_commits_and_aborts() {
        let tm = StrongStm::new(1);
        let mut cx = Ctx::new(ProcId(0), None);
        for _ in 0..5 {
            atomically(&tm, &mut cx, |tx| tx.write(0, 1));
        }
        assert_eq!(cx.commits, 5);
        assert_eq!(cx.aborts, 0);
    }

    #[test]
    fn optimized_variant_plain_reads() {
        let tm = StrongStm::new_optimized(1);
        assert_eq!(tm.name(), "strong-optimized");
        let mut cx = Ctx::new(ProcId(0), None);
        tm.nt_write(&mut cx, 0, 7);
        assert_eq!(tm.nt_read(&mut cx, 0), 7);
    }
}
