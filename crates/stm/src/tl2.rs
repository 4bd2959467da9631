//! A TL2-style STM (Dice, Shalev, Shavit — DISC'06): the
//! weak-atomicity baseline.
//!
//! TL2 guarantees opacity *between transactions* using a global version
//! clock and per-variable versioned write-locks, but its
//! non-transactional operations are plain loads and stores with **no
//! protocol at all** — mixing them with transactions on the same
//! variables yields no parametrized-opacity guarantee for any model
//! (the workspace's `privatization` example demonstrates an actual
//! violation). It exists here as the performance baseline the paper's
//! §6.1 discussion implies: what a TM costs when one gives up on
//! non-transactional guarantees entirely.

use crate::api::{Aborted, Ctx, Protocol};
use crate::cell::Heap;
use jungle_isa::tm::vlock::{encode, locked, version};
use jungle_isa::tm::Instrumentation;
use std::sync::atomic::{AtomicU64, Ordering};

/// Spin budget when acquiring write locks at commit.
const LOCK_SPIN: usize = 64;

/// The TL2-style STM.
pub struct Tl2Stm {
    data: Heap,
    /// Per-variable version locks.
    vlocks: Heap,
    clock: AtomicU64,
}

impl Tl2Stm {
    /// An STM over `n_vars` word variables.
    pub fn new(n_vars: usize) -> Self {
        Tl2Stm {
            data: Heap::new(n_vars),
            vlocks: Heap::new(n_vars),
            clock: AtomicU64::new(0),
        }
    }

    #[inline]
    fn rollback(&self, cx: &mut Ctx) {
        // Release any commit-time locks at their pre-lock version.
        for &var in &cx.locks {
            let w = self.vlocks.load(var);
            debug_assert!(locked(w));
            self.vlocks.store(var, encode(version(w), false));
        }
        cx.reset_txn();
    }
}

impl Protocol for Tl2Stm {
    fn class(&self) -> (&'static str, Instrumentation) {
        // Plain non-transactional accesses — but unlike the Figure 6
        // family this buys no strong guarantee; see the module docs.
        ("tl2", Instrumentation::Uninstrumented)
    }

    #[inline]
    fn start(&self, cx: &mut Ctx) {
        cx.reset_txn();
        cx.rv = self.clock.load(Ordering::SeqCst);
    }

    #[inline]
    fn read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
        if let Some(v) = cx.ws_get(var) {
            return Ok(v);
        }
        // Sample lock, read data, revalidate.
        let v1 = self.vlocks.load(var);
        if locked(v1) || version(v1) > cx.rv {
            self.rollback(cx);
            return Err(Aborted);
        }
        let val = self.data.load(var);
        let v2 = self.vlocks.load(var);
        if v2 != v1 {
            self.rollback(cx);
            return Err(Aborted);
        }
        cx.readset.push((var, v1));
        Ok(val)
    }

    #[inline]
    fn write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
        cx.ws_put(var, val);
        Ok(())
    }

    #[inline]
    fn commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
        if cx.writeset.is_empty() {
            // Read-only transactions were validated as they went.
            cx.reset_txn();
            return Ok(());
        }
        // Phase 1: lock the write set.
        for i in 0..cx.writeset.len() {
            let var = cx.writeset[i].0;
            let mut acquired = false;
            for _ in 0..LOCK_SPIN {
                let w = self.vlocks.load(var);
                if !locked(w) && self.vlocks.cas(var, w, encode(version(w), true)) {
                    cx.locks.push(var);
                    acquired = true;
                    break;
                }
                std::hint::spin_loop();
            }
            if !acquired {
                self.rollback(cx);
                return Err(Aborted);
            }
        }
        // Phase 2: increment the clock.
        let wv = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        // Phase 3: validate the read set.
        if wv > cx.rv + 1 {
            for i in 0..cx.readset.len() {
                let (var, v1) = cx.readset[i];
                let w = self.vlocks.load(var);
                let locked_by_me = cx.locks.contains(&var);
                if version(w) > cx.rv || (locked(w) && !locked_by_me) || version(w) != version(v1) {
                    self.rollback(cx);
                    return Err(Aborted);
                }
            }
        }
        // Phase 4: publish and release with the new version.
        for i in 0..cx.writeset.len() {
            let (var, val) = cx.writeset[i];
            self.data.store(var, val);
        }
        for i in 0..cx.writeset.len() {
            let var = cx.writeset[i].0;
            self.vlocks.store(var, encode(wv, false));
        }
        cx.locks.clear();
        cx.reset_txn();
        Ok(())
    }

    #[inline]
    fn abort(&self, cx: &mut Ctx) {
        self.rollback(cx);
    }

    #[inline]
    fn nontxn_read(&self, _cx: &mut Ctx, var: usize) -> u64 {
        self.data.load(var)
    }

    #[inline]
    fn nontxn_write(&self, _cx: &mut Ctx, var: usize, val: u64) {
        self.data.store(var, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, TmAlgo};
    use jungle_core::ids::ProcId;
    use std::sync::Arc;

    #[test]
    fn single_thread_txn() {
        let tm = Tl2Stm::new(2);
        let mut cx = Ctx::new(ProcId(0), None);
        let v = atomically(&tm, &mut cx, |tx| {
            tx.write(0, 5)?;
            let a = tx.read(0)?;
            tx.write(1, a * 2)?;
            Ok(a)
        });
        assert_eq!(v, 5);
        assert_eq!(tm.nt_read(&mut cx, 1), 10);
    }

    #[test]
    fn concurrent_counter() {
        let tm = Arc::new(Tl2Stm::new(1));
        let threads = 4;
        let per = 300u64;
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
    fn bank_transfer_invariant_between_txns() {
        // Transfers preserve the total; transactional snapshot reads
        // must always see a consistent total (opacity between
        // transactions).
        let tm = Arc::new(Tl2Stm::new(2));
        {
            let mut cx = Ctx::new(ProcId(0), None);
            tm.nt_write(&mut cx, 0, 500);
            tm.nt_write(&mut cx, 1, 500);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mover = {
            let tm = tm.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(1), None);
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    i += 1;
                    let amt = i % 100;
                    atomically(tm.as_ref(), &mut cx, |tx| {
                        let a = tx.read(0)?;
                        let b = tx.read(1)?;
                        if a >= amt {
                            tx.write(0, a - amt)?;
                            tx.write(1, b + amt)?;
                        }
                        Ok(())
                    });
                }
            })
        };
        let mut cx = Ctx::new(ProcId(2), None);
        for _ in 0..2000 {
            let (a, b) = atomically(tm.as_ref(), &mut cx, |tx| Ok((tx.read(0)?, tx.read(1)?)));
            assert_eq!(a + b, 1000, "torn transactional snapshot");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        mover.join().unwrap();
    }

    #[test]
    fn aborted_reads_never_observed_by_user_code() {
        // Validation failures surface as retries; the closure's final
        // successful execution sees a consistent snapshot.
        let tm = Arc::new(Tl2Stm::new(2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let tm = tm.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(0), None);
                let mut i = 0;
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
        for _ in 0..2000 {
            let (a, b) = atomically(tm.as_ref(), &mut cx, |tx| Ok((tx.read(0)?, tx.read(1)?)));
            assert_eq!(a, b, "TL2 snapshot isolation violated");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        w.join().unwrap();
    }
}
