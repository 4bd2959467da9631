//! Typed transactional variables over any [`TmAlgo`].
//!
//! [`TVarSpace`] owns an STM instance and hands out typed [`TVar`]
//! handles; [`TVarThread::atomically`] runs a closure transactionally
//! with typed reads and writes. This is the downstream-facing API the
//! workspace examples use.
//!
//! ```
//! use jungle_stm::{GlobalLockStm, TVarSpace};
//!
//! let space = TVarSpace::new(GlobalLockStm::new(16));
//! let balance = space.tvar::<u64>(0);
//! let flag = space.tvar::<bool>(1);
//!
//! let mut th = space.thread(0);
//! th.atomically(|tx| {
//!     tx.write(&balance, 100u64)?;
//!     tx.write(&flag, true)
//! });
//! assert_eq!(th.read_now(&balance), 100);
//! assert!(th.read_now(&flag));
//! ```

use crate::api::{atomically, Aborted, Ctx, TmAlgo};
use crate::word::Word;
use jungle_core::ids::ProcId;
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed handle to one shared variable (slot) of a [`TVarSpace`].
#[derive(Debug)]
pub struct TVar<W: Word> {
    slot: usize,
    _ty: PhantomData<fn() -> W>,
}

impl<W: Word> Clone for TVar<W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W: Word> Copy for TVar<W> {}

/// A shared space of typed transactional variables backed by an STM
/// algorithm. Cheap to clone (shares the STM).
pub struct TVarSpace<A: TmAlgo> {
    tm: Arc<A>,
}

impl<A: TmAlgo> Clone for TVarSpace<A> {
    fn clone(&self) -> Self {
        TVarSpace {
            tm: self.tm.clone(),
        }
    }
}

impl<A: TmAlgo> TVarSpace<A> {
    /// Wrap an STM instance.
    pub fn new(tm: A) -> Self {
        TVarSpace { tm: Arc::new(tm) }
    }

    /// A typed variable at heap slot `slot`.
    pub fn tvar<W: Word>(&self, slot: usize) -> TVar<W> {
        TVar {
            slot,
            _ty: PhantomData,
        }
    }

    /// Create the handle for thread `pid`. Each OS thread gets its own
    /// (the handle owns the thread's STM context).
    pub fn thread(&self, pid: u32) -> TVarThread<A> {
        TVarThread {
            tm: self.tm.clone(),
            cx: Ctx::new(ProcId(pid), None),
        }
    }
}

/// A per-thread handle owning the thread's [`Ctx`].
pub struct TVarThread<A: TmAlgo> {
    tm: Arc<A>,
    cx: Ctx,
}

/// Typed transaction handle.
pub struct TypedTx<'a> {
    tm: &'a dyn TmAlgo,
    cx: &'a mut Ctx,
}

impl<'a> TypedTx<'a> {
    /// Transactionally read a variable.
    pub fn read<W: Word>(&mut self, var: &TVar<W>) -> Result<W, Aborted> {
        self.tm.txn_read(self.cx, var.slot).map(W::from_word)
    }

    /// Transactionally write a variable.
    pub fn write<W: Word>(&mut self, var: &TVar<W>, val: W) -> Result<(), Aborted> {
        self.tm.txn_write(self.cx, var.slot, val.to_word())
    }
}

impl<A: TmAlgo> TVarThread<A> {
    /// Run `body` transactionally, retrying on conflict, and return its
    /// result after a successful commit.
    pub fn atomically<R>(
        &mut self,
        mut body: impl FnMut(&mut TypedTx<'_>) -> Result<R, Aborted>,
    ) -> R {
        atomically(&*self.tm, &mut self.cx, |tx| {
            body(&mut TypedTx {
                tm: tx.tm,
                cx: &mut *tx.cx,
            })
        })
    }

    /// Non-transactionally read a variable ("read now").
    pub fn read_now<W: Word>(&mut self, var: &TVar<W>) -> W {
        W::from_word(self.tm.nt_read(&mut self.cx, var.slot))
    }

    /// Non-transactionally write a variable ("write now").
    pub fn write_now<W: Word>(&mut self, var: &TVar<W>, val: W) {
        self.tm.nt_write(&mut self.cx, var.slot, val.to_word());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_lock::GlobalLockStm;
    use crate::strong::StrongStm;
    use crate::versioned::VersionedStm;

    #[test]
    fn typed_roundtrip_all_types() {
        let space = TVarSpace::new(GlobalLockStm::new(8));
        let a = space.tvar::<i64>(0);
        let b = space.tvar::<bool>(1);
        let c = space.tvar::<f64>(2);
        let d = space.tvar::<char>(3);
        let mut th = space.thread(0);
        th.atomically(|tx| {
            tx.write(&a, -42i64)?;
            tx.write(&b, true)?;
            tx.write(&c, 2.5f64)?;
            tx.write(&d, '🦀')
        });
        assert_eq!(th.read_now(&a), -42);
        assert!(th.read_now(&b));
        assert_eq!(th.read_now(&c), 2.5);
        assert_eq!(th.read_now(&d), '🦀');
    }

    #[test]
    fn threads_share_space() {
        let space = TVarSpace::new(StrongStm::new(1));
        let ctr = space.tvar::<u64>(0);
        let mut joins = Vec::new();
        for t in 0..4 {
            let space = space.clone();
            joins.push(std::thread::spawn(move || {
                let mut th = space.thread(t);
                for _ in 0..100 {
                    th.atomically(|tx| {
                        let v = tx.read(&ctr)?;
                        tx.write(&ctr, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut th = space.thread(9);
        assert_eq!(th.read_now(&ctr), 400);
    }

    #[test]
    fn versioned_space_persists_thread_version() {
        // The thread handle owns its Ctx, so the versioned STM's local
        // version counter advances monotonically across operations.
        let space = TVarSpace::new(VersionedStm::new(1));
        let x = space.tvar::<u32>(0);
        let mut th = space.thread(0);
        for i in 0..10u32 {
            th.write_now(&x, i);
        }
        assert_eq!(th.read_now(&x), 9);
    }
}
