//! The shared heap: a fixed array of atomic word cells.
//!
//! Every STM in this crate stores variable `v`'s data in `Heap` slot
//! `v`; STMs that need per-variable metadata (ownership records, TL2
//! version locks) allocate a parallel metadata heap.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size array of atomic 64-bit cells, zero-initialized.
#[derive(Debug)]
pub struct Heap {
    cells: Box<[AtomicU64]>,
}

impl Heap {
    /// Allocate `n` zeroed cells.
    pub(crate) fn new(n: usize) -> Self {
        let cells = (0..n).map(|_| AtomicU64::new(0)).collect();
        Heap { cells }
    }

    /// Atomic load of cell `i`.
    #[inline]
    pub(crate) fn load(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::SeqCst)
    }

    /// Atomic store to cell `i`.
    #[inline]
    pub(crate) fn store(&self, i: usize, v: u64) {
        self.cells[i].store(v, Ordering::SeqCst);
    }

    /// Atomic compare-and-swap on cell `i`; returns `true` on success.
    #[inline]
    pub(crate) fn cas(&self, i: usize, expect: u64, new: u64) -> bool {
        self.cells[i]
            .compare_exchange(expect, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let h = Heap::new(4);
        for i in 0..4 {
            assert_eq!(h.load(i), 0);
        }
    }

    #[test]
    fn store_load_cas() {
        let h = Heap::new(2);
        h.store(0, 5);
        assert_eq!(h.load(0), 5);
        assert!(h.cas(0, 5, 9));
        assert!(!h.cas(0, 5, 11));
        assert_eq!(h.load(0), 9);
    }
}
