//! Identifiers for processes, shared objects, and operation instances.
//!
//! The paper ranges over a set `P` of processes, a set `Obj` of shared
//! objects, and identifies operation *instances* by natural numbers that
//! are unique within a history. All three are small newtype wrappers so
//! that they cannot be confused with one another or with plain integers.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A value stored in a shared object.
///
/// The paper works with natural-number values; we use `u64`, which is also
/// what the executable STMs in `jungle-stm` store in their atomic cells.
pub type Val = u64;

/// A process (thread) identifier — an element of the paper's set `P`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ProcId(pub u32);

/// A shared object (variable) identifier — an element of the set `Obj`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

/// The unique identifier of an operation instance within a history.
///
/// The paper writes an operation instance as `(o, p, k)` where `k ∈ ℕ` is
/// unique in the history; `OpId` is that `k`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OpId(pub u32);

/// A [`Hasher`] for identifiers the workspace hands out itself: one
/// multiplication by 2⁶⁴/φ (Fibonacci hashing). Its users in this
/// crate are the variable numberings of the legality checkers, the
/// search's `Graph` and the [`Triager`](crate::triage::Triager) (keyed
/// by [`Var`] or its index, hashed through `write_u32`). Such keys are
/// dense small integers, not input an adversary picks, so SipHash's
/// protection buys nothing there and costs more than the lookups it
/// serves; keep it for keys from outside the program.
///
/// It is public for one user outside this crate: `jungle-monitor`'s
/// seed table, keyed by a tap's `u64` variable index, which probes it
/// once per variable per window. Exporting the hasher keeps one
/// identifier hash in the workspace rather than a copy that could
/// drift from it.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A hash map keyed by such identifiers, under [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render the first few variables with the paper's letters.
        match self.0 {
            0 => write!(f, "x"),
            1 => write!(f, "y"),
            2 => write!(f, "z"),
            n => write!(f, "v{n}"),
        }
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Conventional name for variable 0, used throughout tests and examples.
pub const X: Var = Var(0);
/// Conventional name for variable 1.
pub const Y: Var = Var(1);
/// Conventional name for variable 2.
pub const Z: Var = Var(2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ProcId(3).to_string(), "p3");
        assert_eq!(Var(0).to_string(), "x");
        assert_eq!(Var(1).to_string(), "y");
        assert_eq!(Var(2).to_string(), "z");
        assert_eq!(Var(7).to_string(), "v7");
        assert_eq!(OpId(12).to_string(), "#12");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(OpId(1) < OpId(2));
        assert!(ProcId(0) < ProcId(1));
        assert!(Var(5) > Var(4));
    }
}
