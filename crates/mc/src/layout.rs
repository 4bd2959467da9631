//! Where the model TMs keep their words in simulated memory.
//!
//! Each program variable `Var(v)` owns the data address `v`; the global
//! lock `g` of the Figure 6 algorithm lives at a reserved high address,
//! and per-variable metadata (strong-TM records, TL2 version locks) in a
//! block of its own. What the words hold — the lock word, Theorem 5's
//! packed word, the record, the version lock — is defined once in
//! [`jungle_isa::tm`], for these models and the real STMs alike.

use jungle_core::ids::Var;
use jungle_isa::instr::Addr;

/// Address of the global lock `g` (Figure 6).
pub(crate) const GLOBAL_LOCK: Addr = 0xFFFF_0000;

/// Base address of per-variable metadata words (transactional records
/// of the strong TM, version locks of the lazy TL2 TM).
const META_BASE: Addr = 0x4000_0000;

/// The metadata address of a variable.
pub(crate) fn meta_of(v: Var) -> Addr {
    META_BASE + v.0
}

/// The data address of a variable.
pub(crate) fn addr_of(v: Var) -> Addr {
    v.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lock_is_above_the_data() {
        const { assert!(GLOBAL_LOCK > 1_000_000) };
    }
}
