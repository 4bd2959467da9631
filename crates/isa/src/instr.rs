//! The instruction alphabet `În = In ∪ ({., /} × Ô)` (§4).
//!
//! `In ::= ⟨load a, v⟩ | ⟨store a, v⟩ | ⟨cas a, v, v′⟩`. As with
//! commands, return values are inlined: a load carries the value it
//! returned, a CAS records whether it succeeded. Invocation and response
//! markers delimit the instruction sequence implementing one operation.

use jungle_core::ids::{OpId, ProcId, Val};
use jungle_core::op::Op;
use std::fmt;

/// A memory address (an element of the paper's `Addr`).
pub type Addr = u32;

/// One hardware instruction or operation boundary marker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `⟨load a, v⟩`: read address `a`, observing value `v`.
    Load {
        /// Address read.
        addr: Addr,
        /// Value observed.
        val: Val,
    },
    /// `⟨store a, v⟩`: write value `v` to address `a`.
    Store {
        /// Address written.
        addr: Addr,
        /// Value stored.
        val: Val,
    },
    /// `⟨cas a, v, v′⟩`: compare-and-swap on address `a` from `expect`
    /// to `new`; `ok` records whether the swap took effect.
    Cas {
        /// Address updated.
        addr: Addr,
        /// Expected old value.
        expect: Val,
        /// New value installed on success.
        new: Val,
        /// Whether the CAS succeeded.
        ok: bool,
    },
    /// Invocation marker `(., o)`: the operation `o` begins.
    Inv(Op),
    /// Response marker `(/, o)`: the operation `o` ends.
    Resp(Op),
}

impl Instr {
    /// True for the invocation/response markers.
    pub(crate) fn is_marker(&self) -> bool {
        matches!(self, Instr::Inv(_) | Instr::Resp(_))
    }
}

/// An instruction instance `(in, p, k)`: instruction `in` issued by
/// process `p` as part of operation `k`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstrInstance {
    /// The instruction.
    pub instr: Instr,
    /// Issuing process.
    pub proc: ProcId,
    /// Identifier of the operation this instruction belongs to.
    pub op: OpId,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Load { addr, val } => write!(f, "⟨load a{addr},{val}⟩"),
            Instr::Store { addr, val } => write!(f, "⟨store a{addr},{val}⟩"),
            Instr::Cas {
                addr,
                expect,
                new,
                ok,
            } => {
                write!(
                    f,
                    "⟨cas a{addr},{expect},{new}⟩{}",
                    if *ok { "✓" } else { "✗" }
                )
            }
            Instr::Inv(op) => write!(f, "(.,{op})"),
            Instr::Resp(op) => write!(f, "(/,{op})"),
        }
    }
}

impl fmt::Display for InstrInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.instr, self.proc, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers() {
        assert!(Instr::Inv(Op::Start).is_marker());
        assert!(Instr::Resp(Op::Abort).is_marker());
        assert!(!Instr::Store { addr: 0, val: 0 }.is_marker());
    }

    #[test]
    fn display() {
        assert_eq!(Instr::Load { addr: 2, val: 5 }.to_string(), "⟨load a2,5⟩");
        assert_eq!(
            Instr::Cas {
                addr: 0,
                expect: 0,
                new: 1,
                ok: true
            }
            .to_string(),
            "⟨cas a0,0,1⟩✓"
        );
    }
}
